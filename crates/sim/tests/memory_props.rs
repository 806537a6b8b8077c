//! `Memory` property tests: the copy-on-write image and its memoized
//! fingerprint behave exactly like an unshared map hashed afresh.

use std::collections::BTreeMap;

use proptest::prelude::*;

use predbranch_sim::Memory;

/// The fingerprint recomputed from scratch by an independent FNV-1a:
/// non-zero pairs sorted by address, each word little-endian.
fn reference_fingerprint(model: &BTreeMap<i64, i64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (&addr, &value) in model {
        for b in addr.to_le_bytes().into_iter().chain(value.to_le_bytes()) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// The contents of `memory` as a sorted map.
fn contents(memory: &Memory) -> BTreeMap<i64, i64> {
    memory.iter().collect()
}

/// One step on a pool of images: `0` stores `value` at `addr` into
/// image `which` (with `hash_others`, first filling every other image's
/// memo so the store is checked against it), `1` pushes a clone of it,
/// `2` reads its fingerprint (filling the memo), `3` compares it with
/// an unmemoized rebuild. Memos are filled only by these steps, so
/// clones are taken both before and after their source was hashed.
fn arb_step() -> impl Strategy<Value = (u8, usize, i64, i64, bool)> {
    (0u8..4, 0usize..6, -6i64..6, -2i64..3, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random stores with clones interleaved: every image always
    /// matches its own model, its memoized fingerprint equals a fresh
    /// recompute, and equality ignores whether the memo is filled.
    #[test]
    fn cow_images_match_an_unshared_model(steps in prop::collection::vec(arb_step(), 1..64)) {
        let mut images = vec![Memory::new()];
        let mut models = vec![BTreeMap::new()];
        for (kind, which, addr, value, hash_others) in steps {
            let which = which % images.len();
            match kind {
                0 => {
                    let before: Vec<(BTreeMap<i64, i64>, Option<u64>)> = images
                        .iter()
                        .map(|m| (contents(m), hash_others.then(|| m.fingerprint())))
                        .collect();
                    images[which].store(addr, value);
                    if value == 0 {
                        models[which].remove(&addr);
                    } else {
                        models[which].insert(addr, value);
                    }
                    // a store reaches only the image it was made to,
                    // however many clones share its map
                    for (i, (words, fingerprint)) in before.into_iter().enumerate() {
                        if i != which {
                            prop_assert_eq!(contents(&images[i]), words);
                            if let Some(fingerprint) = fingerprint {
                                prop_assert_eq!(images[i].fingerprint(), fingerprint);
                            }
                        }
                    }
                }
                1 => {
                    images.push(images[which].clone());
                    models.push(models[which].clone());
                }
                2 => {
                    prop_assert_eq!(
                        images[which].fingerprint(),
                        reference_fingerprint(&models[which])
                    );
                }
                _ => {
                    let rebuilt: Memory = images[which].iter().collect();
                    prop_assert_eq!(&rebuilt, &images[which]);
                    images[which].fingerprint();
                    prop_assert_eq!(&images[which], &rebuilt);
                    prop_assert_eq!(rebuilt.fingerprint(), images[which].fingerprint());
                }
            }
            for (image, model) in images.iter().zip(&models) {
                prop_assert_eq!(&contents(image), model);
            }
        }
        for (image, model) in images.iter().zip(&models) {
            prop_assert_eq!(image.fingerprint(), reference_fingerprint(model));
        }
    }
}
