//! Word-addressed sparse data memory.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A sparse, word-addressed data memory of `i64` values.
///
/// Unwritten addresses read as zero (trap-free semantics matching the
/// rest of the ISA). Addresses are signed so base+offset arithmetic never
/// faults.
///
/// A memory is a cheap-to-clone *image*: clones share one word map and
/// the first [`store`](Memory::store) into a shared image copies it
/// (copy-on-write), so a sweep can hand one input image to many cells
/// and each executor pays for a private copy only once it writes. The
/// content [`fingerprint`](Memory::fingerprint) is computed at most once
/// per image and shared with every clone made after it.
///
/// # Examples
///
/// ```
/// use predbranch_sim::Memory;
///
/// let mut mem = Memory::new();
/// assert_eq!(mem.load(100), 0);
/// mem.store(100, -7);
/// assert_eq!(mem.load(100), -7);
///
/// let input = mem.clone();
/// mem.store(100, 1);
/// assert_eq!(input.load(100), -7);
/// ```
#[derive(Clone, Default)]
pub struct Memory {
    image: Arc<Image>,
}

/// The shared part of a [`Memory`]: the words plus the memo of their
/// fingerprint, which every store clears.
#[derive(Clone, Default)]
struct Image {
    words: HashMap<i64, i64>,
    fingerprint: OnceLock<u64>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Creates a memory pre-loaded with `values` starting at `base`.
    ///
    /// # Examples
    ///
    /// ```
    /// use predbranch_sim::Memory;
    ///
    /// let mem = Memory::from_slice(10, &[1, 2, 3]);
    /// assert_eq!(mem.load(11), 2);
    /// ```
    pub fn from_slice(base: i64, values: &[i64]) -> Self {
        let mut mem = Memory::new();
        for (i, &v) in values.iter().enumerate() {
            mem.store(base.wrapping_add(i as i64), v);
        }
        mem
    }

    /// Reads the word at `addr` (zero if never written).
    pub fn load(&self, addr: i64) -> i64 {
        self.image.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the word at `addr`, first copying the image if it is
    /// shared with a clone.
    pub fn store(&mut self, addr: i64, value: i64) {
        let image = Arc::make_mut(&mut self.image);
        image.fingerprint.take();
        if value == 0 {
            // Keep the map sparse; zero is the default.
            image.words.remove(&addr);
        } else {
            image.words.insert(addr, value);
        }
    }

    /// Number of non-zero words.
    pub fn nonzero_words(&self) -> usize {
        self.image.words.len()
    }

    /// Iterates over `(addr, value)` pairs of non-zero words in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.image.words.iter().map(|(&a, &v)| (a, v))
    }

    /// A stable content hash of the image: 64-bit FNV-1a over the
    /// non-zero `(addr, value)` pairs sorted by address, each word
    /// absorbed as little-endian bytes. Independent of insertion order,
    /// identical across processes and platforms, and computed at most
    /// once per image.
    ///
    /// # Examples
    ///
    /// ```
    /// use predbranch_sim::Memory;
    ///
    /// let a = Memory::from_slice(0, &[1, 2]);
    /// let b: Memory = [(1, 2), (0, 1)].into_iter().collect();
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        *self.image.fingerprint.get_or_init(|| {
            let mut pairs: Vec<(i64, i64)> = self.iter().collect();
            pairs.sort_unstable();
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut absorb = |word: i64| {
                for b in word.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            };
            for (addr, value) in pairs {
                absorb(addr);
                absorb(value);
            }
            hash
        })
    }
}

impl PartialEq for Memory {
    /// Images are equal when their words are; the fingerprint memo is
    /// ignored.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.image, &other.image) || self.image.words == other.image.words
    }
}

impl Eq for Memory {}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("words", &self.image.words)
            .finish()
    }
}

impl FromIterator<(i64, i64)> for Memory {
    fn from_iter<T: IntoIterator<Item = (i64, i64)>>(iter: T) -> Self {
        let mut mem = Memory::new();
        for (a, v) in iter {
            mem.store(a, v);
        }
        mem
    }
}

impl Extend<(i64, i64)> for Memory {
    fn extend<T: IntoIterator<Item = (i64, i64)>>(&mut self, iter: T) {
        for (a, v) in iter {
            self.store(a, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.load(0), 0);
        assert_eq!(mem.load(i64::MIN), 0);
        assert_eq!(mem.load(i64::MAX), 0);
    }

    #[test]
    fn store_then_load() {
        let mut mem = Memory::new();
        mem.store(-5, 42);
        assert_eq!(mem.load(-5), 42);
        mem.store(-5, 43);
        assert_eq!(mem.load(-5), 43);
    }

    #[test]
    fn storing_zero_erases() {
        let mut mem = Memory::new();
        mem.store(1, 9);
        assert_eq!(mem.nonzero_words(), 1);
        mem.store(1, 0);
        assert_eq!(mem.nonzero_words(), 0);
        assert_eq!(mem.load(1), 0);
    }

    #[test]
    fn from_slice_lays_out_consecutively() {
        let mem = Memory::from_slice(100, &[5, 0, 7]);
        assert_eq!(mem.load(100), 5);
        assert_eq!(mem.load(101), 0);
        assert_eq!(mem.load(102), 7);
        assert_eq!(mem.nonzero_words(), 2);
    }

    #[test]
    fn collect_and_extend() {
        let mut mem: Memory = [(1, 10), (2, 20)].into_iter().collect();
        mem.extend([(3, 30)]);
        assert_eq!(mem.load(3), 30);
        let mut pairs: Vec<_> = mem.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn clones_share_the_image_until_a_store() {
        let input = Memory::from_slice(0, &[1, 2, 3]);
        let digest = input.fingerprint();
        let mut copy = input.clone();
        assert!(Arc::ptr_eq(&input.image, &copy.image));
        assert_eq!(copy.fingerprint(), digest);
        copy.store(1, 9);
        assert!(!Arc::ptr_eq(&input.image, &copy.image));
        assert_eq!(input.load(1), 2);
        assert_eq!(input.fingerprint(), digest);
        assert_ne!(copy.fingerprint(), digest);
        copy.store(1, 2);
        assert_eq!(copy.fingerprint(), digest);
    }

    #[test]
    fn equality_ignores_zero_writes() {
        let mut a = Memory::new();
        a.store(5, 0);
        assert_eq!(a, Memory::new());
    }
}
