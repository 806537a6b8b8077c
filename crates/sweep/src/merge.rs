//! Merging shard-scoped sweep artifacts into one canonical run record.
//!
//! A sharded sweep (`experiments --shard i/N`) produces one checkpoint
//! journal and one manifest per shard, each covering only the cells the
//! shard owns. This module stitches them back together with
//! **exactly-once** semantics built on the content-addressed cell keys:
//!
//! * [`merge_journals`] unions journal entries, deduplicating by key.
//!   Two entries may share a key only if their payloads are identical —
//!   equal keys encode equal inputs, so divergent payloads mean a
//!   corrupted or mismatched shard and the merge refuses. Output lines
//!   are sorted by key and stripped of per-run wall-clock, so the
//!   merged journal is a *canonical form*: merging any set of journals
//!   covering the same cells (one single-process journal, or N shard
//!   journals) yields byte-identical output.
//! * [`merge_manifests`] unions manifest cell records, deduplicating by
//!   (label, key), and projects away everything execution-dependent
//!   (sources, wall-clock, command line, worker count). The result is
//!   the same canonical form whether the inputs are N shard manifests
//!   or one single-process manifest — which is exactly what the
//!   `shard-smoke` CI job byte-diffs.
//!
//! Shard provenance (which shard produced which artifact) lives in the
//! *shard-scoped* files: each shard journal opens with a keyless note
//! line ([`crate::Checkpoint::note`]) and each shard manifest carries a
//! `shard` object. Canonical outputs deliberately contain neither, so
//! that a merged sharded run and a single-process run are comparable
//! byte-for-byte.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;

/// What a merge did, for operator-facing summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeReport {
    /// Distinct entries in the merged output.
    pub entries: usize,
    /// Input entries that duplicated an already-merged key (and agreed).
    pub duplicates: usize,
}

impl fmt::Display for MergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries ({} duplicates agreed)",
            self.entries, self.duplicates
        )
    }
}

/// Merges checkpoint-journal texts (as produced by
/// [`crate::Checkpoint`]) into the canonical merged journal: one
/// `{"k": <key>, "v": <payload>}` line per distinct key, sorted by key,
/// trailing newline. Keyless note lines (shard provenance) are dropped;
/// a torn trailing line is ignored exactly as the journal loader
/// ignores it. Returns the canonical text and a [`MergeReport`].
///
/// # Errors
///
/// Two entries sharing a key with *different* payloads — equal
/// content-addressed keys must mean equal results, so this is refused,
/// naming the key and the offending input. An unparsable line before an
/// input's final line is corruption, not a torn append, and is refused
/// naming the input and the 1-based line number.
pub fn merge_journals(inputs: &[(String, String)]) -> Result<(String, MergeReport), String> {
    let mut merged: BTreeMap<String, String> = BTreeMap::new();
    let mut report = MergeReport::default();
    for (name, text) in inputs {
        let mut segments = text.split_inclusive('\n').enumerate().peekable();
        while let Some((index, segment)) = segments.next() {
            if !segment.ends_with('\n') {
                break; // torn tail: the loader would re-run it too
            }
            let line = segment.trim_end_matches(['\n', '\r']);
            if line.trim().is_empty() {
                continue;
            }
            let entry = match Json::parse(line) {
                Ok(entry) => entry,
                Err(_) if segments.peek().is_none() => break, // torn tail
                Err(e) => return Err(format!("{name}: corrupt journal line {}: {e}", index + 1)),
            };
            let (Some(key), Some(payload)) =
                (entry.get("k").and_then(Json::as_str), entry.get("v"))
            else {
                continue; // keyless note line (provenance)
            };
            let rendered = payload.render();
            match merged.get(key) {
                None => {
                    merged.insert(key.to_string(), rendered);
                }
                Some(existing) if *existing == rendered => report.duplicates += 1,
                Some(_) => {
                    return Err(format!(
                        "journal merge conflict: key {key} in {name} disagrees with an \
                         earlier input (equal keys must carry equal payloads)"
                    ));
                }
            }
        }
    }
    report.entries = merged.len();
    let mut out = String::new();
    for (key, payload) in &merged {
        out.push_str(&Json::obj().field("k", key.as_str()).render());
        // splice the already-rendered payload in to avoid a re-parse
        out.truncate(out.len() - 1);
        out.push_str(",\"v\":");
        out.push_str(payload);
        out.push_str("}\n");
    }
    Ok((out, report))
}

/// Merges parsed manifests into the canonical merged manifest: the
/// shared `manifest_version`, the union of fingerprints, and the union
/// of cells deduplicated by (label, key) in canonical (label, key)
/// order. Execution-dependent fields (command, jobs, totals, sources,
/// wall-clock, shard provenance) are projected away, so the output is
/// byte-comparable across any partitioning of the same sweep.
///
/// # Errors
///
/// * Two manifests naming the same fingerprint with different values —
///   the shards did not run the same workload build.
/// * An input missing its `cells` array (not a manifest).
pub fn merge_manifests(inputs: &[(String, Json)]) -> Result<(Json, MergeReport), String> {
    let mut fingerprints: BTreeMap<String, String> = BTreeMap::new();
    let mut cells: BTreeMap<(String, String), ()> = BTreeMap::new();
    let mut report = MergeReport::default();
    for (name, manifest) in inputs {
        if let Some(Json::Obj(fields)) = manifest.get("fingerprints") {
            for (fp_name, value) in fields {
                let value = value.as_str().unwrap_or_default().to_string();
                match fingerprints.get(fp_name) {
                    None => {
                        fingerprints.insert(fp_name.clone(), value);
                    }
                    Some(existing) if *existing == value => {}
                    Some(existing) => {
                        return Err(format!(
                            "manifest merge conflict: fingerprint {fp_name} is {value} in \
                             {name} but {existing} in an earlier input"
                        ));
                    }
                }
            }
        }
        let records = manifest
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{name} has no cells array (not a run manifest)"))?;
        for record in records {
            let label = record
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name} has a cell without a label"))?;
            let key = record
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name} has a cell without a key"))?;
            if cells
                .insert((label.to_string(), key.to_string()), ())
                .is_some()
            {
                report.duplicates += 1;
            }
        }
    }
    report.entries = cells.len();
    let fingerprints = fingerprints.iter().fold(Json::obj(), |obj, (name, hex)| {
        obj.field(name, hex.as_str())
    });
    let merged = Json::obj()
        .field("manifest_version", 1u64)
        .field("fingerprints", fingerprints)
        .field(
            "cells",
            Json::Arr(
                cells
                    .keys()
                    .map(|(label, key)| {
                        Json::obj()
                            .field("label", label.as_str())
                            .field("key", key.as_str())
                    })
                    .collect(),
            ),
        );
    Ok((merged, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_line(key: &str, ms: u64, v: u64) -> String {
        format!(
            "{}\n",
            Json::obj()
                .field("k", key)
                .field("ms", ms)
                .field("v", v)
                .render()
        )
    }

    #[test]
    fn journal_merge_is_canonical_and_exactly_once() {
        let shard0 = format!(
            "{{\"note\":\"shard\",\"index\":0,\"of\":2}}\n{}{}",
            journal_line("b", 9, 2),
            journal_line("a", 4, 1),
        );
        let shard1 = format!("{}{}", journal_line("c", 7, 3), journal_line("a", 99, 1));
        let (merged, report) = merge_journals(&[
            ("s0.ckpt".into(), shard0),
            ("s1.ckpt".into(), shard1.clone()),
        ])
        .unwrap();
        assert_eq!(
            merged,
            "{\"k\":\"a\",\"v\":1}\n{\"k\":\"b\",\"v\":2}\n{\"k\":\"c\",\"v\":3}\n"
        );
        assert_eq!(report.entries, 3);
        assert_eq!(report.duplicates, 1);

        // canonical: merging the merge is a fixed point, and merging a
        // single equivalent journal yields the same bytes
        let (again, _) = merge_journals(&[("m".into(), merged.clone())]).unwrap();
        assert_eq!(again, merged);

        // divergent payload under an equal key is refused
        let bad = journal_line("a", 4, 999);
        let err = merge_journals(&[("s1".into(), shard1), ("bad".into(), bad)]).unwrap_err();
        assert!(err.contains("key a"), "{err}");
    }

    #[test]
    fn journal_merge_ignores_torn_tails() {
        let torn = format!("{}{{\"k\":\"x\",\"ms\":1,\"v\"", journal_line("a", 1, 1));
        let (merged, report) = merge_journals(&[("torn".into(), torn)]).unwrap();
        assert_eq!(merged, "{\"k\":\"a\",\"v\":1}\n");
        assert_eq!(report.entries, 1);
    }

    #[test]
    fn journal_merge_refuses_a_corrupt_line_before_the_tail() {
        let corrupt = format!(
            "{}garbage\n{}",
            journal_line("a", 1, 1),
            journal_line("b", 1, 2)
        );
        let err = merge_journals(&[("s0.ckpt".into(), corrupt)]).unwrap_err();
        assert!(err.contains("s0.ckpt") && err.contains("line 2"), "{err}");
    }

    #[test]
    fn manifest_merge_projects_to_canonical_cells() {
        let shard = |cells: &[(&str, &str)], index: u64| {
            let records = cells
                .iter()
                .map(|(label, key)| {
                    Json::obj()
                        .field("label", *label)
                        .field("key", *key)
                        .field("source", "live")
                        .field("wall_ms", 12u64)
                })
                .collect();
            Json::obj()
                .field("manifest_version", 1u64)
                .field("command", "experiments --shard")
                .field("shard", Json::obj().field("index", index).field("of", 2u64))
                .field("fingerprints", Json::obj().field("compile-options", "aa"))
                .field("cells", Json::Arr(records))
        };
        let (merged, report) = merge_manifests(&[
            (
                "s1.json".into(),
                shard(&[("f3/vpr", "k2"), ("f3/gzip", "k1")], 1),
            ),
            ("s0.json".into(), shard(&[("f3/gzip", "k1")], 0)),
        ])
        .unwrap();
        assert_eq!(report.entries, 2);
        assert_eq!(report.duplicates, 1);
        let cells = merged.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells[0].get("label").unwrap().as_str(), Some("f3/gzip"));
        assert_eq!(cells[1].get("label").unwrap().as_str(), Some("f3/vpr"));
        // projected: no sources, no wall-clock, no shard provenance
        assert!(merged.get("shard").is_none());
        assert!(cells[0].get("source").is_none());

        // fingerprint conflicts are refused
        let other = Json::obj()
            .field("fingerprints", Json::obj().field("compile-options", "bb"))
            .field("cells", Json::Arr(Vec::new()));
        let err = merge_manifests(&[
            ("good".into(), shard(&[("x", "k9")], 0)),
            ("bad".into(), other),
        ])
        .unwrap_err();
        assert!(err.contains("compile-options"), "{err}");
    }
}
