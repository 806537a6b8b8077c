//! Resumable sweep checkpoints.
//!
//! A checkpoint is an append-only JSONL journal: one line per completed
//! cell, `{"k": <key>, "ms": <wall_ms>, "v": <payload>}`. Appends are
//! flushed per line, so a sweep killed at any instant loses at most the
//! line being written; on reopen, a torn trailing line is detected and
//! ignored (the cell simply re-runs). An unparsable line anywhere else
//! cannot come from a kill, so it is reported as corruption instead of
//! silently dropping the entries after it. Keys are expected to be
//! content-addressed by the caller — a resumed sweep trusts an entry
//! *only* because its key encodes everything that determines the
//! result — and [`Checkpoint::validate`] lets the caller refuse a
//! journal whose payloads break the invariants of its own result type.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::Json;

/// An open checkpoint journal: previously completed cells loaded into
/// memory, plus an append handle for newly completed ones.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    /// Payload per key, with the 1-based journal line it was loaded
    /// from (the last line of a repeated key wins).
    completed: HashMap<String, (usize, Json)>,
    writer: Mutex<File>,
}

impl Checkpoint {
    /// Opens (creating if absent) the journal at `path`, loading every
    /// intact entry. A torn final line — a journal whose writer was
    /// killed mid-append — is *truncated away*, not fatal: the affected
    /// cell simply re-runs, and subsequent appends start on a fresh
    /// line instead of gluing onto the torn one.
    ///
    /// # Errors
    ///
    /// Besides I/O errors, returns [`io::ErrorKind::InvalidData`] naming
    /// the 1-based line number when a line *before* the final one does
    /// not parse: appends are whole lines, so only the last line can be
    /// torn, and anything else is corruption that would otherwise drop
    /// every later entry.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut completed = HashMap::new();
        let mut valid_end = 0u64;
        match std::fs::read_to_string(&path) {
            // journals hold one line per *cell* (not per event), so
            // reading whole is cheap even for huge sweeps
            Ok(text) => {
                let mut offset = 0usize;
                let mut segments = text.split_inclusive('\n').enumerate().peekable();
                while let Some((index, segment)) = segments.next() {
                    let terminated = segment.ends_with('\n');
                    let line = segment.trim_end_matches(['\n', '\r']);
                    let entry = if line.trim().is_empty() {
                        None
                    } else {
                        match Json::parse(line) {
                            Ok(entry) => Some(entry),
                            // torn tail: drop it and stop
                            Err(_) if segments.peek().is_none() => break,
                            Err(e) => {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("corrupt journal line {}: {e}", index + 1),
                                ))
                            }
                        }
                    };
                    if !terminated {
                        // an unterminated final line may have lost its
                        // newline to a kill; conservatively re-run it
                        break;
                    }
                    if let Some(entry) = entry {
                        if let (Some(key), Some(value)) =
                            (entry.get("k").and_then(Json::as_str), entry.get("v"))
                        {
                            completed.insert(key.to_string(), (index + 1, value.clone()));
                        }
                    }
                    offset += segment.len();
                    valid_end = offset as u64;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let writer = OpenOptions::new().create(true).append(true).open(&path)?;
        writer.set_len(valid_end)?;
        Ok(Checkpoint {
            path,
            completed,
            writer: Mutex::new(writer),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The payload previously recorded for `key`, if the cell already
    /// completed in an earlier (or the current) run.
    pub fn lookup(&self, key: &str) -> Option<&Json> {
        self.completed.get(key).map(|(_, payload)| payload)
    }

    /// Checks every loaded payload with `check`, in journal order.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for the first payload `check`
    /// refuses, naming its 1-based line, its key and the reason, so a
    /// journal that parses but holds impossible results is refused
    /// before anything is restored from it.
    pub fn validate<E: fmt::Display>(
        &self,
        check: impl Fn(&Json) -> Result<(), E>,
    ) -> io::Result<()> {
        let mut entries: Vec<(&usize, &String, &Json)> = self
            .completed
            .iter()
            .map(|(key, (line, payload))| (line, key, payload))
            .collect();
        entries.sort_unstable_by_key(|&(line, _, _)| *line);
        for (line, key, payload) in entries {
            if let Err(why) = check(payload) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("invalid journal line {line} (cell {key}): {why}"),
                ));
            }
        }
        Ok(())
    }

    /// Entries loaded at open time.
    pub fn loaded(&self) -> usize {
        self.completed.len()
    }

    /// Appends a keyless provenance note (e.g. which shard of a
    /// partitioned sweep owns this journal). The loader skips lines
    /// without a `"k"` field, so notes never masquerade as completed
    /// cells, and journal merging drops them from the canonical output.
    pub fn note(&self, payload: &Json) -> io::Result<()> {
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(writer, "{}", payload.render())?;
        writer.flush()
    }

    /// Appends a completed cell and flushes it to disk before
    /// returning, so the entry survives a kill arriving right after.
    pub fn record(&self, key: &str, wall_ms: u64, payload: &Json) -> io::Result<()> {
        let line = Json::obj()
            .field("k", key)
            .field("ms", wall_ms)
            .field("v", payload.clone())
            .render();
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(writer, "{line}")?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pb-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn record_then_reopen_restores_entries() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.loaded(), 0);
        ckpt.record("cell-a", 5, &Json::obj().field("x", 1u64))
            .unwrap();
        ckpt.record("cell-b", 9, &Json::from("text")).unwrap();
        drop(ckpt);

        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.loaded(), 2);
        assert_eq!(
            reopened
                .lookup("cell-a")
                .unwrap()
                .get("x")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(reopened.lookup("cell-b").unwrap().as_str(), Some("text"));
        assert!(reopened.lookup("cell-c").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validate_names_the_first_refused_line_and_its_key() {
        let path = tmp("validate");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).unwrap();
        ckpt.note(&Json::obj().field("note", "provenance")).unwrap();
        for (key, value) in [("a", 1u64), ("b", 7), ("c", 9), ("a", 2)] {
            ckpt.record(key, 1, &Json::from(value)).unwrap();
        }
        drop(ckpt);
        let reopened = Checkpoint::open(&path).unwrap();
        let small = |payload: &Json| match payload.as_u64() {
            Some(v) if v < 5 => Ok(()),
            _ => Err("too big"),
        };
        let err = reopened.validate(small).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "invalid journal line 3 (cell b): too big",
            "line 1 is the note; line 2's `a` was superseded by line 5"
        );
        assert!(reopened.validate(|_| Ok::<(), &str>(())).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn notes_survive_but_never_load_as_cells() {
        let path = tmp("notes");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).unwrap();
        ckpt.note(&Json::obj().field("note", "shard").field("index", 1u64))
            .unwrap();
        ckpt.record("cell", 3, &Json::from(7u64)).unwrap();
        drop(ckpt);
        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.loaded(), 1);
        assert!(reopened.lookup("cell").is_some());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"note\":\"shard\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).unwrap();
        ckpt.record("good", 1, &Json::from(1u64)).unwrap();
        ckpt.record("casualty", 1, &Json::from(2u64)).unwrap();
        drop(ckpt);
        // simulate a kill mid-append: truncate the last line in half
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();

        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.loaded(), 1);
        assert!(reopened.lookup("good").is_some());
        assert!(reopened.lookup("casualty").is_none());
        // and the journal still accepts appends afterwards
        reopened.record("new", 1, &Json::Null).unwrap();
        drop(reopened);
        let again = Checkpoint::open(&path).unwrap();
        assert!(again.lookup("new").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_line_before_the_tail_is_an_error_naming_the_line() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).unwrap();
        for key in ["first", "second", "third"] {
            ckpt.record(key, 1, &Json::from(1u64)).unwrap();
        }
        drop(ckpt);
        // garble the middle entry; the intact third line follows it, so
        // this cannot be a torn append
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"k\":\"second\",\"ms\":";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = Checkpoint::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
        // refusing to open must leave the journal untouched
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            lines.join("\n") + "\n"
        );
        let _ = std::fs::remove_file(&path);
    }
}
