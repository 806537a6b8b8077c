//! End-to-end tests of the `pbtrace` binary: the `--json` views must
//! agree number-for-number with the text views, `characterize` must be
//! byte-deterministic at any `--jobs` level (pinned by a golden),
//! `verify` must cover the sidecars a trace cache publishes, and the
//! read-only commands must never create what they inspect.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use predbranch_sim::NullSink;
use predbranch_sweep::Json;
use predbranch_trace::{CacheKey, TraceCache};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

fn scratch_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("predbranch-pbtrace-{}-{name}", std::process::id()));
    fs::create_dir_all(&p).unwrap();
    p
}

fn pbtrace(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(args)
        .output()
        .expect("pbtrace runs");
    assert!(
        out.status.success(),
        "pbtrace {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Records the first suite benchmark with all-default parameters into
/// `dir/quick.pbt` and returns the file path. Defaults mean the trace
/// bytes are a pure function of the workload crate.
fn record_quick(dir: &std::path::Path) -> String {
    let bench = suite()[0].name().to_string();
    let trace = dir.join("quick.pbt").to_str().unwrap().to_string();
    pbtrace(&["record", "--bench", &bench, "-o", &trace]);
    trace
}

/// Replays (recording on first use) the first suite benchmark through a
/// trace cache rooted at `dir`, which leaves a `.pbt` plus its `.pbtd`
/// sidecar. Returns the cache and the entry's trace path.
fn cache_entry(dir: &std::path::Path) -> (TraceCache, PathBuf) {
    let bench = &suite()[0];
    let program = compile_benchmark(bench, &CompileOptions::default()).predicated;
    let memory = bench.input(EVAL_SEED);
    let budget = predbranch_workloads::DEFAULT_MAX_INSTRUCTIONS;
    let key = CacheKey::for_run(bench.name(), &program, &memory, budget);
    let cache = TraceCache::open(dir).unwrap();
    cache
        .replay_or_record(&key, &program, memory, budget, &mut NullSink)
        .unwrap();
    let trace = cache.path(&key);
    (cache, trace)
}

/// Runs `pbtrace` expecting failure; returns its stderr.
fn pbtrace_fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(args)
        .output()
        .expect("pbtrace runs");
    assert!(!out.status.success(), "pbtrace {args:?} should fail");
    assert_eq!(out.status.code(), Some(1), "pbtrace {args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The first `: `-separated field value on the text line starting with
/// `label`, with thousands separators stripped.
fn text_field(text: &str, label: &str) -> String {
    text.lines()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no line labeled {label:?} in:\n{text}"))
        .split(':')
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .replace(',', "")
}

#[test]
fn info_json_matches_text_numbers() {
    let dir = scratch_dir("info");
    let trace = record_quick(&dir);

    let text = pbtrace(&["info", &trace]);
    let json = Json::parse(&pbtrace(&["info", &trace, "--json"])).unwrap();

    for (text_label, json_key) in [
        ("events", "events"),
        ("pred writes", "pred_writes"),
        ("instructions", "instructions"),
        ("budget", "budget"),
    ] {
        assert_eq!(
            text_field(&text, text_label),
            json.get(json_key).unwrap().as_u64().unwrap().to_string(),
            "{json_key} differs between text and JSON"
        );
    }
    assert_eq!(
        text_field(&text, "checksum"),
        json.get("checksum").unwrap().as_str().unwrap()
    );
    assert_eq!(
        text_field(&text, "benchmark"),
        json.get("benchmark").unwrap().as_str().unwrap()
    );
    assert_eq!(
        text_field(&text, "halted"),
        json.get("halted").unwrap().render()
    );

    fs::remove_dir_all(dir).ok();
}

#[test]
fn stats_json_matches_text_numbers() {
    let dir = scratch_dir("stats");
    record_quick(&dir);
    let dir_str = dir.to_str().unwrap();

    let text = pbtrace(&["stats", dir_str]);
    let json = Json::parse(&pbtrace(&["stats", dir_str, "--json"])).unwrap();

    assert_eq!(
        text_field(&text, "entries"),
        json.get("entries").unwrap().as_u64().unwrap().to_string()
    );
    assert_eq!(
        text_field(&text, "bytes"),
        json.get("bytes").unwrap().as_u64().unwrap().to_string()
    );
    let benches = json.get("benchmarks").unwrap().as_arr().unwrap();
    assert_eq!(benches.len(), 1);
    assert_eq!(
        benches[0].get("benchmark").unwrap().as_str().unwrap(),
        suite()[0].name()
    );

    // `pbtrace record` writes no sidecar: both views count 0 of 1
    let segments = json.get("segments").unwrap();
    assert_eq!(
        text_field(&text, "segments"),
        segments
            .get("entries")
            .unwrap()
            .as_u64()
            .unwrap()
            .to_string()
    );
    assert_eq!(segments.get("entries").unwrap().as_u64(), Some(0));
    assert!(text.contains("1 v1-only"), "{text}");

    fs::remove_dir_all(dir).ok();
}

#[test]
fn characterize_is_byte_deterministic_at_any_jobs_level() {
    let dir = scratch_dir("determinism");
    record_quick(&dir);
    let dir_str = dir.to_str().unwrap();

    let text = pbtrace(&["characterize", dir_str]);
    assert_eq!(text, pbtrace(&["characterize", dir_str]), "reruns differ");
    assert_eq!(
        text,
        pbtrace(&["characterize", dir_str, "--jobs", "4"]),
        "--jobs 4 output differs from sequential"
    );
    let json = pbtrace(&["characterize", dir_str, "--json"]);
    assert_eq!(
        json,
        pbtrace(&["characterize", dir_str, "--json", "--jobs", "2"]),
        "--jobs 2 JSON differs from sequential"
    );

    // the summary tallies in text and JSON views agree
    let parsed = Json::parse(&json).unwrap();
    let buckets = parsed.get("summary").unwrap();
    let statics: u64 = [
        "biased",
        "history-predictable",
        "predicate-predictable",
        "fundamentally-hard",
    ]
    .iter()
    .map(|b| buckets.get(b).unwrap().as_u64().unwrap())
    .sum();
    let summary_line = text.lines().rev().find(|l| l.contains("statics:")).unwrap();
    assert!(
        summary_line.starts_with(&format!("{statics} statics:")),
        "text summary {summary_line:?} disagrees with JSON tally {statics}"
    );

    // JSON names files by basename only: portable across machines
    let traces = parsed.get("traces").unwrap().as_arr().unwrap();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].get("file").unwrap().as_str(), Some("quick.pbt"));

    fs::remove_dir_all(dir).ok();
}

#[test]
fn characterize_output_matches_golden() {
    let dir = scratch_dir("golden");
    let trace = record_quick(&dir);

    let text = pbtrace(&["characterize", &trace]);
    let golden = include_str!("golden/characterize_quick.txt");
    if text != golden {
        let diverge = text
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (new, old))| new != old);
        match diverge {
            Some((line, (new, old))) => panic!(
                "characterize output diverges from the golden at line {}:\n  golden: {old}\n  now:    {new}",
                line + 1
            ),
            None => panic!(
                "characterize output length differs from the golden: {} vs {} bytes",
                text.len(),
                golden.len()
            ),
        }
    }

    fs::remove_dir_all(dir).ok();
}

#[test]
fn verify_covers_the_sidecars_a_cache_publishes_and_self_heals() {
    let dir = scratch_dir("sidecars");
    let (_, trace) = cache_entry(&dir);
    let seg = trace.with_extension("pbtd");
    let dir_str = dir.to_str().unwrap();
    assert!(seg.exists(), "recording publishes the sidecar");

    // verify covers the sidecar too, and --quiet suppresses all
    // success output
    let verbose = pbtrace(&["verify", dir_str]);
    assert!(verbose.contains("segment-served"), "{verbose}");
    assert_eq!(pbtrace(&["verify", dir_str, "--quiet"]), "");
    let json = Json::parse(&pbtrace(&["stats", dir_str, "--json"])).unwrap();
    let segments = json.get("segments").unwrap();
    assert_eq!(segments.get("entries").unwrap().as_u64(), Some(1));

    // a v1-only entry gets its sidecar back from its next replay
    fs::remove_file(&seg).unwrap();
    assert!(!pbtrace(&["verify", dir_str]).contains("segment-served"));
    let (cache, _) = cache_entry(&dir);
    assert_eq!(cache.serve_stats().segment_builds, 1);
    let healed = pbtrace(&["verify", dir_str]);
    assert!(healed.contains("segment-served"), "{healed}");

    fs::remove_dir_all(dir).ok();
}

#[test]
fn verify_exits_nonzero_on_a_corrupted_segment() {
    let dir = scratch_dir("verify-corrupt");
    let (_, trace) = cache_entry(&dir);
    let dir_str = dir.to_str().unwrap();

    // flip one byte in the middle of the sidecar's event section
    let seg = trace.with_extension("pbtd");
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&seg, &bytes).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(["verify", dir_str, "--quiet"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "corrupted segment must fail verify");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains(".pbtd"), "{stdout}");
    // quiet mode: the intact .pbt produced no OK line
    assert!(!stdout.contains(": OK"), "{stdout}");

    fs::remove_dir_all(dir).ok();
}

#[test]
fn characterize_rejects_missing_paths() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(["characterize", "/nonexistent/predbranch-cache"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no such file or directory"), "{err}");
    // and it must not have created the directory
    assert!(!std::path::Path::new("/nonexistent/predbranch-cache").exists());
}

#[test]
fn stats_rejects_a_missing_path_without_creating_it() {
    let dir = scratch_dir("stats-missing").join("absent");
    let dir_str = dir.to_str().unwrap();
    let err = pbtrace_fails(&["stats", dir_str]);
    assert!(err.contains(dir_str), "{err}");
    assert!(err.contains("no such file or directory"), "{err}");
    assert!(!dir.exists(), "stats must not create the directory");
    fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn stats_rejects_a_file_path() {
    let dir = scratch_dir("stats-file");
    let trace = record_quick(&dir);
    let err = pbtrace_fails(&["stats", &trace]);
    assert!(err.contains(&trace), "{err}");
    assert!(err.contains("not a directory"), "{err}");
    fs::remove_dir_all(dir).ok();
}

#[test]
fn migrate_is_not_a_subcommand() {
    let dir = scratch_dir("no-migrate");
    let err = pbtrace_fails(&["migrate", dir.to_str().unwrap()]);
    assert!(err.contains("usage:"), "{err}");
    fs::remove_dir_all(dir).ok();
}

#[test]
fn dump_into_a_closed_pipe_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = scratch_dir("epipe");
    let trace = record_quick(&dir);
    // the full dump is megabytes, far past any pipe buffer, so the
    // writer is still mid-stream when the reader goes away — the
    // `pbtrace dump g.pbt | head -1` shape
    let mut child = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(["dump", &trace])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(
        first.contains("branch") || first.contains("pred-write"),
        "{first}"
    );
    // the reader (and with it the pipe's read end) is dropped here
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "pbtrace panicked: {err}");
    assert!(out.status.success(), "{:?}: {err}", out.status);
    assert!(!err.contains("panicked"), "{err}");
    fs::remove_dir_all(dir).ok();
}
