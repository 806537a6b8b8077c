//! End-to-end sweep tests through the `experiments` binary: stdout must
//! be byte-identical across `--jobs` levels and trace-serving paths,
//! `--manifest` must write a well-formed run record, and stderr must say
//! which serving path the replays took.

use std::path::PathBuf;
use std::process::{Command, Output};

use predbranch_sweep::Json;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pb-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn experiments(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn stdout_is_byte_identical_across_jobs_levels() {
    let dir = tmp_dir("jobs");
    let cache = dir.join("traces");
    let cache = cache.to_str().unwrap();
    let base = experiments(&["--quick", "--trace-cache", cache, "--jobs", "1", "f1", "f3"]);
    for jobs in ["2", "8"] {
        let out = experiments(&[
            "--quick",
            "--trace-cache",
            cache,
            "--jobs",
            jobs,
            "f1",
            "f3",
        ]);
        assert_eq!(
            String::from_utf8_lossy(&base.stdout),
            String::from_utf8_lossy(&out.stdout),
            "--jobs {jobs} changed stdout"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_is_written_and_well_formed() {
    let dir = tmp_dir("manifest");
    let manifest_path = dir.join("run.json");
    experiments(&[
        "--quick",
        "--jobs",
        "2",
        "--manifest",
        manifest_path.to_str().unwrap(),
        "f1",
    ]);
    let manifest = Json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(
        manifest.get("manifest_version").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(manifest.get("jobs").and_then(Json::as_u64), Some(2));
    let command = manifest.get("command").and_then(Json::as_str).unwrap();
    assert!(command.contains("f1"), "{command}");

    // f1 at quick scale: 3 benchmarks × (plain + pred) = 6 cells, all
    // live (no cache), every record carrying a v2- content key
    let cells = manifest.get("cells").and_then(Json::as_arr).unwrap();
    assert_eq!(cells.len(), 6);
    for cell in cells {
        assert!(cell
            .get("key")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("v2-"));
        assert_eq!(cell.get("source").and_then(Json::as_str), Some("live"));
    }
    let totals = manifest.get("totals").unwrap();
    assert_eq!(totals.get("cells").and_then(Json::as_u64), Some(6));
    assert_eq!(totals.get("live").and_then(Json::as_u64), Some(6));

    let fingerprints = manifest.get("fingerprints").unwrap();
    assert!(fingerprints
        .get("compile-options")
        .and_then(Json::as_str)
        .is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_rerun_restores_instead_of_rerunning() {
    let dir = tmp_dir("resume");
    let journal = dir.join("sweep.ckpt");
    let journal = journal.to_str().unwrap();
    let first = experiments(&["--quick", "--checkpoint", journal, "f1"]);
    let second = experiments(&["--quick", "--checkpoint", journal, "f1"]);
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "restored results must render identically"
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains("6 completed cells loaded") && stderr.contains("6 cells restored"),
        "second run must restore all six cells from the journal:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one stderr line that starts with `prefix`.
fn stderr_line(out: &Output, prefix: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stderr}"))
        .to_string()
}

#[test]
fn trace_serving_line_reports_the_path_each_replay_took() {
    let dir = tmp_dir("serving");
    let cache = dir.join("traces");
    let cache = cache.to_str().unwrap();
    let args = ["--quick", "--trace-cache", cache, "f1"];
    let live = experiments(&["--quick", "f1"]);

    let cold = experiments(&args);
    assert_eq!(cold.stdout, live.stdout, "recording run differs from live");
    let recorded: u64 = stderr_line(&cold, "trace cache:")
        .split_whitespace()
        .nth(4)
        .unwrap()
        .parse()
        .unwrap();
    assert!(recorded > 0);
    assert_eq!(
        stderr_line(&cold, "trace serving:"),
        format!(
            "trace serving: 0 sidecar replays, 0 decoded replays, \
             {recorded} sidecars built, 0 sidecars rejected"
        )
    );

    let warm = experiments(&args);
    assert_eq!(
        warm.stdout, live.stdout,
        "sidecar-served run differs from live"
    );
    assert_eq!(
        stderr_line(&warm, "trace cache:"),
        format!("trace cache: {recorded} replays, 0 recordings")
    );
    assert_eq!(
        stderr_line(&warm, "trace serving:"),
        format!(
            "trace serving: {recorded} sidecar replays, 0 decoded replays, \
             0 sidecars built, 0 sidecars rejected"
        )
    );

    // with every sidecar removed, each stream is decoded once and its
    // sidecar rebuilt
    for entry in std::fs::read_dir(cache).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "pbtd") {
            std::fs::remove_file(path).unwrap();
        }
    }
    let healed = experiments(&args);
    assert_eq!(healed.stdout, live.stdout, "decoded run differs from live");
    assert_eq!(
        stderr_line(&healed, "trace serving:"),
        format!(
            "trace serving: 0 sidecar replays, {recorded} decoded replays, \
             {recorded} sidecars built, 0 sidecars rejected"
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_is_not_a_subcommand() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["bench", "--json", "--quick"])
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `bench`"), "{stderr}");
}
