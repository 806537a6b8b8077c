//! Golden values for the content-addressed identities a sweep persists:
//! checkpoint cell keys and trace-cache file names. Every journal and
//! trace cache on disk is addressed by them, so a change to how a
//! program, an input image or a spec is digested must fail here rather
//! than silently orphan every existing journal and cache.

use predbranch_bench::{CellSpec, RunContext, SuiteEntry, DEFAULT_LATENCY};
use predbranch_core::{InsertFilter, PredictorSpec, Timing};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions};

/// The F3 headline `+SFPF` cell over gzip at full scale.
fn f3_gzip_sfpf() -> CellSpec {
    let bench = suite()
        .into_iter()
        .find(|bench| bench.name() == "gzip")
        .expect("gzip is in the suite");
    let compiled = compile_benchmark(&bench, &CompileOptions::default());
    let entry = SuiteEntry::new(bench, compiled);
    let sfpf = PredictorSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    }
    .with_sfpf();
    CellSpec::predicated(
        &entry,
        "f3/gzip/+SFPF",
        &sfpf,
        Timing::new(DEFAULT_LATENCY, 0),
        InsertFilter::All,
    )
}

#[test]
fn cell_key_is_pinned() {
    assert_eq!(f3_gzip_sfpf().key(), "v2-7ef67c03d309a5a0");
}

#[test]
fn trace_file_name_is_pinned() {
    let dir = std::env::temp_dir().join(format!("pb-golden-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = RunContext::new().with_trace_cache(&dir).unwrap();
    let outs = ctx.run_cells(vec![f3_gzip_sfpf()]);
    assert!(outs[0].summary.halted);
    assert_eq!(ctx.cache_stats(), (0, 1));
    let mut traces: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".pbt"))
        .collect();
    traces.sort();
    assert_eq!(traces, ["gzip-pred-cecfe610f9b8b816.pbt"]);
    let _ = std::fs::remove_dir_all(&dir);
}
