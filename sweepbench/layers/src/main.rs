//! Traced per-layer pass of the sweep benchmark.
//!
//! Runs the pinned experiment list once under the same context the
//! `experiments` CLI builds from the given flags, timing each
//! experiment and the rendering of its artifacts, then times calls into
//! each crate's public API on the suite's event streams: suite compile,
//! the executor, trace record and serve, predictor lanes in a gang
//! unit, characterization, and the checkpoint journal. Every span is
//! taken here, around the call; nothing inside the program is
//! instrumented.
//!
//! ```text
//! sweepbench-layers --work <dir> --journal <done.ckpt> --stdout <out.txt>
//!     [--jobs N] [--trace-cache <dir>] [--checkpoint <file>]
//!     [--manifest <file>] [--input-seed N] <id>...
//! ```
//!
//! Output: one `METRIC <name> <value> <unit>` line per measurement and
//! `NOTE <name> <value>` lines for provenance, on stdout. The rendered
//! artifacts go to `--stdout`, byte for byte what the CLI prints, so the
//! caller can check them against the reference digest.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use predbranch_bench::runner::{compiled_suite, CellSpec, RunContext, SuiteEntry};
use predbranch_bench::{all_experiments, Scale, DEFAULT_LATENCY};
use predbranch_characterize::Characterizer;
use predbranch_core::{InsertFilter, Timing};
use predbranch_modern::ModernSpec;
use predbranch_sim::{Event, Executor, NullSink, RunSummary, EVENT_BATCH_CAPACITY};
use predbranch_sweep::{Checkpoint, Json, ManifestBuilder};
use predbranch_trace::{CacheKey, TraceCache};
use predbranch_workloads::{DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED};

/// The instruction budget the sweep gives every cell (the runner's
/// private `CELL_BUDGET`); trace keys include it, so it must match.
const BUDGET: u64 = 2 * DEFAULT_MAX_INSTRUCTIONS;

/// Extra lanes added to a gang unit to measure a family's marginal cost.
const EXTRA_LANES: usize = 8;

/// Repetitions of each layer timing; the median is kept.
const REPS: usize = 3;

/// Repetitions of each marginal-cost measurement: lane timings are
/// short, so they get more.
const LANE_REPS: usize = 5;

/// Predictor families whose lane cost is measured, by metric name. The
/// sizes are the ones the experiments sweep (F3/F7/F18/F19).
const FAMILIES: [(&str, &str); 13] = [
    ("bimodal", "bimodal:14"),
    ("local", "local:10/10/12"),
    ("gshare", "gshare:13/13"),
    ("gshare-sfpf", "gshare:13/13+sfpf"),
    ("gshare-pgu", "gshare:13/13+pgu8"),
    ("gshare-sfpf-pgu", "gshare:13/13+sfpf+pgu8"),
    ("agree", "agree:12/12"),
    ("tournament", "tournament:12/12/12/12"),
    ("perceptron", "perceptron:7/14"),
    ("tage", "tage:4/10/64"),
    ("ptage", "ptage:4/10/64"),
    ("mpp", "mpp:12"),
    ("pmpp", "pmpp:12"),
];

/// A sweep-sized 12-lane matrix: a gshare budget ladder plus the
/// paper's predicate structures at two budgets.
const GANG12: [&str; 12] = [
    "gshare:8/8",
    "gshare:9/9",
    "gshare:10/10",
    "gshare:11/11",
    "gshare:12/12",
    "gshare:13/13",
    "gshare:10/10+sfpf",
    "gshare:10/10+pgu8",
    "gshare:10/10+sfpf+pgu8",
    "gshare:13/13+sfpf",
    "gshare:13/13+pgu8",
    "gshare:13/13+sfpf+pgu8",
];

/// BENCH_7's enum-path gshare throughput on gzip at retire 0, for the
/// provenance note.
const BENCH7_GSHARE_BRANCHES_PER_S: f64 = 20_530_341.873_732_213;

#[derive(Debug, Default)]
struct Args {
    work: PathBuf,
    journal: PathBuf,
    stdout: PathBuf,
    jobs: usize,
    trace_cache: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    manifest: Option<PathBuf>,
    input_seed: u64,
    ids: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: 1,
        input_seed: EVAL_SEED,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            args.ids.push(arg);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{arg}: {e}"));
        match arg.as_str() {
            "--work" => args.work = value.into(),
            "--journal" => args.journal = value.into(),
            "--stdout" => args.stdout = value.into(),
            "--jobs" => args.jobs = number(&value)? as usize,
            "--trace-cache" => args.trace_cache = Some(value.into()),
            "--checkpoint" => args.checkpoint = Some(value.into()),
            "--manifest" => args.manifest = Some(value.into()),
            "--input-seed" => args.input_seed = number(&value)?,
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    for (name, path) in [
        ("--work", &args.work),
        ("--journal", &args.journal),
        ("--stdout", &args.stdout),
    ] {
        if path.as_os_str().is_empty() {
            return Err(format!("{name} is required"));
        }
    }
    if args.ids.is_empty() {
        return Err("name the experiment ids to run".into());
    }
    Ok(args)
}

fn metric(name: &str, value: f64, unit: &str) {
    println!("METRIC {name} {value} {unit}");
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median seconds of `reps` calls to `f`.
fn timed<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    median(
        (0..reps)
            .map(|rep| {
                let started = Instant::now();
                black_box(f(rep));
                started.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// The suite's event streams on one input seed: the plain and the
/// predicated binary of every benchmark, as sweep cells.
struct Corpus {
    suite: Vec<SuiteEntry>,
    seed: u64,
    /// (suite index, predicated) per stream.
    streams: Vec<(usize, bool)>,
}

impl Corpus {
    fn new(suite: Vec<SuiteEntry>, seed: u64) -> Self {
        let streams = (0..suite.len())
            .flat_map(|i| [(i, false), (i, true)])
            .collect();
        Corpus {
            suite,
            seed,
            streams,
        }
    }

    /// The same input seed, restricted to one benchmark's predicated
    /// binary.
    fn only_predicated(suite: Vec<SuiteEntry>, name: &str, seed: u64) -> Option<Self> {
        let index = suite.iter().position(|e| e.compiled.name == name)?;
        Some(Corpus {
            suite,
            seed,
            streams: vec![(index, true)],
        })
    }

    /// One cell per stream running `spec`.
    fn cells(&self, spec: &ModernSpec, timing: Timing) -> Vec<CellSpec> {
        self.streams
            .iter()
            .map(|&(index, predicated)| {
                let entry = &self.suite[index];
                let label = format!(
                    "{}-{}-{:x}",
                    entry.compiled.name,
                    if predicated { "pred" } else { "plain" },
                    self.seed
                );
                let spec = spec.clone();
                if predicated {
                    CellSpec::seeded(entry, label, self.seed, spec, timing, InsertFilter::All)
                } else {
                    CellSpec {
                        cache_label: label.clone(),
                        memory: entry.bench.input(self.seed),
                        ..CellSpec::plain(entry, label, spec, timing, InsertFilter::All)
                    }
                }
            })
            .collect()
    }

    /// The streams as cells of the cheapest predictor (static
    /// not-taken), for the sections that need only a cell's label,
    /// program and input.
    fn runs(&self) -> Vec<CellSpec> {
        self.cells(&spec("nt"), immediate())
    }
}

fn spec(text: &str) -> ModernSpec {
    text.parse().expect("valid predictor spec")
}

/// The sweep's default timing: resolve latency, immediate retire.
fn immediate() -> Timing {
    Timing::new(DEFAULT_LATENCY, 0)
}

/// Runs the experiments under the context the CLI builds from the same
/// flags, timing each one and the rendering of its artifacts.
fn experiments_pass(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let mut ctx = RunContext::new().with_jobs(args.jobs);
    if let Some(dir) = &args.trace_cache {
        ctx = ctx
            .with_trace_cache(dir)
            .map_err(|e| format!("cannot open trace cache {}: {e}", dir.display()))?;
    }
    if let Some(path) = &args.checkpoint {
        ctx = ctx
            .with_checkpoint(path)
            .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
    }
    if args.manifest.is_some() {
        ctx = ctx.with_manifest(ManifestBuilder::new("sweepbench-layers", args.jobs));
    }
    let all = all_experiments();
    let scale = Scale::full();
    let mut rendered = String::new();
    let mut render_s = 0.0;
    let mut artifacts = 0usize;
    for id in &args.ids {
        let exp = all
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| format!("unknown experiment `{id}`"))?;
        let t = Instant::now();
        let out = (exp.run)(&ctx, &scale);
        metric(&format!("exp.{id}.s"), t.elapsed().as_secs_f64(), "s");
        let t = Instant::now();
        for artifact in &out {
            rendered.push_str(&format!("{artifact}\n"));
        }
        render_s += t.elapsed().as_secs_f64();
        artifacts += out.len();
    }
    metric("report.render_s", render_s, "s");
    metric("report.artifacts", artifacts as f64, "count");
    if let (Some(path), Some(manifest)) = (&args.manifest, ctx.manifest()) {
        let stats = ctx.stats();
        let cache = args
            .trace_cache
            .as_ref()
            .map(|_| (stats.replays, stats.recordings));
        manifest
            .write(path, cache)
            .map_err(|e| format!("cannot write manifest {}: {e}", path.display()))?;
    }
    let wall = started.elapsed().as_secs_f64();
    std::fs::write(&args.stdout, rendered)
        .map_err(|e| format!("cannot write {}: {e}", args.stdout.display()))?;
    let stats = ctx.stats();
    metric("sweep.live_runs", stats.live_runs as f64, "count");
    metric("sweep.replays", stats.replays as f64, "count");
    metric("sweep.recordings", stats.recordings as f64, "count");
    metric(
        "sweep.checkpoint_hits",
        stats.checkpoint_hits as f64,
        "count",
    );
    metric("traced.wall_s", wall, "s");
    Ok(())
}

fn events_of(summary: &RunSummary) -> u64 {
    summary.branches + summary.pred_writes
}

fn executor_layer(corpus: &Corpus) {
    let runs = corpus.runs();
    let mut buffer: Vec<Event> = Vec::with_capacity(EVENT_BATCH_CAPACITY);
    let mut events = 0;
    let exec_s = timed(REPS, |_| {
        events = 0;
        for cell in &runs {
            let summary = Executor::new(&cell.program, cell.memory.clone()).run_batched(
                &mut NullSink,
                BUDGET,
                &mut buffer,
            );
            assert!(summary.halted, "suite program did not halt");
            events += events_of(&summary);
        }
    });
    metric("sim.exec_s", exec_s, "s");
    metric("sim.events", events as f64, "count");
    metric("sim.events_per_s", events as f64 / exec_s, "1/s");
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn trace_layer(corpus: &Corpus, work: &Path) -> Result<(), String> {
    let runs = corpus.runs();
    let keys: Vec<CacheKey> = runs
        .iter()
        .map(|c| CacheKey::for_run(&c.cache_label, &c.program, &c.memory, BUDGET))
        .collect();
    // one pass over every stream; Ok(events) if each hit (or missed) as expected
    let pass = |cache: &TraceCache, expect_hit: bool| -> Result<u64, String> {
        let mut events = 0;
        for (cell, key) in runs.iter().zip(&keys) {
            let (summary, hit) = cache
                .replay_or_record(
                    key,
                    &cell.program,
                    cell.memory.clone(),
                    BUDGET,
                    &mut NullSink,
                )
                .map_err(|e| format!("trace cache: {e}"))?;
            if hit != expect_hit {
                return Err(format!("trace cache: {} hit = {hit}", cell.cache_label));
            }
            events += events_of(&summary);
        }
        Ok(events)
    };
    let dir = |rep: usize| work.join(format!("layer-traces-{rep}"));
    let mut failure = None;
    let record_s = timed(REPS, |rep| {
        let _ = std::fs::remove_dir_all(dir(rep));
        let recorded = TraceCache::open(dir(rep))
            .map_err(|e| format!("cannot open trace cache: {e}"))
            .and_then(|cache| pass(&cache, false));
        if let Err(e) = recorded {
            failure = Some(e);
        }
    });
    let served = dir(REPS - 1);
    let cache = TraceCache::open(&served).map_err(|e| format!("cannot open trace cache: {e}"))?;
    let mut events = 0;
    let serve_s = timed(REPS, |_| match pass(&cache, true) {
        Ok(n) => events = n,
        Err(e) => failure = Some(e),
    });
    let bytes = dir_bytes(&served);
    for rep in 0..REPS {
        let _ = std::fs::remove_dir_all(dir(rep));
    }
    if let Some(e) = failure {
        return Err(e);
    }
    metric("trace.record_s", record_s, "s");
    metric("trace.serve_s", serve_s, "s");
    metric("trace.serve_events", events as f64, "count");
    metric("trace.serve_events_per_s", events as f64 / serve_s, "1/s");
    metric("trace.disk_bytes", bytes as f64, "bytes");
    Ok(())
}

/// Seconds for one `run_cells` call holding, per stream, one gang unit
/// of the given lanes.
fn gang_seconds(ctx: &RunContext, corpus: &Corpus, lanes: &[ModernSpec], timing: Timing) -> f64 {
    let cells: Vec<CellSpec> = lanes
        .iter()
        .flat_map(|spec| corpus.cells(spec, timing))
        .collect();
    let started = Instant::now();
    black_box(ctx.run_cells(cells));
    started.elapsed().as_secs_f64()
}

/// Marginal nanoseconds per (lane × conditional branch) of adding the
/// `extra` lanes to a one-lane (`base`) gang unit over every stream.
fn marginal_ns(
    corpus: &Corpus,
    base: &ModernSpec,
    extra: &[ModernSpec],
    timing: Timing,
    reps: usize,
) -> f64 {
    let ctx = RunContext::new();
    let branches = conditional_branches(corpus);
    let one = [base.clone()];
    let many: Vec<ModernSpec> = one.iter().chain(extra).cloned().collect();
    median(
        (0..reps)
            .map(|_| {
                let t1 = gang_seconds(&ctx, corpus, &one, timing);
                let t2 = gang_seconds(&ctx, corpus, &many, timing);
                (t2 - t1) * 1e9 / (extra.len() as u64 * branches) as f64
            })
            .collect(),
    )
}

fn conditional_branches(corpus: &Corpus) -> u64 {
    RunContext::new()
        .run_cells(corpus.runs())
        .iter()
        .map(|o| o.summary.conditional_branches)
        .sum()
}

fn lane_layer(corpus: &Corpus) {
    metric(
        "lane.branches",
        conditional_branches(corpus) as f64,
        "count",
    );
    for (name, text) in FAMILIES {
        let family = spec(text);
        let extra = vec![family.clone(); EXTRA_LANES];
        let ns = marginal_ns(corpus, &family, &extra, immediate(), LANE_REPS);
        metric(&format!("lane.{name}.ns_per_branch"), ns, "ns");
    }
    let both = spec("gshare:13/13+sfpf+pgu8");
    let extra = vec![both.clone(); EXTRA_LANES];
    let retire8 = Timing::new(DEFAULT_LATENCY, 8);
    let ns = marginal_ns(corpus, &both, &extra, retire8, LANE_REPS);
    metric("lane.gshare-sfpf-pgu.r8.ns_per_branch", ns, "ns");
    let gang: Vec<ModernSpec> = GANG12.iter().map(|s| spec(s)).collect();
    let ns = marginal_ns(corpus, &spec("gshare:13/13"), &gang, immediate(), LANE_REPS);
    metric("gang.lanes12.ns_per_lane_branch", ns, "ns");
}

/// BENCH_7 measured gshare at retire 0 on gzip's evaluation input; the
/// same lane on the same stream, for the record.
fn bench7_note(suite: Vec<SuiteEntry>) {
    let Some(gzip) = Corpus::only_predicated(suite, "gzip", EVAL_SEED) else {
        return;
    };
    let gshare = spec("gshare:13/13");
    let extra = vec![gshare.clone(); EXTRA_LANES];
    // one short stream: more repetitions than the 22-stream lanes
    let ns = marginal_ns(&gzip, &gshare, &extra, immediate(), 3 * LANE_REPS);
    println!("NOTE lane.gshare.gzip.ns_per_branch {ns}");
    println!(
        "NOTE bench7.gshare.gzip.ns_per_branch {}",
        1e9 / BENCH7_GSHARE_BRANCHES_PER_S
    );
}

fn characterize_layer(corpus: &Corpus) {
    let ctx = RunContext::new();
    let runs = corpus.runs();
    let mut events = 0;
    let secs = timed(REPS, |_| {
        events = 0;
        for cell in &runs {
            let mut sink = Characterizer::new();
            let summary =
                ctx.stream_events(&cell.cache_label, &cell.program, &cell.memory, &mut sink);
            events += events_of(&summary);
            black_box(sink.finish());
        }
    });
    metric("characterize.s", secs, "s");
    metric("characterize.events", events as f64, "count");
    metric("characterize.events_per_s", events as f64 / secs, "1/s");
}

fn checkpoint_layer(journal: &Path, work: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(journal)
        .map_err(|e| format!("cannot read journal {}: {e}", journal.display()))?;
    let mut entries: Vec<(String, u64, Json)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let entry = Json::parse(line).map_err(|e| format!("journal line: {e}"))?;
        if let (Some(key), Some(value)) = (entry.get("k").and_then(Json::as_str), entry.get("v")) {
            let ms = entry.get("ms").and_then(Json::as_u64).unwrap_or(0);
            entries.push((key.to_string(), ms, value.clone()));
        }
    }
    if entries.is_empty() {
        return Err(format!("journal {} holds no cells", journal.display()));
    }
    let count = entries.len() as f64;
    // content-addressed keys repeat across experiments; the journal
    // holds a line per cell, the loaded map one entry per key
    let distinct = entries
        .iter()
        .map(|(key, _, _)| key)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let path = |rep: usize| work.join(format!("layer-{rep}.ckpt"));
    let mut failure = None;
    let record_s = timed(REPS, |rep| {
        let _ = std::fs::remove_file(path(rep));
        let written = Checkpoint::open(path(rep)).and_then(|ckpt| {
            entries
                .iter()
                .try_for_each(|(key, ms, value)| ckpt.record(key, *ms, value))
        });
        if let Err(e) = written {
            failure = Some(format!("checkpoint record: {e}"));
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let written = path(REPS - 1);
    let open_s = timed(REPS, |_| match Checkpoint::open(&written) {
        Ok(ckpt) if ckpt.loaded() == distinct => {}
        Ok(ckpt) => failure = Some(format!("reopened {} of {distinct} keys", ckpt.loaded())),
        Err(e) => failure = Some(format!("checkpoint open: {e}")),
    });
    let ckpt = Checkpoint::open(&written).map_err(|e| format!("checkpoint open: {e}"))?;
    let lookup_s = timed(REPS, |_| {
        entries
            .iter()
            .filter(|(key, _, _)| ckpt.lookup(key).is_some())
            .count()
    });
    if let Some(e) = failure {
        return Err(e);
    }
    metric("checkpoint.cells", count, "count");
    metric("checkpoint.record_us", record_s * 1e6 / count, "us");
    metric("checkpoint.open_s", open_s, "s");
    metric("checkpoint.lookup_us", lookup_s * 1e6 / count, "us");
    let bytes = std::fs::metadata(&written).map(|m| m.len()).unwrap_or(0);
    metric("checkpoint.journal_bytes", bytes as f64, "bytes");
    for rep in 0..REPS {
        let _ = std::fs::remove_file(path(rep));
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    experiments_pass(args)?;

    let mut suite = Vec::new();
    let compile_s = timed(REPS, |_| suite = compiled_suite(None));
    metric("compile.suite_s", compile_s, "s");
    metric("compile.benchmarks", suite.len() as f64, "count");

    let corpus = Corpus::new(suite, args.input_seed);
    executor_layer(&corpus);
    trace_layer(&corpus, &args.work)?;
    lane_layer(&corpus);
    characterize_layer(&corpus);
    checkpoint_layer(&args.journal, &args.work)?;
    bench7_note(corpus.suite);
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweepbench-layers: {e}");
            ExitCode::FAILURE
        }
    }
}
