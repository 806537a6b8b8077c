//! Shared run machinery for the experiments.
//!
//! The central type is [`RunContext`]: an explicit, cloneable handle
//! threaded through every experiment module that owns the sweep's
//! worker pool, the optional on-disk trace cache, the optional
//! checkpoint journal, and the optional run manifest. It replaces the
//! old process-global `static TRACE_CACHE: Mutex<Option<TraceCache>>`,
//! which both serialized all access behind one poisoning lock (a
//! panicking experiment wedged every later run) and made parallel
//! sweeps impossible to reason about.
//!
//! Experiments decompose their grids into [`CellSpec`]s — one
//! (program, input, predictor spec, machine options) point each — and
//! call [`RunContext::run_cells`], which executes the cells on the
//! work-stealing pool and returns outcomes **in submission order**.
//! Because every cell is a pure function of its spec, aggregation over
//! that vector is byte-identical to the sequential loop it replaced, at
//! any `--jobs N`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use predbranch_core::{HarnessConfig, InsertFilter, PredictionHarness, PredictionMetrics, Timing};
use predbranch_isa::Program;
use predbranch_modern::{build_modern, ModernSpec};
use predbranch_sim::{Event, EventSink, Executor, Memory, RunSummary, EVENT_BATCH_CAPACITY};
use predbranch_sweep::{CellRecord, CellSource, Checkpoint, Json, ManifestBuilder, WorkerPool};
use predbranch_trace::{program_hash, CacheKey, ServeStats, TraceCache};
use predbranch_workloads::{
    compile_benchmark, suite, Benchmark, CompileOptions, CompiledBenchmark,
    DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED,
};

/// The machine's predicate resolve latency used throughout the study
/// (compare execute → first fetch that can observe the result) — the
/// single source of truth lives in `predbranch_sim`.
pub const DEFAULT_LATENCY: u64 = predbranch_sim::DEFAULT_RESOLVE_LATENCY;

/// The realistic PGU insertion delay: predicate bits become visible to
/// the history register one resolve latency after the defining compare.
pub const PGU_DELAY: u64 = 8;

/// Instruction budget for every experiment cell.
const CELL_BUDGET: u64 = 2 * DEFAULT_MAX_INSTRUCTIONS;

/// One shard of a deterministically partitioned sweep: this process
/// owns every gang unit whose stream digest satisfies
/// `digest % count == index`.
///
/// Partitioning is by *stream identity* — the same (cache label,
/// program, input, timing) tuple that gang replay groups by — so a
/// shard always owns whole gang units and each unit's single
/// decode/execution pass happens in exactly one process. Cells outside
/// the shard yield placeholder outcomes and are neither journaled nor
/// manifested; the per-shard journals and manifests are later stitched
/// together by `experiments merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, `0 ≤ index < count`.
    pub index: u32,
    /// Total number of shards the sweep is split across.
    pub count: u32,
}

impl Shard {
    /// Whether this shard owns the gang unit with `stream_digest`.
    pub fn owns(&self, stream_digest: u64) -> bool {
        stream_digest % u64::from(self.count) == u64::from(self.index)
    }
}

impl std::str::FromStr for Shard {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("bad shard `{s}` (expected i/N with 0 <= i < N)");
        let (index, count) = s.split_once('/').ok_or_else(err)?;
        let index: u32 = index.parse().map_err(|_| err())?;
        let count: u32 = count.parse().map_err(|_| err())?;
        if count == 0 || index >= count {
            return Err(err());
        }
        Ok(Shard { index, count })
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A benchmark plus its two compiled binaries and its evaluation
/// input, generated once.
#[derive(Debug)]
pub struct SuiteEntry {
    /// The benchmark descriptor (inputs, name).
    pub bench: Benchmark,
    /// Plain + predicated binaries and region metadata.
    pub compiled: CompiledBenchmark,
    /// The evaluation input image, shared by every cell over this entry.
    eval: Memory,
}

impl SuiteEntry {
    /// Pairs a benchmark with its compiled binaries and generates its
    /// evaluation input.
    pub fn new(bench: Benchmark, compiled: CompiledBenchmark) -> Self {
        let eval = bench.input(EVAL_SEED);
        SuiteEntry {
            bench,
            compiled,
            eval,
        }
    }

    /// The same benchmark and evaluation input over other binaries
    /// (recompilation experiments): the input image is shared, not
    /// regenerated.
    pub fn recompiled(&self, compiled: CompiledBenchmark) -> Self {
        SuiteEntry {
            bench: self.bench.clone(),
            compiled,
            eval: self.eval.clone(),
        }
    }

    /// The evaluation input (always a different seed than training): a
    /// clone sharing the entry's image and its memoized fingerprint.
    pub fn eval_input(&self) -> Memory {
        self.eval.clone()
    }
}

/// Compiles the whole suite (optionally only the first `limit`
/// benchmarks, for quick modes).
pub fn compiled_suite(limit: Option<usize>) -> Vec<SuiteEntry> {
    let opts = CompileOptions::default();
    suite()
        .into_iter()
        .take(limit.unwrap_or(usize::MAX))
        .map(|bench| {
            let compiled = compile_benchmark(&bench, &opts);
            SuiteEntry::new(bench, compiled)
        })
        .collect()
}

/// The result of one predictor × binary run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Prediction metrics by branch class.
    pub metrics: PredictionMetrics,
    /// Execution summary (instructions, branch counts, halted).
    pub summary: RunSummary,
}

impl RunOutcome {
    /// Overall conditional-branch misprediction rate, percent.
    pub fn misp_percent(&self) -> f64 {
        self.metrics.all.misp_rate().percent()
    }

    /// Region-branch misprediction rate, percent.
    pub fn region_misp_percent(&self) -> f64 {
        self.metrics.region.misp_rate().percent()
    }

    /// Mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        self.metrics.mpki(self.summary.instructions)
    }

    /// Dynamic taken branches of any kind (for taken-bubble accounting).
    pub fn taken_branches(&self) -> u64 {
        let unconditional = self.summary.branches - self.summary.conditional_branches;
        self.summary.taken_conditional + unconditional
    }

    /// Checks the counting invariants every executed cell satisfies, so
    /// an outcome restored from a journal can be refused before it
    /// reaches a table: the region and non-region classes partition
    /// `all` (branches and mispredictions alike), no class mispredicts
    /// more branches than it saw, `kfm ≤ kf ≤ all.branches`,
    /// `all.branches = summary.conditional ≤ summary.branches`, taken
    /// conditional branches are conditional branches, every predicate
    /// write reached the metrics (`pw = summary.pred_writes`), and the
    /// run halted. These also bound every difference the accessors
    /// take, so none of them can underflow.
    ///
    /// # Errors
    ///
    /// The first invariant that fails, in words.
    pub fn check(&self) -> Result<(), &'static str> {
        let m = &self.metrics;
        let s = &self.summary;
        let [all, region, non_region] =
            [&m.all, &m.region, &m.non_region].map(|c| (c.branches.get(), c.mispredictions.get()));
        let violated = if region.0.checked_add(non_region.0) != Some(all.0) {
            "region + non_region branches != all branches"
        } else if region.1.checked_add(non_region.1) != Some(all.1) {
            "region + non_region mispredictions != all mispredictions"
        } else if [all, region, non_region].iter().any(|&(b, mis)| mis > b) {
            "more mispredictions than branches"
        } else if m.known_false_mispredicted.get() > m.known_false_guard.get() {
            "kfm > kf"
        } else if m.known_false_guard.get() > all.0 {
            "kf > all branches"
        } else if all.0 != s.conditional_branches {
            "all branches != summary conditional branches"
        } else if s.conditional_branches > s.branches {
            "summary conditional branches > summary branches"
        } else if s.taken_conditional > s.conditional_branches {
            "summary taken conditional branches > summary conditional branches"
        } else if m.pred_writes.get() != s.pred_writes {
            "pw != summary pred_writes"
        } else if !s.halted {
            "the run did not halt"
        } else {
            return Ok(());
        };
        Err(violated)
    }
}

/// One point of an experiment grid: a binary, an input, a predictor
/// spec, and the machine options — everything that determines a
/// [`RunOutcome`]. Cells own their data (`'static`) so they can migrate
/// across worker threads.
///
/// The spec is a [`ModernSpec`]: classic paper-era configurations and
/// the modern tier (TAGE, multiperspective perceptron) share one cell
/// type. Constructors accept anything convertible — in particular a
/// `&PredictorSpec`, so classic experiments read unchanged — and
/// `ModernSpec`'s `Debug` is transparent for classic specs, keeping
/// every pre-existing checkpoint/cache key stable.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Manifest/checkpoint display label, e.g. `f3/gzip/+PGU`.
    pub label: String,
    /// Trace-cache file label — shared by every cell over the same
    /// (binary, input) so the cache stores one trace per execution, not
    /// one per predictor config. Typically `"<bench>-<variant>"`.
    pub cache_label: String,
    /// The compiled binary to run.
    pub program: Program,
    /// The input image.
    pub memory: Memory,
    /// Predictor configuration.
    pub spec: ModernSpec,
    /// Update-timing knobs (resolve and retire latencies).
    pub timing: Timing,
    /// Which predicate definitions reach the predictor.
    pub insert: InsertFilter,
}

impl CellSpec {
    /// A cell over a suite entry's *predicated* binary and its
    /// evaluation input.
    pub fn predicated(
        entry: &SuiteEntry,
        label: impl Into<String>,
        spec: impl Into<ModernSpec>,
        timing: Timing,
        insert: InsertFilter,
    ) -> Self {
        CellSpec {
            label: label.into(),
            cache_label: format!("{}-pred", entry.compiled.name),
            program: entry.compiled.predicated.clone(),
            memory: entry.eval_input(),
            spec: spec.into(),
            timing,
            insert,
        }
    }

    /// A cell over a suite entry's *plain* binary and its evaluation
    /// input.
    pub fn plain(
        entry: &SuiteEntry,
        label: impl Into<String>,
        spec: impl Into<ModernSpec>,
        timing: Timing,
        insert: InsertFilter,
    ) -> Self {
        CellSpec {
            label: label.into(),
            cache_label: format!("{}-plain", entry.compiled.name),
            program: entry.compiled.plain.clone(),
            memory: entry.eval_input(),
            spec: spec.into(),
            timing,
            insert,
        }
    }

    /// A cell over the predicated binary with a non-default input seed
    /// (seed-stability experiments).
    pub fn seeded(
        entry: &SuiteEntry,
        label: impl Into<String>,
        seed: u64,
        spec: impl Into<ModernSpec>,
        timing: Timing,
        insert: InsertFilter,
    ) -> Self {
        CellSpec {
            label: label.into(),
            cache_label: format!("{}-pred-{seed:x}", entry.compiled.name),
            program: entry.compiled.predicated.clone(),
            memory: entry.bench.input(seed),
            spec: spec.into(),
            timing,
            insert,
        }
    }

    /// The cell's stable, content-addressed checkpoint key: a digest of
    /// the program encoding, input image, budget, machine options, and
    /// predictor spec. Equal keys ⇒ equal outcomes, so a resumed sweep
    /// may trust a checkpointed result with this key no matter which
    /// experiment, process, or `--jobs` level produced it.
    pub fn key(&self) -> String {
        self.key_with(program_hash(&self.program))
    }

    /// [`key`](Self::key) given the program's [`program_hash`], for
    /// callers that need that hash for grouping too.
    fn key_with(&self, program_digest: u64) -> String {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                digest ^= u64::from(b);
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(&program_digest.to_le_bytes());
        mix(&self.memory.fingerprint().to_le_bytes());
        mix(&CELL_BUDGET.to_le_bytes());
        mix(&self.timing.resolve_latency.to_le_bytes());
        mix(&self.timing.retire_latency.to_le_bytes());
        mix(format!("{:?}", self.spec).as_bytes());
        match &self.insert {
            InsertFilter::All => mix(b"insert:all"),
            InsertFilter::None => mix(b"insert:none"),
            InsertFilter::Pcs(pcs) => {
                mix(b"insert:pcs");
                let mut sorted: Vec<u32> = pcs.iter().copied().collect();
                sorted.sort_unstable();
                for pc in sorted {
                    mix(&pc.to_le_bytes());
                }
            }
        }
        format!("v2-{digest:016x}")
    }

    /// The harness configuration this cell's lane runs under.
    fn harness_config(&self) -> HarnessConfig {
        HarnessConfig {
            timing: self.timing,
            insert: self.insert.clone(),
        }
    }
}

/// A cell waiting for its gang unit, with its position in the submitted
/// grid and its checkpoint key.
#[derive(Debug)]
struct PendingCell {
    index: usize,
    key: String,
    cell: CellSpec,
}

/// Sweep-level counters (all monotone, all thread-safe).
#[derive(Debug, Default)]
struct RunCounters {
    /// Trace-cache replays.
    replays: AtomicU64,
    /// Trace-cache recordings (cold executions through the cache).
    recordings: AtomicU64,
    /// Cells restored from the checkpoint journal without running.
    checkpoint_hits: AtomicU64,
    /// Cells executed live (no cache attached).
    live_runs: AtomicU64,
    /// Cells outside this process's shard, skipped with placeholders.
    shard_skips: AtomicU64,
}

/// A snapshot of [`RunContext`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Trace-cache replays.
    pub replays: u64,
    /// Trace-cache recordings.
    pub recordings: u64,
    /// Cells restored from the checkpoint journal.
    pub checkpoint_hits: u64,
    /// Cells executed live (no cache attached).
    pub live_runs: u64,
    /// Cells outside this process's shard (placeholder outcomes).
    pub shard_skips: u64,
}

/// Compiled-suite memo: one shared suite per `limit` value.
type SuiteMemo = Vec<(Option<usize>, Arc<Vec<SuiteEntry>>)>;

/// The sweep's execution context: worker pool, trace cache, checkpoint
/// journal, and manifest recorder, threaded explicitly through every
/// experiment. Cloning is cheap (shared handles) and clones observe the
/// same counters — workers receive a clone each, which is how every
/// worker gets its own [`TraceCache`] handle without a global lock.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    pool: Option<Arc<WorkerPool>>,
    cache: Option<TraceCache>,
    checkpoint: Option<Arc<Checkpoint>>,
    manifest: Option<Arc<ManifestBuilder>>,
    counters: Arc<RunCounters>,
    suites: Arc<Mutex<SuiteMemo>>,
    shard: Option<Shard>,
}

impl RunContext {
    /// A sequential context with no cache, checkpoint, or manifest —
    /// the exact behavior of the pre-sweep harness.
    pub fn new() -> Self {
        RunContext::default()
    }

    /// Executes cells on `jobs` concurrent lanes (1 = sequential,
    /// spawning no threads; `n ≥ 2` spawns `n - 1` workers and the
    /// submitting thread helps).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.pool = if jobs >= 2 {
            Some(Arc::new(WorkerPool::new(jobs)))
        } else {
            None
        };
        self
    }

    /// Routes every cell through an on-disk trace cache rooted at `dir`
    /// (creating it if needed): each distinct (binary, input, budget)
    /// is executed through the functional simulator at most once per
    /// cache lifetime, and every further predictor run replays the
    /// recorded event stream. Keys are content-addressed
    /// ([`CacheKey::for_run`]), so results are numerically identical to
    /// live simulation.
    pub fn with_trace_cache(mut self, dir: impl AsRef<Path>) -> std::io::Result<Self> {
        self.cache = Some(TraceCache::open(dir.as_ref())?);
        Ok(self)
    }

    /// Restricts execution to one shard of a deterministically
    /// partitioned sweep: gang units whose stream digest falls outside
    /// `shard` are skipped with placeholder outcomes (never journaled,
    /// never manifested). Aggregate artifacts computed from a sharded
    /// context are therefore meaningless — the journal is the product.
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The configured shard, when this context is one of a fleet.
    pub fn shard(&self) -> Option<Shard> {
        self.shard
    }

    /// Journals every completed cell to `path` and, on reopen, restores
    /// completed cells instead of re-running them — interrupted sweeps
    /// resume from where they died.
    ///
    /// # Errors
    ///
    /// Besides the journal's own I/O and parse errors,
    /// [`std::io::ErrorKind::InvalidData`] naming the line and cell key
    /// of the first entry that is not a run outcome or breaks its
    /// counting invariants ([`RunOutcome::check`]): an edited or
    /// corrupted result is refused, never restored into a table.
    pub fn with_checkpoint(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let checkpoint = Checkpoint::open(path.as_ref().to_path_buf())?;
        checkpoint.validate(|payload| {
            outcome_from_json(payload)
                .ok_or("not a run outcome")?
                .check()
        })?;
        self.checkpoint = Some(Arc::new(checkpoint));
        Ok(self)
    }

    /// Records every cell (label, key, source, wall-clock) into
    /// `manifest` for the final run record.
    pub fn with_manifest(mut self, manifest: ManifestBuilder) -> Self {
        self.manifest = Some(Arc::new(manifest));
        self
    }

    /// The configured parallelism.
    pub fn jobs(&self) -> usize {
        self.pool.as_ref().map_or(1, |pool| pool.jobs())
    }

    /// Whether a trace cache is attached.
    pub fn has_trace_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// The manifest recorder, when one is attached.
    pub fn manifest(&self) -> Option<&ManifestBuilder> {
        self.manifest.as_deref()
    }

    /// How many completed cells the checkpoint journal held when it was
    /// opened (`None` without a checkpoint).
    pub fn checkpoint_loaded(&self) -> Option<usize> {
        self.checkpoint.as_ref().map(|c| c.loaded())
    }

    /// Appends a keyless provenance note to the attached checkpoint
    /// journal (shard identity, command line). A no-op without one.
    pub fn checkpoint_note(&self, payload: &Json) -> std::io::Result<()> {
        match &self.checkpoint {
            Some(checkpoint) => checkpoint.note(payload),
            None => Ok(()),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RunStats {
        RunStats {
            replays: self.counters.replays.load(Ordering::Relaxed),
            recordings: self.counters.recordings.load(Ordering::Relaxed),
            checkpoint_hits: self.counters.checkpoint_hits.load(Ordering::Relaxed),
            live_runs: self.counters.live_runs.load(Ordering::Relaxed),
            shard_skips: self.counters.shard_skips.load(Ordering::Relaxed),
        }
    }

    /// (replays, recordings) against the trace cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        let stats = self.stats();
        (stats.replays, stats.recordings)
    }

    /// Which serving path the attached trace cache's replays took
    /// (`None` without one): sidecar-served replays, sidecars built and
    /// sidecars rejected. A replay not served from a sidecar was
    /// decoded from its `.pbt`.
    pub fn serve_stats(&self) -> Option<ServeStats> {
        self.cache.as_ref().map(TraceCache::serve_stats)
    }

    /// The compiled suite, memoized per `limit` so a multi-experiment
    /// sweep compiles each benchmark once instead of once per
    /// experiment.
    pub fn suite(&self, limit: Option<usize>) -> Arc<Vec<SuiteEntry>> {
        let mut suites = self
            .suites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, entries)) = suites.iter().find(|(l, _)| *l == limit) {
            return Arc::clone(entries);
        }
        let entries = Arc::new(compiled_suite(limit));
        suites.push((limit, Arc::clone(&entries)));
        entries
    }

    /// The digest sharding partitions on: the same stream identity gang
    /// replay groups by — (cache label, program content, input content,
    /// timing) — so every shard owns whole gang units.
    fn stream_digest(
        cache_label: &str,
        program_digest: u64,
        memory_digest: u64,
        timing: Timing,
    ) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                digest ^= u64::from(b);
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(cache_label.as_bytes());
        mix(&program_digest.to_le_bytes());
        mix(&memory_digest.to_le_bytes());
        mix(&timing.resolve_latency.to_le_bytes());
        mix(&timing.retire_latency.to_le_bytes());
        digest
    }

    /// The outcome a sharded context returns for cells it does not own:
    /// empty metrics, an empty-but-halted summary. Recognizably inert,
    /// and excluded from journals and manifests so the merge step sees
    /// each cell exactly once.
    fn shard_placeholder(&self) -> RunOutcome {
        self.counters.shard_skips.fetch_add(1, Ordering::Relaxed);
        RunOutcome {
            metrics: PredictionMetrics::default(),
            summary: RunSummary {
                halted: true,
                ..RunSummary::default()
            },
        }
    }

    /// Runs a grid of cells, in parallel when a pool is attached, and
    /// returns outcomes **in submission order**, at any worker count.
    /// This is the one way cells run; a lone cell is simply a grid of
    /// one.
    ///
    /// Each cell is first looked up in the checkpoint journal. The rest
    /// are grouped into *gang units* by (event stream, timing): each
    /// unit replays or executes its stream **once**, feeding every
    /// member cell as an independent lane of one [`PredictionHarness`],
    /// and the scheduling unit on the worker pool is the gang unit, not
    /// the cell. Lanes share only the unit's predicate scoreboard, so a
    /// cell's outcome does not depend on which other cells were
    /// submitted with it. In a sharded context, units outside the shard
    /// yield placeholder outcomes (after the checkpoint lookup, so a
    /// finalize pass over a merged journal restores every cell).
    ///
    /// # Panics
    ///
    /// Panics if a program fails to halt within the suite instruction
    /// budget (suite programs always halt; a hang is a harness bug).
    pub fn run_cells(&self, cells: Vec<CellSpec>) -> Vec<RunOutcome> {
        let mut slots: Vec<Option<RunOutcome>> = vec![None; cells.len()];

        // Each cell's key is computed once, here, and serves the
        // checkpoint lookup, the journal record and the manifest. The
        // input's fingerprint is memoized in its shared image, so cells
        // over one input hash it once between them. Checkpoint restores
        // stay per-cell: a resumed sweep skips exactly the cells it
        // completed, and a unit re-runs only its missing lanes.
        //
        // The rest are grouped by (stream identity, timing) in
        // first-appearance order. The content hashes — not just the
        // cache label — define the stream, so two cells gang only if
        // they replay byte-identical events; timing joins the key
        // because a unit's lanes share one scoreboard, which needs a
        // common resolve latency.
        let mut units: Vec<Vec<PendingCell>> = Vec::new();
        let mut by_stream: HashMap<(String, u64, u64, Timing), usize> = HashMap::new();
        for (index, cell) in cells.into_iter().enumerate() {
            let program_digest = program_hash(&cell.program);
            let key = cell.key_with(program_digest);
            if let Some(checkpoint) = &self.checkpoint {
                if let Some(outcome) = checkpoint.lookup(&key).and_then(outcome_from_json) {
                    self.counters
                        .checkpoint_hits
                        .fetch_add(1, Ordering::Relaxed);
                    self.record_manifest(&cell, &key, 0, CellSource::Checkpoint);
                    slots[index] = Some(outcome);
                    continue;
                }
            }
            let stream = (
                cell.cache_label.clone(),
                program_digest,
                cell.memory.fingerprint(),
                cell.timing,
            );
            if let Some(shard) = self.shard {
                if !shard.owns(Self::stream_digest(&stream.0, stream.1, stream.2, stream.3)) {
                    slots[index] = Some(self.shard_placeholder());
                    continue;
                }
            }
            let pending = PendingCell { index, key, cell };
            match by_stream.entry(stream) {
                Entry::Occupied(slot) => units[*slot.get()].push(pending),
                Entry::Vacant(slot) => {
                    slot.insert(units.len());
                    units.push(vec![pending]);
                }
            }
        }

        let unit_outcomes: Vec<Vec<(usize, RunOutcome)>> = match &self.pool {
            Some(pool) if units.len() > 1 => {
                let jobs = units
                    .into_iter()
                    .map(|unit| {
                        let ctx = self.clone();
                        let job: Box<dyn FnOnce() -> Vec<(usize, RunOutcome)> + Send> =
                            Box::new(move || ctx.run_gang_unit(&unit));
                        job
                    })
                    .collect();
                pool.run_batch(jobs)
            }
            _ => units.iter().map(|unit| self.run_gang_unit(unit)).collect(),
        };
        for (index, outcome) in unit_outcomes.into_iter().flatten() {
            slots[index] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every submitted cell resolves to an outcome"))
            .collect()
    }

    /// Runs one gang unit — cells sharing a (stream, timing) — as the
    /// lanes of one harness driven by a single replay/execution pass,
    /// then journals and records each member under its own per-cell
    /// key.
    fn run_gang_unit(&self, unit: &[PendingCell]) -> Vec<(usize, RunOutcome)> {
        let started = Instant::now();
        let lead = &unit[0].cell;
        let mut harness = PredictionHarness::new(build_modern(&lead.spec), lead.harness_config());
        for PendingCell { cell, .. } in &unit[1..] {
            harness.push_lane(build_modern(&cell.spec), cell.harness_config());
        }
        let (summary, source) =
            self.deliver(&lead.cache_label, &lead.program, &lead.memory, &mut harness);
        let wall_ms = started.elapsed().as_millis() as u64;
        unit.iter()
            .zip(harness.into_metrics())
            .map(|(PendingCell { index, key, cell }, metrics)| {
                let outcome = RunOutcome { metrics, summary };
                if let Some(checkpoint) = &self.checkpoint {
                    if let Err(e) = checkpoint.record(key, wall_ms, &outcome_to_json(&outcome)) {
                        eprintln!(
                            "warning: checkpoint append failed for {} ({e}); cell will re-run on resume",
                            cell.label
                        );
                    }
                }
                self.record_manifest(cell, key, wall_ms, source);
                (*index, outcome)
            })
            .collect()
    }

    /// Runs arbitrary owned jobs on the pool (sequentially without
    /// one), results in submission order. For experiment work that is
    /// not a predictor cell — custom sinks, recompilation sweeps —
    /// which wants the same determinism-under-parallelism contract but
    /// no caching or checkpointing.
    pub fn map_batch<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        match &self.pool {
            Some(pool) => pool.run_batch(jobs),
            None => jobs.into_iter().map(|job| job()).collect(),
        }
    }

    /// Streams one execution's decoded event stream into an arbitrary
    /// [`EventSink`] at the standard cell budget — through the trace
    /// cache when one is attached (recording on first touch, replaying
    /// after), live otherwise. Events arrive in
    /// [`EVENT_BATCH_CAPACITY`]-sized batches on both paths, so custom
    /// analyses (characterization, attribution) see the identical
    /// sequence a predictor cell would, from at most one decode.
    ///
    /// # Panics
    ///
    /// Panics if the program fails to halt within the suite instruction
    /// budget, or on trace-cache I/O failure.
    pub fn stream_events<S: EventSink>(
        &self,
        cache_label: &str,
        program: &Program,
        memory: &Memory,
        sink: &mut S,
    ) -> RunSummary {
        self.deliver(cache_label, program, memory, sink).0
    }

    /// The one stream-delivery primitive every run path shares: one
    /// decode/execution pass over (program, memory) at the cell budget,
    /// through the trace cache when attached (recording on first touch)
    /// and the live batched executor otherwise. Exactly one pass
    /// counter — replays, recordings, or live_runs — moves per call, so
    /// the counters report *passes*, which the gang path amortizes
    /// across its lanes.
    ///
    /// # Panics
    ///
    /// Panics if the program fails to halt within the budget, or on
    /// trace-cache I/O failure.
    fn deliver<S: EventSink>(
        &self,
        cache_label: &str,
        program: &Program,
        memory: &Memory,
        sink: &mut S,
    ) -> (RunSummary, CellSource) {
        let (summary, source) = match &self.cache {
            Some(cache) => {
                let key = CacheKey::for_run(cache_label, program, memory, CELL_BUDGET);
                let (summary, hit) = cache
                    .replay_or_record(&key, program, memory.clone(), CELL_BUDGET, sink)
                    .expect("trace cache I/O failed");
                if hit {
                    self.counters.replays.fetch_add(1, Ordering::Relaxed);
                    (summary, CellSource::Replayed)
                } else {
                    self.counters.recordings.fetch_add(1, Ordering::Relaxed);
                    (summary, CellSource::Recorded)
                }
            }
            None => {
                self.counters.live_runs.fetch_add(1, Ordering::Relaxed);
                let mut buffer: Vec<Event> = Vec::with_capacity(EVENT_BATCH_CAPACITY);
                let summary = Executor::new(program, memory.clone()).run_batched(
                    sink,
                    CELL_BUDGET,
                    &mut buffer,
                );
                (summary, CellSource::Live)
            }
        };
        assert!(summary.halted, "experiment program did not halt");
        (summary, source)
    }

    fn record_manifest(&self, cell: &CellSpec, key: &str, wall_ms: u64, source: CellSource) {
        if let Some(manifest) = &self.manifest {
            manifest.record_cell(CellRecord {
                key: key.to_string(),
                label: cell.label.clone(),
                wall_ms,
                source,
            });
        }
    }
}

fn counts_json(counts: &predbranch_core::ClassCounts) -> Json {
    Json::Arr(vec![
        Json::from(counts.branches.get()),
        Json::from(counts.mispredictions.get()),
    ])
}

fn counts_from_json(json: &Json) -> Option<predbranch_core::ClassCounts> {
    let items = json.as_arr()?;
    match items {
        [branches, mispredictions] => Some(predbranch_core::ClassCounts {
            branches: predbranch_stats::Counter::with_value(branches.as_u64()?),
            mispredictions: predbranch_stats::Counter::with_value(mispredictions.as_u64()?),
        }),
        _ => None,
    }
}

/// Serializes an outcome for the checkpoint journal. All counts are far
/// below 2^53, so the JSON number representation is exact.
pub fn outcome_to_json(outcome: &RunOutcome) -> Json {
    let m = &outcome.metrics;
    let s = &outcome.summary;
    Json::obj()
        .field(
            "metrics",
            Json::obj()
                .field("all", counts_json(&m.all))
                .field("region", counts_json(&m.region))
                .field("non_region", counts_json(&m.non_region))
                .field("kf", m.known_false_guard.get())
                .field("kfm", m.known_false_mispredicted.get())
                .field("pw", m.pred_writes.get()),
        )
        .field(
            "summary",
            Json::obj()
                .field("instructions", s.instructions)
                .field("branches", s.branches)
                .field("conditional", s.conditional_branches)
                .field("region", s.region_branches)
                .field("taken_cond", s.taken_conditional)
                .field("pred_writes", s.pred_writes)
                .field("halted", s.halted),
        )
}

/// Restores an outcome from its journal form; `None` on any shape
/// mismatch (the cell then simply re-runs).
pub fn outcome_from_json(json: &Json) -> Option<RunOutcome> {
    let m = json.get("metrics")?;
    let s = json.get("summary")?;
    let counter = |j: &Json, key: &str| -> Option<predbranch_stats::Counter> {
        Some(predbranch_stats::Counter::with_value(j.get(key)?.as_u64()?))
    };
    let metrics = PredictionMetrics {
        all: counts_from_json(m.get("all")?)?,
        region: counts_from_json(m.get("region")?)?,
        non_region: counts_from_json(m.get("non_region")?)?,
        known_false_guard: counter(m, "kf")?,
        known_false_mispredicted: counter(m, "kfm")?,
        pred_writes: counter(m, "pw")?,
    };
    let summary = RunSummary {
        instructions: s.get("instructions")?.as_u64()?,
        branches: s.get("branches")?.as_u64()?,
        conditional_branches: s.get("conditional")?.as_u64()?,
        region_branches: s.get("region")?.as_u64()?,
        taken_conditional: s.get("taken_cond")?.as_u64()?,
        pred_writes: s.get("pred_writes")?.as_u64()?,
        halted: matches!(s.get("halted"), Some(Json::Bool(true))),
    };
    Some(RunOutcome { metrics, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_core::PredictorSpec;

    #[test]
    fn compiled_suite_limit() {
        let entries = compiled_suite(Some(2));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].bench.name(), entries[0].compiled.name);
    }

    #[test]
    fn run_outcome_accessors_consistent() {
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let cell = CellSpec::predicated(
            &entries[0],
            "test/static",
            &PredictorSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        let [out] = ctx.run_cells(vec![cell])[..] else {
            unreachable!("one cell in, one outcome out")
        };
        assert!(out.summary.halted);
        assert!(out.misp_percent() >= 0.0);
        assert!(out.taken_branches() <= out.summary.branches);
        assert!(out.mpki() >= 0.0);
        assert_eq!(ctx.stats().live_runs, 1);
    }

    #[test]
    fn suite_is_memoized_per_limit() {
        let ctx = RunContext::new();
        let a = ctx.suite(Some(1));
        let b = ctx.suite(Some(1));
        assert!(Arc::ptr_eq(&a, &b));
        let c = ctx.suite(Some(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cell_keys_are_stable_and_discriminating() {
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let base = CellSpec::predicated(
            &entries[0],
            "a",
            &PredictorSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        // the label is cosmetic: same content, same key
        let relabeled = CellSpec {
            label: "b".into(),
            ..base.clone()
        };
        assert_eq!(base.key(), relabeled.key());
        // but every content knob separates
        let other_spec = CellSpec {
            spec: PredictorSpec::StaticBtfn.into(),
            ..base.clone()
        };
        assert_ne!(base.key(), other_spec.key());
        let modern_spec = CellSpec {
            spec: "tage:4/10/64".parse::<ModernSpec>().unwrap(),
            ..base.clone()
        };
        assert_ne!(base.key(), modern_spec.key());
        let other_latency = CellSpec {
            timing: Timing::immediate(DEFAULT_LATENCY + 1),
            ..base.clone()
        };
        assert_ne!(base.key(), other_latency.key());
        let other_retire = CellSpec {
            timing: Timing::new(DEFAULT_LATENCY, 4),
            ..base.clone()
        };
        assert_ne!(base.key(), other_retire.key());
        let other_insert = CellSpec {
            insert: InsertFilter::None,
            ..base.clone()
        };
        assert_ne!(base.key(), other_insert.key());
        let plain = CellSpec::plain(
            &entries[0],
            "a",
            &PredictorSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        assert_ne!(base.key(), plain.key());
    }

    #[test]
    fn outcome_check_refuses_each_broken_invariant() {
        use predbranch_stats::Counter;
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let cell = CellSpec::predicated(
            &entries[0],
            "test/check",
            PredictorSpec::Gshare {
                index_bits: 10,
                history_bits: 10,
            }
            .with_sfpf(),
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        let [good] = ctx.run_cells(vec![cell])[..] else {
            unreachable!("one cell in, one outcome out")
        };
        assert_eq!(good.check(), Ok(()));
        assert!(good.metrics.region.mispredictions.get() > 0);
        assert!(good.metrics.known_false_guard.get() > 0);

        type Edit = fn(&mut RunOutcome);
        let broken: [(&str, Edit); 10] = [
            ("region + non_region branches", |o| {
                o.metrics.region.branches = Counter::with_value(0)
            }),
            ("region + non_region mispredictions", |o| {
                let all = o.metrics.all.mispredictions.get();
                o.metrics.all.mispredictions = Counter::with_value(all / 4);
            }),
            ("more mispredictions than branches", |o| {
                let region = o.metrics.region;
                let extra = region.branches.get() - region.mispredictions.get() + 1;
                o.metrics.region.mispredictions = Counter::with_value(region.branches.get() + 1);
                let all = o.metrics.all.mispredictions.get();
                o.metrics.all.mispredictions = Counter::with_value(all + extra);
            }),
            ("kfm > kf", |o| {
                o.metrics.known_false_mispredicted =
                    Counter::with_value(o.metrics.known_false_guard.get() + 1)
            }),
            ("kf > all branches", |o| {
                o.metrics.known_false_guard = Counter::with_value(o.metrics.all.branches.get() + 1)
            }),
            ("all branches != summary conditional", |o| {
                o.summary.conditional_branches += 1
            }),
            ("summary conditional branches > summary branches", |o| {
                o.summary.branches = o.summary.conditional_branches - 1
            }),
            ("taken conditional", |o| {
                o.summary.taken_conditional = o.summary.conditional_branches + 1
            }),
            ("pw != summary pred_writes", |o| o.summary.pred_writes += 1),
            ("did not halt", |o| o.summary.halted = false),
        ];
        for (why, edit) in broken {
            let mut outcome = good;
            edit(&mut outcome);
            let refused = outcome.check().expect_err(why);
            assert!(refused.contains(why), "{why}: got {refused}");
        }
    }

    #[test]
    fn outcome_json_roundtrips_exactly() {
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let cell = CellSpec::predicated(
            &entries[0],
            "test/roundtrip",
            &PredictorSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        let [out] = ctx.run_cells(vec![cell])[..] else {
            unreachable!("one cell in, one outcome out")
        };
        let json = outcome_to_json(&out);
        let parsed = Json::parse(&json.render()).unwrap();
        assert_eq!(outcome_from_json(&parsed), Some(out));
        assert_eq!(outcome_from_json(&Json::Null), None);
        assert_eq!(outcome_from_json(&Json::obj()), None);
    }
}
