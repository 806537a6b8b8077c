//! `experiments bench` — the machine-readable trace-serving
//! throughput report.
//!
//! It measures **trace serving** — the zero-copy `.pbtd` path. A sweep
//! whose stream count exceeds the decoded memo's capacity thrashes it:
//! with sidecars disabled every replay pays a full varint decode plus
//! checksum pass (the *cold-memo* case the memo was never sized for).
//! The bench records [`SERVE_STREAMS`] distinct streams into an on-disk
//! [`TraceCache`] (more than [`DECODED_MEMO_CAPACITY`] slots), replays
//! the whole matrix round-robin under both serving modes, asserts the
//! per-stream metrics identical, and reports the segment-over-decode
//! speedup. The result is written as `BENCH_7.json`.

use std::time::Instant;

use predbranch_core::{
    build_predictor, HarnessConfig, InsertFilter, PredictionHarness, PredictorSpec, Timing,
};
use predbranch_sim::TraceSink;
use predbranch_sweep::Json;
use predbranch_trace::{CacheKey, TraceCache, DECODED_MEMO_CAPACITY};
use predbranch_workloads::{compile_benchmark, suite, Benchmark, CompileOptions, EVAL_SEED};

use crate::runner::DEFAULT_LATENCY;

/// Schema tag of the JSON report.
const SCHEMA: &str = "predbranch-bench/v4";

/// Instruction budget for every recorded stream.
const BENCH_BUDGET: u64 = 4_000_000;

/// Streams in the trace-serving matrix. Deliberately larger than
/// [`DECODED_MEMO_CAPACITY`] so the decode-per-replay baseline runs
/// cold: a round-robin pass over more streams than memo slots evicts
/// every entry before its next use.
pub const SERVE_STREAMS: usize = 12;

// the cold-memo claim only means something if a round-robin pass
// genuinely cannot fit: every replay must miss
const _: () = assert!(SERVE_STREAMS > DECODED_MEMO_CAPACITY);

/// The measured trace-serving point: a stream matrix larger than the
/// decoded memo, replayed round-robin through the same on-disk
/// [`TraceCache`] under decode-per-replay (sidecars disabled, memo
/// thrashing) and segment-served (zero-copy `.pbtd` maps) modes.
#[derive(Debug, Clone, Copy)]
pub struct ServePoint {
    /// Distinct recorded streams in the matrix.
    pub streams: usize,
    /// Decoded-memo capacity the cold baseline thrashes.
    pub memo_streams: usize,
    /// Events summed over the recorded matrix.
    pub events: u64,
    /// Conditional branches per second replaying the matrix with
    /// sidecars disabled — full varint decode on every replay.
    pub decode_branches_per_sec: f64,
    /// The same replays served zero-copy from mapped segments.
    pub segment_branches_per_sec: f64,
    /// Conditional-branch mispredictions summed over the matrix
    /// (asserted identical on both paths).
    pub mispredictions: u64,
}

impl ServePoint {
    /// segment-served over decode-per-replay throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.segment_branches_per_sec / self.decode_branches_per_sec
    }
}

/// A complete report: the measured stream's benchmark plus the
/// trace-serving point.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark the event streams were recorded from.
    pub benchmark: String,
    /// Whether the quick (fewer iterations) mode was used.
    pub quick: bool,
    /// Timed iterations per serving mode.
    pub iterations: u32,
    /// The cold-memo trace-serving measurement.
    pub serving: ServePoint,
}

/// Times `iterations` runs of `f`, returning the last run's result
/// and the *minimum* per-run elapsed seconds — scheduler noise and
/// cache pollution only ever add time, so the minimum is the robust
/// throughput estimator on a shared machine. One untimed warmup run
/// precedes the timed loop.
fn time_passes<T, F: FnMut() -> T>(iterations: u32, mut f: F) -> (T, f64) {
    let mut result = f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let start = Instant::now();
        result = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (result, best)
}

/// Measures trace serving on the cold-memo case: [`SERVE_STREAMS`]
/// distinct streams (more than the memo holds) recorded into an
/// on-disk cache, then the whole matrix replayed round-robin through a
/// light harness with sidecars disabled (every replay decodes) and
/// again segment-served (every replay reads the mapped `.pbtd`).
///
/// # Panics
///
/// Panics if the two serving modes disagree on any stream's metrics,
/// if the decode baseline was not actually cold (a memo hit), or if
/// the segment path fell back to decoding.
fn run_serving_matrix(bench: &Benchmark, iterations: u32) -> ServePoint {
    let compiled = compile_benchmark(bench, &CompileOptions::default());
    let program = compiled.predicated;
    let streams = SERVE_STREAMS;
    let memo_streams = DECODED_MEMO_CAPACITY;
    let spec = PredictorSpec::Gshare {
        index_bits: 10,
        history_bits: 10,
    };

    let dir = std::env::temp_dir().join(format!("predbranch-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Record each stream once — distinct seeds, distinct labels. The
    // recorder has segments enabled, so sidecars publish at record
    // time, exactly as a sweep's first pass leaves the cache.
    let recorder = TraceCache::open(&dir).expect("trace cache dir");
    let inputs: Vec<_> = (0..streams)
        .map(|i| bench.input(EVAL_SEED + 1 + i as u64))
        .collect();
    let keys: Vec<CacheKey> = inputs
        .iter()
        .enumerate()
        .map(|(i, memory)| {
            CacheKey::for_run(format!("serve/{i:02}"), &program, memory, BENCH_BUDGET)
        })
        .collect();
    let mut events = 0u64;
    let mut branches = 0u64;
    for (key, memory) in keys.iter().zip(&inputs) {
        let mut sink = TraceSink::new();
        let (summary, replayed) = recorder
            .replay_or_record(key, &program, memory.clone(), BENCH_BUDGET, &mut sink)
            .expect("stream records");
        assert!(!replayed, "serve matrix stream was already cached");
        assert!(summary.halted, "bench workload did not halt within budget");
        events += sink.events().len() as u64;
        branches += summary.conditional_branches;
    }
    assert_eq!(
        recorder.serve_stats().segment_builds,
        streams as u64,
        "every recorded stream publishes a sidecar"
    );

    let pass = |cache: &TraceCache| -> Vec<predbranch_core::PredictionMetrics> {
        keys.iter()
            .zip(&inputs)
            .map(|(key, memory)| {
                let config = HarnessConfig {
                    timing: Timing::immediate(DEFAULT_LATENCY),
                    insert: InsertFilter::All,
                };
                let mut harness = PredictionHarness::new(build_predictor(&spec), config);
                let (summary, replayed) = cache
                    .replay_or_record(key, &program, memory.clone(), BENCH_BUDGET, &mut harness)
                    .expect("stream replays");
                assert!(replayed && summary.halted);
                harness.finish();
                *harness.metrics()
            })
            .collect()
    };

    // Path A: the v1 decode pipeline with the memo thrashing — every
    // replay decodes. Path B: segment-served zero-copy replay.
    let decode_cache = TraceCache::open(&dir)
        .expect("trace cache dir")
        .with_segments(false)
        .with_memo_capacity(memo_streams);
    let segment_cache = TraceCache::open(&dir)
        .expect("trace cache dir")
        .with_memo_capacity(memo_streams);

    let (decode_metrics, decode_secs) = time_passes(iterations, || pass(&decode_cache));
    let (segment_metrics, segment_secs) = time_passes(iterations, || pass(&segment_cache));
    assert_eq!(
        decode_metrics, segment_metrics,
        "segment-served and decode-per-replay metrics disagree"
    );
    let memo = decode_cache.memo_stats();
    assert_eq!(
        memo.hits, 0,
        "decode baseline was not cold: round-robin over {streams} streams \
         hit a {memo_streams}-slot memo"
    );
    let serve = segment_cache.serve_stats();
    assert!(
        serve.segment_replays >= (streams as u64) * u64::from(iterations),
        "segment path fell back to decoding: {} replays served",
        serve.segment_replays
    );
    let _ = std::fs::remove_dir_all(&dir);

    let total = branches as f64;
    ServePoint {
        streams,
        memo_streams,
        events,
        decode_branches_per_sec: total / decode_secs,
        segment_branches_per_sec: total / segment_secs,
        mispredictions: decode_metrics
            .iter()
            .map(|m| m.all.mispredictions.get())
            .sum(),
    }
}

/// Runs the trace-serving measurement on the first suite benchmark.
///
/// # Panics
///
/// Panics if the two serving modes ever disagree on metrics — that
/// would mean segment serving is *not* observationally invisible.
pub fn run_bench(quick: bool) -> BenchReport {
    let bench = &suite()[0];
    let iterations: u32 = if quick { 3 } else { 10 };
    BenchReport {
        benchmark: bench.name().to_string(),
        quick,
        iterations,
        serving: run_serving_matrix(bench, iterations),
    }
}

impl BenchReport {
    /// The trace-serving speedup: segment-served over decode-per-replay
    /// throughput on the cold-memo matrix — the number the acceptance
    /// gate reads out of `BENCH_7.json`.
    pub fn serving_speedup(&self) -> f64 {
        self.serving.speedup()
    }

    /// Renders the machine-readable `BENCH_7.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("benchmark", self.benchmark.as_str())
            .field("quick", self.quick)
            .field("iterations", u64::from(self.iterations))
            .field(
                "trace_serving",
                Json::obj()
                    .field("streams", self.serving.streams as u64)
                    .field("memo_streams", self.serving.memo_streams as u64)
                    .field("events", self.serving.events)
                    .field(
                        "decode_branches_per_sec",
                        self.serving.decode_branches_per_sec,
                    )
                    .field(
                        "segment_branches_per_sec",
                        self.serving.segment_branches_per_sec,
                    )
                    .field("mispredictions", self.serving.mispredictions)
                    .field("speedup", self.serving_speedup()),
            )
    }

    /// Renders the human-readable summary.
    pub fn to_text(&self) -> String {
        format!(
            "trace serving · {} · {} streams over a {}-slot memo (cold) · {} events · {} iters\n\
             decode-per-replay {:.0} br/s · segment-served {:.0} br/s\n\
             serving headline: {:.2}x segment-served over decode-per-replay\n",
            self.benchmark,
            self.serving.streams,
            self.serving.memo_streams,
            self.serving.events,
            self.iterations,
            self.serving.decode_branches_per_sec,
            self.serving.segment_branches_per_sec,
            self.serving_speedup()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let report = BenchReport {
            benchmark: "gzip".into(),
            quick: true,
            iterations: 1,
            serving: ServePoint {
                streams: 12,
                memo_streams: 8,
                events: 120,
                decode_branches_per_sec: 1.0,
                segment_branches_per_sec: 3.0,
                mispredictions: 7,
            },
        };
        assert!((report.serving_speedup() - 3.0).abs() < 1e-9);
        let json = report.to_json();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let parsed = Json::parse(&json.render()).unwrap();
        let serving = parsed.get("trace_serving").unwrap();
        assert_eq!(serving.get("streams").and_then(Json::as_u64), Some(12));
        assert_eq!(serving.get("memo_streams").and_then(Json::as_u64), Some(8));
        assert!(serving.get("speedup").is_some());
    }

    #[test]
    fn serve_point_speedup_is_segment_over_decode() {
        let point = ServePoint {
            streams: 12,
            memo_streams: 8,
            events: 1,
            decode_branches_per_sec: 2.0,
            segment_branches_per_sec: 9.0,
            mispredictions: 0,
        };
        assert!((point.speedup() - 4.5).abs() < 1e-9);
    }
}
