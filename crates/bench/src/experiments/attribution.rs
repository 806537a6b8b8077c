//! The per-branch attribution pass F17 and F19 share.
//!
//! One stream per benchmark feeds the streaming characterizer and a
//! [`PredictionHarness`] with one [`HotBranches`] lane per predictor
//! configuration; every static conditional branch's misprediction
//! counts then land in its taxonomy bucket.

use std::collections::BTreeMap;

use predbranch_characterize::{Bucket, Characterization, Characterizer};
use predbranch_core::{BranchPredictor, HarnessConfig, HotBranches, PredictionHarness};

use crate::runner::{RunContext, SuiteEntry};

/// One benchmark's taxonomy plus each profiled static's misprediction
/// counts per configuration — plain data, so the per-benchmark jobs can
/// migrate across worker threads.
type EntryResult<const N: usize> = (Characterization, BTreeMap<u32, [u64; N]>);

/// Per-bucket aggregation across the suite: static count, dynamic
/// branches, and mispredictions per configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BucketAgg<const N: usize> {
    pub(crate) statics: u64,
    pub(crate) branches: u64,
    misp: [u64; N],
}

impl<const N: usize> BucketAgg<N> {
    const EMPTY: Self = BucketAgg {
        statics: 0,
        branches: 0,
        misp: [0; N],
    };

    pub(crate) fn misp_percent(&self, config: usize) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.misp[config] as f64 / self.branches as f64 * 100.0
        }
    }

    /// `config`'s win over `base` in percentage points (positive =
    /// fewer mispredictions).
    pub(crate) fn delta_pp(&self, base: usize, config: usize) -> f64 {
        self.misp_percent(base) - self.misp_percent(config)
    }
}

/// The suite-wide join: each benchmark's taxonomy in suite order, the
/// per-bucket aggregates in [`Bucket::ALL`] order, and their total.
pub(crate) struct Attribution<const N: usize> {
    pub(crate) reports: Vec<Characterization>,
    pub(crate) buckets: [BucketAgg<N>; 4],
    pub(crate) total: BucketAgg<N>,
}

/// Runs the attribution pass over every entry's predicated build, one
/// job per benchmark. `predictors` builds the `N` configurations (in
/// column order) inside each job; their lanes run at
/// `HarnessConfig::default()`: the default resolve latency, immediate
/// (retire 0) update, and every predicate definition inserted.
pub(crate) fn attribute_suite<const N: usize>(
    ctx: &RunContext,
    entries: &[SuiteEntry],
    predictors: fn() -> [Box<dyn BranchPredictor>; N],
) -> Attribution<N> {
    let jobs: Vec<Box<dyn FnOnce() -> EntryResult<N> + Send>> = entries
        .iter()
        .map(|entry| {
            let ctx = ctx.clone();
            let program = entry.compiled.predicated.clone();
            let memory = entry.eval_input();
            let cache_label = format!("{}-pred", entry.compiled.name);
            let job: Box<dyn FnOnce() -> EntryResult<N> + Send> = Box::new(move || {
                let mut lanes = predictors().into_iter().map(HotBranches::new);
                let first = lanes.next().expect("at least one configuration");
                let mut harness = PredictionHarness::new(first, HarnessConfig::default());
                for lane in lanes {
                    harness.push_lane(lane, HarnessConfig::default());
                }
                let mut characterizer = Characterizer::new();
                // tuple sink: the one pass fans out to the characterizer
                // and every attribution lane
                let mut sink = (&mut characterizer, &mut harness);
                ctx.stream_events(&cache_label, &program, &memory, &mut sink);
                let report = characterizer.finish();
                let hots = harness.into_lanes();
                let misp = report
                    .branches()
                    .iter()
                    .map(|profile| {
                        let counts = std::array::from_fn(|i| {
                            hots[i]
                                .0
                                .at(profile.pc)
                                .map_or(0, |c| c.mispredictions.get())
                        });
                        (profile.pc, counts)
                    })
                    .collect();
                (report, misp)
            });
            job
        })
        .collect();

    let mut joined = Attribution {
        reports: Vec::with_capacity(entries.len()),
        buckets: [BucketAgg::EMPTY; 4],
        total: BucketAgg::EMPTY,
    };
    for (report, misp) in ctx.map_batch(jobs) {
        for profile in report.branches() {
            let slot = Bucket::ALL
                .iter()
                .position(|&b| b == profile.bucket)
                .expect("bucket in ALL");
            for agg in [&mut joined.buckets[slot], &mut joined.total] {
                for (sum, &count) in agg.misp.iter_mut().zip(&misp[&profile.pc]) {
                    *sum += count;
                }
                agg.statics += 1;
                agg.branches += profile.executions;
            }
        }
        joined.reports.push(report);
    }
    joined
}
