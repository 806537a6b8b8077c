//! Gang replay must be invisible: for ANY mix of classic and modern
//! predictor specs over any mix of benchmarks, at retire latency 0 and
//! 8, one `run_cells` over the whole grid produces `RunOutcome`s
//! identical — metrics, misprediction tallies, run summaries — to
//! submitting each cell alone (`run_cells(vec![cell])`, a gang unit of
//! one).
//!
//! Each case shares one on-disk trace cache between both contexts, so
//! the property also exercises the replay path the full sweeps use:
//! the first context to touch a stream records it, everything after
//! replays.

use proptest::prelude::*;

use predbranch_bench::{CellSpec, RunContext};
use predbranch_core::{InsertFilter, Timing};

/// Spec strings spanning every predictor family the sweep engine can
/// gang: classic gshare stacks with and without the paper's predicate
/// structures, a bimodal baseline, and the modern TAGE/MPP tier with
/// their predicate-aware variants.
const SPEC_POOL: &[&str] = &[
    "gshare:10/10",
    "gshare:12/12+sfpf",
    "gshare:10/10+pgu8",
    "gshare:10/10+sfpf+pgu8",
    "bimodal:12",
    "tage:4/8/48",
    "ptage:4/8/48",
    "mpp:10",
    "pmpp:10",
];

fn scratch_dir(case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pb-gang-props-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One sampled grid: each element is (spec index, benchmark index).
fn arb_grid() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..SPEC_POOL.len(), 0usize..2), 1..7)
}

fn cells_for(ctx: &RunContext, grid: &[(usize, usize)], retire: u64) -> Vec<CellSpec> {
    let entries = ctx.suite(Some(2));
    grid.iter()
        .enumerate()
        .map(|(i, &(spec_idx, bench_idx))| {
            let entry = &entries[bench_idx % entries.len()];
            CellSpec::predicated(
                entry,
                format!("props/{}/{i}", entry.compiled.name),
                SPEC_POOL[spec_idx]
                    .parse::<predbranch_modern::ModernSpec>()
                    .expect("pool specs parse"),
                Timing::immediate(retire),
                InsertFilter::All,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The gang-replay contract from DESIGN.md: lanes share no state,
    /// so a ganged pass is byte-identical to one pass per lone cell.
    #[test]
    fn gang_outcomes_match_per_cell_outcomes(
        grid in arb_grid(),
        retire in prop_oneof![Just(0u64), Just(8u64)],
        seed in 0u64..1_000,
    ) {
        let dir = scratch_dir(seed);
        let ganged = RunContext::new()
            .with_trace_cache(&dir)
            .expect("trace cache opens");
        let per_cell = RunContext::new()
            .with_trace_cache(&dir)
            .expect("trace cache opens");

        let outs_ganged = ganged.run_cells(cells_for(&ganged, &grid, retire));
        let outs_per_cell: Vec<_> = cells_for(&per_cell, &grid, retire)
            .into_iter()
            .flat_map(|cell| per_cell.run_cells(vec![cell]))
            .collect();
        prop_assert_eq!(
            outs_ganged,
            outs_per_cell,
            "ganged and per-cell outcomes diverge for grid {:?} at retire {}",
            grid,
            retire
        );

        // ganging never runs more passes than lone submissions
        let (g, p) = (ganged.stats(), per_cell.stats());
        prop_assert!(
            g.replays + g.recordings + g.live_runs
                <= p.replays + p.recordings + p.live_runs,
            "gang used more passes ({g:?}) than lone cells ({p:?})"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
