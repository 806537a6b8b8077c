//! Regression tests for predictor checkpoint capacity under a full
//! in-flight branch window.
//!
//! The harness speculates a branch *before* checking whether the window
//! is full, so a predictor's checkpoint FIFO transiently holds one more
//! entry than [`WINDOW_CAPACITY`]. A checkpoint ring sized exactly to
//! the window would panic ("ring overflow") on the 65th speculate of a
//! long correctly-predicted run; [`checkpoint_capacity`] sizes it with
//! headroom. These tests fill the window for every modern predictor
//! shape (bare, predicate-aware, and sfpf/pgu-wrapped) and also run the
//! ordinary retire-8 schedule end to end.

use predbranch_core::{
    checkpoint_capacity, HarnessConfig, InsertFilter, PredictionHarness, Timing, WINDOW_CAPACITY,
};
use predbranch_isa::assemble;
use predbranch_modern::{build_modern, ModernSpec};
use predbranch_sim::{Executor, Memory};

/// A loop long enough that, once the predictor warms up, well over
/// [`WINDOW_CAPACITY`] consecutive correct predictions pile up in
/// flight when nothing retires.
const LONG_LOOP: &str = r#"
    mov r1 = 0
loop:
    cmp.lt p1, p2 = r1, 300
    (p1) add r1 = r1, 1
    nop
    (p1) br.region 0, loop
    halt
"#;

const SPECS: &[&str] = &[
    "tage:4/10/64",
    "ptage:4/10/64",
    "mpp:10",
    "pmpp:10",
    "tage:4/10/64+sfpf+pgu8",
    "pmpp:10+sfpf+pgu8",
];

fn run_spec(spec: &str, retire_latency: u64) -> (u64, usize) {
    let program = assemble(LONG_LOOP).unwrap();
    let spec: ModernSpec = spec.parse().unwrap();
    let mut harness = PredictionHarness::new(
        build_modern(&spec),
        HarnessConfig {
            timing: Timing::new(8, retire_latency),
            insert: InsertFilter::All,
        },
    );
    let summary = Executor::new(&program, Memory::new()).run(&mut harness, 1_000_000);
    assert!(summary.halted, "{spec:?} did not halt");
    let in_flight_at_end = harness.in_flight();
    harness.finish();
    assert_eq!(harness.in_flight(), 0);
    (harness.metrics().all.branches.get(), in_flight_at_end)
}

/// The capacity the modern predictors size their snapshot rings with
/// must exceed the window by at least the one-entry speculate overlap.
#[test]
fn checkpoint_capacity_exceeds_window() {
    assert!(checkpoint_capacity(WINDOW_CAPACITY) > WINDOW_CAPACITY);
}

/// Ordinary retire-8 schedule: every shape runs the whole loop and sees
/// every conditional branch.
#[test]
fn every_shape_survives_retire_eight() {
    for spec in SPECS {
        let (branches, _) = run_spec(spec, 8);
        assert_eq!(branches, 301, "{spec}");
    }
}

/// With an effectively infinite retire latency nothing leaves the
/// window until it is full, so the harness force-retires the oldest
/// branch on every subsequent fetch. Each predictor's checkpoint FIFO
/// must absorb the 65-deep transient without overflowing, and the
/// window must actually have filled (otherwise the test proves
/// nothing).
#[test]
fn full_window_does_not_overflow_checkpoints() {
    for spec in SPECS {
        let (branches, in_flight_at_end) = run_spec(spec, 1 << 40);
        assert_eq!(branches, 301, "{spec}");
        assert_eq!(
            in_flight_at_end, WINDOW_CAPACITY,
            "{spec}: window never filled; force-retire path untested"
        );
    }
}
