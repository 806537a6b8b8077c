//! Property tests over the predictor implementations: determinism,
//! robustness on arbitrary event streams, and wrapper equivalences.

use proptest::prelude::*;

use predbranch_core::{
    build_predictor, BranchInfo, BranchPredictor, Gshare, HarnessConfig, HotBranches, InsertFilter,
    Pgu, PredictionHarness, PredictionMetrics, PredictorSpec, SquashFilter, Timing,
};
use predbranch_isa::PredReg;
use predbranch_sim::{
    BranchEvent, Event, EventSink, PredKnowledge, PredWriteEvent, PredicateScoreboard,
};

/// One synthetic dynamic event.
#[derive(Debug, Clone)]
enum Ev {
    Branch {
        pc: u32,
        guard: u8,
        taken: bool,
        region: bool,
    },
    Write {
        pc: u32,
        preg: u8,
        value: bool,
    },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u32..64, 1u8..64, any::<bool>(), any::<bool>()).prop_map(|(pc, guard, taken, region)| {
            Ev::Branch {
                pc,
                guard,
                taken,
                region,
            }
        }),
        (0u32..64, 1u8..64, any::<bool>()).prop_map(|(pc, preg, value)| Ev::Write {
            pc,
            preg,
            value
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = PredictorSpec> {
    let bases = prop_oneof![
        Just(PredictorSpec::StaticNotTaken),
        Just(PredictorSpec::StaticBtfn),
        Just(PredictorSpec::Bimodal { index_bits: 6 }),
        Just(PredictorSpec::Gshare {
            index_bits: 8,
            history_bits: 8
        }),
        Just(PredictorSpec::Local {
            bht_bits: 5,
            history_bits: 6,
            pattern_bits: 8
        }),
        Just(PredictorSpec::Tournament {
            gshare_bits: 6,
            history_bits: 6,
            bimodal_bits: 6,
            chooser_bits: 6
        }),
        Just(PredictorSpec::Perceptron {
            index_bits: 5,
            history_bits: 8
        }),
        Just(PredictorSpec::Agree {
            index_bits: 6,
            history_bits: 6
        }),
        Just(PredictorSpec::OracleGuard),
    ];
    (bases, any::<bool>(), prop::option::of(0u64..16)).prop_map(|(base, sfpf, pgu)| {
        let mut spec = base;
        if sfpf {
            spec = spec.with_sfpf();
        }
        if let Some(delay) = pgu {
            spec = spec.with_pgu(delay);
        }
        spec
    })
}

/// The executor event a synthetic event stands for at dynamic `index`.
fn event(index: usize, ev: &Ev) -> Event {
    let index = index as u64;
    match *ev {
        Ev::Write { pc, preg, value } => Event::PredWrite(PredWriteEvent {
            pc,
            preg: PredReg::new(preg).unwrap(),
            value,
            index,
            guard: PredReg::TRUE,
            guard_value: true,
        }),
        Ev::Branch {
            pc,
            guard,
            taken,
            region,
        } => Event::Branch(BranchEvent {
            pc,
            target: pc / 2,
            guard: PredReg::new(guard).unwrap(),
            taken,
            conditional: true,
            region: region.then_some(0),
            index,
        }),
    }
}

/// Replays a stream against a predictor with immediate update,
/// returning the misprediction count.
fn replay(spec: &PredictorSpec, events: &[Ev], latency: u64) -> u64 {
    let mut predictor = build_predictor(spec);
    let mut scoreboard = PredicateScoreboard::new(latency);
    let mut wrong = 0;
    for (index, ev) in events.iter().enumerate() {
        match event(index, ev) {
            Event::PredWrite(write) => {
                scoreboard.observe(&write);
                predictor.on_pred_write(&write);
            }
            Event::Branch(branch) => {
                let knowledge = scoreboard.query(branch.guard, branch.index);
                let info = BranchInfo::at_fetch(&branch, knowledge);
                if predictor.predict(&info) != branch.taken {
                    wrong += 1;
                }
                predictor.update(&info, branch.taken);
            }
        }
    }
    wrong
}

/// Makes outcomes consistent with guards, as the executor does: a
/// branch is taken iff its guard's architectural value is true.
fn guard_consistent(raw_events: Vec<Ev>) -> Vec<Ev> {
    let mut preds = [false; 64];
    raw_events
        .into_iter()
        .map(|ev| match ev {
            Ev::Write { pc, preg, value } => {
                preds[preg as usize] = value;
                Ev::Write { pc, preg, value }
            }
            Ev::Branch {
                pc, guard, region, ..
            } => Ev::Branch {
                pc,
                guard,
                taken: preds[guard as usize],
                region,
            },
        })
        .collect()
}

/// A harness whose lanes all run at `timing` and insert every
/// predicate definition.
fn harness<P: BranchPredictor>(lanes: Vec<P>, timing: Timing) -> PredictionHarness<P> {
    let config = HarnessConfig {
        timing,
        insert: InsertFilter::All,
    };
    let mut lanes = lanes.into_iter();
    let mut harness = PredictionHarness::new(lanes.next().unwrap(), config.clone());
    for lane in lanes {
        harness.push_lane(lane, config.clone());
    }
    harness
}

/// Delivers a synthetic stream to a harness and retires its tail.
fn drive<P: BranchPredictor>(
    mut harness: PredictionHarness<P>,
    events: &[Ev],
) -> Vec<(P, PredictionMetrics)> {
    for (index, ev) in events.iter().enumerate() {
        harness.event(&event(index, ev));
    }
    harness.into_lanes()
}

proptest! {
    /// No predictor configuration panics on any event stream, and every
    /// one is deterministic.
    #[test]
    fn predictors_are_total_and_deterministic(
        spec in arb_spec(),
        events in prop::collection::vec(arb_event(), 0..300),
        latency in 0u64..16,
    ) {
        let a = replay(&spec, &events, latency);
        let b = replay(&spec, &events, latency);
        prop_assert_eq!(a, b);
        prop_assert!(a <= events.len() as u64);
    }

    /// The squash filter agrees with its inner predictor whenever the
    /// guard is unresolved (an enormous-latency scoreboard resolves
    /// nothing that was ever written).
    #[test]
    fn filter_is_transparent_on_unresolved_guards(
        events in prop::collection::vec(arb_event(), 1..300),
    ) {
        // Pre-write every predicate so no guard is in the "never written
        // ⇒ known false" state; latency 1<<60 keeps them all unresolved.
        let mut prefix: Vec<Ev> = (1u8..64)
            .map(|preg| Ev::Write { pc: 0, preg, value: true })
            .collect();
        prefix.extend(events);
        let base = PredictorSpec::Gshare { index_bits: 8, history_bits: 8 };
        let wrapped = base.clone().with_sfpf();
        prop_assert_eq!(
            replay(&base, &prefix, 1 << 60),
            replay(&wrapped, &prefix, 1 << 60)
        );
    }

    /// PGU with delay so large nothing ever drains behaves exactly like
    /// the unwrapped gshare.
    #[test]
    fn undrained_pgu_equals_gshare(
        events in prop::collection::vec(arb_event(), 0..300),
    ) {
        let mut plain = Gshare::new(8, 8);
        let mut pgu = Pgu::new(Gshare::new(8, 8)).with_delay(u64::MAX);
        for (index, ev) in events.iter().enumerate() {
            match event(index, ev) {
                Event::PredWrite(write) => {
                    plain.on_pred_write(&write);
                    pgu.on_pred_write(&write);
                }
                Event::Branch(branch) => {
                    let info = BranchInfo::at_fetch(&branch, PredKnowledge::Unknown);
                    prop_assert_eq!(plain.predict(&info), pgu.predict(&info));
                    plain.update(&info, branch.taken);
                    pgu.update(&info, branch.taken);
                }
            }
        }
    }

    /// The filter's override is always architecturally safe: when it
    /// fires on a known-false guard, the branch is genuinely not taken —
    /// so a wrapped oracle stays perfect.
    #[test]
    fn filter_preserves_oracle_perfection(
        raw_events in prop::collection::vec(arb_event(), 0..300),
        latency in 0u64..16,
    ) {
        let events = guard_consistent(raw_events);
        let oracle = PredictorSpec::OracleGuard;
        let filtered = oracle.clone().with_sfpf();
        prop_assert_eq!(replay(&oracle, &events, latency), 0);
        prop_assert_eq!(replay(&filtered, &events, latency), 0);
    }

    /// Through the harness at any resolve and retire latency, an SFPF
    /// lane never mispredicts a branch fetched with a known-false guard,
    /// and sharing the harness with other lanes changes none of its
    /// metrics: the knowledge a branch carries through the in-flight
    /// window is the fetch-time value.
    #[test]
    fn sfpf_lane_is_exact_on_known_false_guards_at_any_timing(
        spec in arb_spec(),
        raw_events in prop::collection::vec(arb_event(), 0..300),
        resolve in 0u64..16,
        retire in 0u64..=16,
    ) {
        let events = guard_consistent(raw_events);
        let timing = Timing::new(resolve, retire);
        let filtered = spec.clone().with_sfpf();
        let gang = [spec.clone(), filtered.clone(), spec.with_pgu(4)].map(|s| build_predictor(&s));
        let gang = drive(harness(gang.into(), timing), &events);
        let solo = drive(harness(vec![build_predictor(&filtered)], timing), &events);
        prop_assert_eq!(solo[0].1.known_false_mispredicted.get(), 0);
        prop_assert_eq!(gang[1].1, solo[0].1);
    }

    /// Attribution lanes account for every branch and misprediction:
    /// the per-PC counters sum to the lane's metrics at any timing.
    #[test]
    fn attribution_sums_to_lane_metrics(
        specs in prop::collection::vec(arb_spec(), 1..4),
        events in prop::collection::vec(arb_event(), 0..300),
        resolve in 0u64..16,
        retire in 0u64..=16,
    ) {
        let lanes = specs.iter().map(|spec| HotBranches::new(build_predictor(spec)));
        let timing = Timing::new(resolve, retire);
        for (hot, metrics) in drive(harness(lanes.collect(), timing), &events) {
            let ranked = hot.ranked();
            let branches: u64 = ranked.iter().map(|(_, c)| c.branches.get()).sum();
            prop_assert_eq!(branches, metrics.all.branches.get());
            prop_assert_eq!(hot.total_mispredictions(), metrics.all.mispredictions.get());
        }
    }

    /// `storage_bits` is configuration-determined: untouched by use.
    #[test]
    fn storage_bits_is_stable(
        spec in arb_spec(),
        events in prop::collection::vec(arb_event(), 0..50),
    ) {
        let before = build_predictor(&spec).storage_bits();
        let lanes = drive(harness(vec![build_predictor(&spec)], Timing::immediate(4)), &events);
        prop_assert_eq!(lanes[0].0.storage_bits(), before);
    }
}

/// A non-property regression: SquashFilter's filtered counter only moves
/// when the filter actually fires.
#[test]
fn filtered_counter_counts_fires_only() {
    let mut filter = SquashFilter::new(Gshare::new(6, 6));
    let info = |guard_knowledge| BranchInfo {
        pc: 3,
        target: 0,
        guard: PredReg::new(5).unwrap(),
        region: None,
        index: 100,
        guard_knowledge,
    };
    // in-flight guard: no fire
    filter.predict(&info(PredKnowledge::Unknown));
    assert_eq!(filter.filtered_count(), 0);
    // resolved-false guard: fires
    filter.predict(&info(PredKnowledge::Known(false)));
    assert_eq!(filter.filtered_count(), 1);
}
