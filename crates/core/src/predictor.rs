//! The predictor interface and prediction metrics.

use predbranch_sim::{BranchEvent, PredKnowledge, PredWriteEvent};
use predbranch_stats::{Counter, Ratio};

/// The fetch-time view of a conditional branch presented to a predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Static location of the branch.
    pub pc: u32,
    /// Branch target (for static direction heuristics).
    pub target: u32,
    /// The guard predicate register.
    pub guard: predbranch_isa::PredReg,
    /// The if-converted region the branch belongs to, if region-based.
    pub region: Option<u16>,
    /// Dynamic fetch index: orders the branch against the harness's
    /// retire latency and against the predicate writes that PGU's delay
    /// queue and the predicate-aware modern predictors drain by it.
    pub index: u64,
    /// What fetch knows about the guard's value at `index` — the
    /// harness resolves it once per branch and every lane shares it.
    pub guard_knowledge: PredKnowledge,
}

impl BranchInfo {
    /// Builds the fetch-time view from a dynamic branch event and the
    /// guard knowledge the fetch stage had for it.
    pub fn at_fetch(event: &BranchEvent, guard_knowledge: PredKnowledge) -> Self {
        BranchInfo {
            pc: event.pc,
            target: event.target,
            guard: event.guard,
            region: event.region,
            index: event.index,
            guard_knowledge,
        }
    }

    /// Whether the branch jumps backwards (loop-shaped).
    pub fn is_backward(&self) -> bool {
        self.target <= self.pc
    }
}

/// A branch at `pc` and dynamic `index` with an unresolved `p1` guard,
/// for unit tests that drive a predictor by hand.
#[cfg(test)]
pub(crate) fn test_branch(pc: u32, index: u64) -> BranchInfo {
    BranchInfo {
        pc,
        target: 0,
        guard: predbranch_isa::PredReg::new(1).unwrap(),
        region: None,
        index,
        guard_knowledge: PredKnowledge::Unknown,
    }
}

/// A dynamic branch-direction predictor with a speculative-update
/// lifecycle.
///
/// Predictors are driven by [`crate::PredictionHarness`] through four
/// phases, mirroring what real front ends do (speculative history update
/// with checkpoint/repair) instead of the older idealized
/// train-at-predict loop:
///
/// 1. **`predict`** — called at fetch. Everything the front end knows
///    about the branch's guard is in [`BranchInfo::guard_knowledge`]; a
///    predictor has no other view of predicate values than the writes
///    it observes. Must not change predictor state.
/// 2. **`speculate`** — called immediately after `predict` with the
///    *predicted* direction. The predictor checkpoints whatever state
///    the branch will later need to train or repair (history registers,
///    BHT entries, component predictions) and shifts the predicted
///    outcome into its speculative history, so younger branches predict
///    against the speculated path.
/// 3. **`commit`** — called once per speculated branch, in fetch order,
///    after the harness's retire latency elapses. Pops the oldest
///    checkpoint and trains the tables with the *fetch-time* state it
///    recorded; the speculative history is left alone (it already holds
///    the outcome — correct speculation, or the repair made by
///    `squash`).
/// 4. **`squash`** — called instead of nothing, right before `commit`,
///    when the branch was mispredicted: rolls the speculative state back
///    to the oldest checkpoint and shifts in the correct outcome. The
///    harness flushes all younger in-flight branches before a squash, so
///    at squash time the squashed branch holds the oldest (and only)
///    outstanding checkpoint. `squash` must not pop the checkpoint — the
///    `commit` that follows does.
///
/// Every `speculate` is balanced by exactly one `commit`, in the same
/// order — commit order equals fetch order.
///
/// The provided [`BranchPredictor::update`] runs `speculate` + `commit`
/// back to back, which *is* the idealized immediate-update methodology;
/// a harness with retire latency 0 is equivalent to it event for event
/// (the latency-0 equivalence guarantee the golden parity tests pin
/// down).
///
/// Predicate-definition events are forwarded through
/// [`BranchPredictor::on_pred_write`] for predictors (like
/// [`crate::Pgu`]) that consume them.
pub trait BranchPredictor {
    /// A short human-readable name (used in table rows).
    fn name(&self) -> String;

    /// Predicts the branch direction: `true` = taken.
    fn predict(&mut self, branch: &BranchInfo) -> bool;

    /// Checkpoints repair state for the fetched branch and speculatively
    /// applies the predicted direction to the predictor's history.
    ///
    /// The default is for predictors with no speculative state (static,
    /// oracle, per-PC counters): nothing to checkpoint, nothing to
    /// shift.
    fn speculate(&mut self, _branch: &BranchInfo, _predicted: bool) {}

    /// Retires the oldest speculated branch: trains the tables on the
    /// resolved outcome using the checkpointed fetch-time state.
    fn commit(&mut self, branch: &BranchInfo, taken: bool);

    /// Repairs a misprediction: restores the speculative state to the
    /// oldest checkpoint and shifts in the correct outcome. Always
    /// followed by the branch's `commit`.
    ///
    /// The default is for predictors whose `speculate` is a no-op.
    fn squash(&mut self, _branch: &BranchInfo, _taken: bool) {}

    /// Trains on the resolved outcome with zero retire latency:
    /// `speculate` + `commit` back to back. This is the idealized
    /// immediate-update convenience for drivers that don't model an
    /// in-flight window (unit tests, throughput benches).
    fn update(&mut self, branch: &BranchInfo, taken: bool) {
        self.speculate(branch, taken);
        self.commit(branch, taken);
    }

    /// Observes a predicate definition (default: ignored).
    fn on_pred_write(&mut self, _write: &PredWriteEvent) {}

    /// Hardware budget of the prediction state, in bits.
    fn storage_bits(&self) -> usize;
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        (**self).predict(branch)
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        (**self).speculate(branch, predicted)
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        (**self).commit(branch, taken)
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        (**self).squash(branch, taken)
    }

    fn update(&mut self, branch: &BranchInfo, taken: bool) {
        (**self).update(branch, taken)
    }

    fn on_pred_write(&mut self, write: &PredWriteEvent) {
        (**self).on_pred_write(write)
    }

    fn storage_bits(&self) -> usize {
        (**self).storage_bits()
    }
}

/// Predictors whose index function uses a global history register that
/// external components (the PGU mechanism) may shift bits into.
pub trait HasGlobalHistory {
    /// Mutable access to the global history register.
    fn global_history_mut(&mut self) -> &mut crate::history::GlobalHistory;
}

/// Predictors that can accept an externally supplied history bit — the
/// insertion point the PGU mechanism uses to shift predicate outcomes
/// into a predictor's notion of "recent history".
///
/// For the classic single-register predictors this is just
/// `global_history_mut().shift_in(outcome)`; predictors with richer
/// history state (TAGE's folded geometric histories, the multiperspective
/// perceptron's several views) implement it by threading the bit through
/// every structure that tracks the global outcome stream. There is
/// deliberately no blanket impl over [`HasGlobalHistory`]: those richer
/// predictors need their own implementations, and a blanket impl would
/// forbid them.
pub trait HistoryInsert {
    /// Shifts `outcome` into the predictor's speculative global history,
    /// exactly as if a branch with that outcome had been fetched.
    fn insert_history_bit(&mut self, outcome: bool);
}

/// A static (no-state) predictor, the weakest baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticPredictor {
    /// Always predict not-taken.
    NotTaken,
    /// Always predict taken.
    Taken,
    /// Backward-taken, forward-not-taken.
    Btfn,
}

impl BranchPredictor for StaticPredictor {
    fn name(&self) -> String {
        match self {
            StaticPredictor::NotTaken => "static-nt".to_string(),
            StaticPredictor::Taken => "static-t".to_string(),
            StaticPredictor::Btfn => "static-btfn".to_string(),
        }
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        match self {
            StaticPredictor::NotTaken => false,
            StaticPredictor::Taken => true,
            StaticPredictor::Btfn => branch.is_backward(),
        }
    }

    fn commit(&mut self, _: &BranchInfo, _: bool) {}

    fn storage_bits(&self) -> usize {
        0
    }
}

/// Branch/misprediction counters for one branch class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Dynamic branches in the class.
    pub branches: Counter,
    /// Mispredicted branches in the class.
    pub mispredictions: Counter,
}

impl ClassCounts {
    /// Misprediction rate for the class.
    pub fn misp_rate(&self) -> Ratio {
        Ratio::of(self.mispredictions.get(), self.branches.get())
    }

    /// Prediction accuracy for the class.
    pub fn accuracy(&self) -> Ratio {
        self.misp_rate().complement()
    }

    pub(crate) fn record(&mut self, correct: bool) {
        self.branches.increment();
        if !correct {
            self.mispredictions.increment();
        }
    }
}

/// Per-run prediction metrics split by branch class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionMetrics {
    /// All conditional branches.
    pub all: ClassCounts,
    /// Region-based conditional branches.
    pub region: ClassCounts,
    /// Conditional branches outside regions.
    pub non_region: ClassCounts,
    /// Branches fetched with a known-false guard (squash-filter
    /// opportunities), regardless of the predictor used.
    pub known_false_guard: Counter,
    /// Of those, how many the predictor got wrong (0 whenever the squash
    /// filter is active — its defining guarantee).
    pub known_false_mispredicted: Counter,
    /// Dynamic predicate definitions observed.
    pub pred_writes: Counter,
}

impl PredictionMetrics {
    /// Mispredictions per 1000 dynamic instructions (caller supplies the
    /// instruction count from [`predbranch_sim::RunSummary`]).
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.all.mispredictions.get() as f64 * 1000.0 / instructions as f64
        }
    }

    /// Fraction of conditional branches covered by the squash filter.
    pub fn filter_coverage(&self) -> Ratio {
        Ratio::of(self.known_false_guard.get(), self.all.branches.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::PredReg;

    fn info(pc: u32, target: u32) -> BranchInfo {
        BranchInfo {
            pc,
            target,
            guard: PredReg::new(1).unwrap(),
            region: None,
            index: 0,
            guard_knowledge: PredKnowledge::Unknown,
        }
    }

    #[test]
    fn branch_info_backwardness() {
        assert!(info(10, 5).is_backward());
        assert!(info(10, 10).is_backward());
        assert!(!info(10, 11).is_backward());
    }

    #[test]
    fn static_predictors() {
        assert!(!StaticPredictor::NotTaken.predict(&info(0, 5)));
        assert!(StaticPredictor::Taken.predict(&info(0, 5)));
        assert!(StaticPredictor::Btfn.predict(&info(10, 0)));
        assert!(!StaticPredictor::Btfn.predict(&info(0, 10)));
        assert_eq!(StaticPredictor::Btfn.storage_bits(), 0);
    }

    #[test]
    fn class_counts_rates() {
        let mut c = ClassCounts::default();
        c.record(true);
        c.record(false);
        c.record(false);
        c.record(true);
        assert_eq!(c.misp_rate().percent(), 50.0);
        assert_eq!(c.accuracy().percent(), 50.0);
    }

    #[test]
    fn metrics_mpki() {
        let mut m = PredictionMetrics::default();
        m.all.record(false);
        m.all.record(false);
        assert_eq!(m.mpki(1000), 2.0);
        assert_eq!(m.mpki(0), 0.0);
    }

    #[test]
    fn boxed_predictor_delegates() {
        let mut boxed: Box<dyn BranchPredictor> = Box::new(StaticPredictor::Taken);
        assert_eq!(boxed.name(), "static-t");
        assert!(boxed.predict(&info(0, 1)));
        boxed.update(&info(0, 1), true);
        assert_eq!(boxed.storage_bits(), 0);
    }
}
