//! Per-branch misprediction attribution.

use std::collections::BTreeMap;

use predbranch_sim::PredWriteEvent;

use crate::predictor::{BranchInfo, BranchPredictor, ClassCounts};

/// Attributes mispredictions to static branches, so analyses can answer
/// *which* branches the techniques fix.
///
/// A [`BranchPredictor`] decorator: it predicts exactly like the
/// predictor it wraps and keeps per-PC counters on the side — a branch
/// at every `commit`, a misprediction at every `squash`. Run it as a
/// lane of a [`crate::PredictionHarness`], which squashes every
/// mispredicted branch exactly once, right before its commit; the
/// per-PC counters then sum to the lane's [`crate::PredictionMetrics`].
///
/// # Examples
///
/// ```
/// use predbranch_core::{Gshare, HarnessConfig, HotBranches, PredictionHarness};
///
/// let harness = PredictionHarness::new(HotBranches::new(Gshare::new(10, 10)), HarnessConfig::default());
/// assert!(harness.predictor().ranked().is_empty());
/// ```
#[derive(Debug)]
pub struct HotBranches<P> {
    predictor: P,
    per_pc: BTreeMap<u32, ClassCounts>,
}

impl<P> HotBranches<P> {
    /// Wraps `predictor` with empty per-PC counters.
    pub fn new(predictor: P) -> Self {
        HotBranches {
            predictor,
            per_pc: BTreeMap::new(),
        }
    }

    /// Static branches ranked by misprediction count (descending), as
    /// `(pc, counts)` pairs.
    pub fn ranked(&self) -> Vec<(u32, ClassCounts)> {
        let mut v: Vec<(u32, ClassCounts)> = self.per_pc.iter().map(|(&pc, &c)| (pc, c)).collect();
        v.sort_by(|a, b| {
            b.1.mispredictions
                .get()
                .cmp(&a.1.mispredictions.get())
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// The counters for one static branch, if it executed.
    pub fn at(&self, pc: u32) -> Option<ClassCounts> {
        self.per_pc.get(&pc).copied()
    }

    /// Total mispredictions across all branches.
    pub fn total_mispredictions(&self) -> u64 {
        self.per_pc.values().map(|c| c.mispredictions.get()).sum()
    }
}

impl<P: BranchPredictor> BranchPredictor for HotBranches<P> {
    fn name(&self) -> String {
        self.predictor.name()
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.predictor.predict(branch)
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        self.predictor.speculate(branch, predicted);
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        self.per_pc
            .entry(branch.pc)
            .or_default()
            .branches
            .increment();
        self.predictor.commit(branch, taken);
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        self.per_pc
            .entry(branch.pc)
            .or_default()
            .mispredictions
            .increment();
        self.predictor.squash(branch, taken);
    }

    fn on_pred_write(&mut self, write: &PredWriteEvent) {
        self.predictor.on_pred_write(write);
    }

    fn storage_bits(&self) -> usize {
        self.predictor.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{HarnessConfig, PredictionHarness};
    use crate::predictor::StaticPredictor;
    use predbranch_isa::assemble;
    use predbranch_sim::{Executor, Memory};

    /// Runs `src` with one static-not-taken attribution lane at the
    /// default timing, checking the counters against the lane metrics.
    fn attribute(src: &str) -> HotBranches<StaticPredictor> {
        let program = assemble(src).unwrap();
        let mut harness = PredictionHarness::new(
            HotBranches::new(StaticPredictor::NotTaken),
            HarnessConfig::default(),
        );
        let summary = Executor::new(&program, Memory::new()).run(&mut harness, 100_000);
        assert!(summary.halted);
        let (hot, metrics) = harness.into_parts();
        assert_eq!(hot.total_mispredictions(), metrics.all.mispredictions.get());
        hot
    }

    #[test]
    fn attributes_mispredictions_to_the_right_pc() {
        let hot = attribute(
            r#"
                mov r1 = 0
            loop:
                cmp.lt p1, p2 = r1, 20
                (p1) add r1 = r1, 1
                (p1) br loop        // pc 3: taken 20/21
                cmp.eq p3, p4 = r1, 99
                (p3) br loop        // pc 5: never taken
                halt
            "#,
        );
        // pc 3 mispredicts 20 times under static-not-taken; pc 5 never
        let ranked = hot.ranked();
        assert_eq!(ranked[0].0, 3);
        assert_eq!(ranked[0].1.mispredictions.get(), 20);
        assert_eq!(ranked[0].1.branches.get(), 21);
        assert_eq!(hot.at(5).unwrap().mispredictions.get(), 0);
        assert_eq!(hot.total_mispredictions(), 20);
        assert_eq!(hot.at(999), None);
    }

    #[test]
    fn ranking_is_stable_for_ties() {
        let hot = attribute(
            r#"
                cmp.eq p1, p2 = r0, r0
                (p1) br a
            a:  (p1) br b
            b:  halt
            "#,
        );
        let ranked = hot.ranked();
        assert_eq!(ranked.len(), 2);
        // equal misprediction counts: ordered by pc
        assert!(ranked[0].0 < ranked[1].0);
    }
}
