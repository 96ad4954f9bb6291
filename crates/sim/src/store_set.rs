//! Store-set memory-dependence prediction (Chrysos & Emer, adapted).
//!
//! The paper's PolyFlow synchronizes inter-task memory dependences
//! conservatively through the divert queue, using predicted dependence
//! information; mispredicted independence causes a violation that
//! squashes the violating task and everything younger (§3.1, citing the
//! Synchronizing Store Sets report [20]).
//!
//! This module provides the predictor: a PC-indexed table that learns,
//! after each violation, that a given load must synchronize with older
//! stores. Before the first violation a load is predicted independent and
//! allowed to execute speculatively.

use polyflow_isa::Pc;

/// A PC-indexed dependence predictor with 2-bit confidence.
///
/// `predicts_dependent` starts false for every load; a violation trains
/// the entry to saturate at "dependent". Entries decay when a predicted
/// dependence turns out unnecessary many times in a row, so phase changes
/// do not synchronize forever (the "balancing benefits and risks" of the
/// paper's reference \[20\]).
#[derive(Debug, Clone)]
pub struct StoreSetPredictor {
    counters: Vec<u8>,
    index_mask: usize,
    violations: u64,
    trainings: u64,
}

impl StoreSetPredictor {
    /// Creates a predictor with `2^index_bits` entries.
    pub fn new(index_bits: usize) -> StoreSetPredictor {
        StoreSetPredictor {
            counters: vec![0; 1 << index_bits],
            index_mask: (1 << index_bits) - 1,
            violations: 0,
            trainings: 0,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        // Simple bit-mix; the table is untagged, so distinct loads may
        // alias (a real SSIT has the same property).
        let x = pc.index();
        (x ^ (x >> 7)) & self.index_mask
    }

    /// Should the load at `pc` synchronize with older-task stores?
    pub fn predicts_dependent(&self, pc: Pc) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Records a dependence violation by the load at `pc`.
    pub fn train_violation(&mut self, pc: Pc) {
        self.violations += 1;
        self.trainings += 1;
        let i = self.index(pc);
        self.counters[i] = 3;
    }

    /// Records that the load at `pc` synchronized but its producer was
    /// already complete (the synchronization was unnecessary).
    pub fn train_unnecessary(&mut self, pc: Pc) {
        let i = self.index(pc);
        self.counters[i] = self.counters[i].saturating_sub(1);
    }

    /// Violations observed so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total training events.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }
}

/// How the simulator handles inter-task memory dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DependenceMode {
    /// Oracle synchronization: every true inter-task memory dependence is
    /// known (from the trace) and synchronized through the divert queue.
    /// No violations occur. This idealizes the hint cache's 8-byte
    /// dependence entry (§3.1) and is the default for the figures.
    #[default]
    OracleSync,
    /// Store-set prediction: loads predicted independent execute
    /// speculatively; a load that runs ahead of its true producer store
    /// triggers a violation, squashing its task and all younger tasks
    /// (§3.1), and trains the predictor.
    StoreSet,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_predicts_independent() {
        let p = StoreSetPredictor::new(10);
        assert!(!p.predicts_dependent(Pc::new(17)));
        assert_eq!(p.violations(), 0);
    }

    #[test]
    fn violation_trains_dependence() {
        let mut p = StoreSetPredictor::new(10);
        p.train_violation(Pc::new(17));
        assert!(p.predicts_dependent(Pc::new(17)));
        assert_eq!(p.violations(), 1);
    }

    #[test]
    fn decay_releases_dependence_after_repeated_unnecessary_syncs() {
        let mut p = StoreSetPredictor::new(10);
        p.train_violation(Pc::new(17));
        p.train_unnecessary(Pc::new(17));
        assert!(p.predicts_dependent(Pc::new(17)), "one decay is not enough");
        p.train_unnecessary(Pc::new(17));
        assert!(!p.predicts_dependent(Pc::new(17)));
    }

    #[test]
    fn untagged_entries_alias() {
        let mut p = StoreSetPredictor::new(4);
        p.train_violation(Pc::new(3));
        // Some other PC mapping to the same entry inherits the prediction.
        let alias = (0..10_000u32)
            .map(Pc::new)
            .find(|&pc| pc != Pc::new(3) && p.predicts_dependent(pc));
        assert!(alias.is_some(), "a 16-entry table must alias");
    }

    #[test]
    fn default_mode_is_oracle() {
        assert_eq!(DependenceMode::default(), DependenceMode::OracleSync);
    }
}
