//! The original ordered-set predictor, kept as the differential oracle
//! for the dense [`ReconvergencePredictor`](crate::ReconvergencePredictor).
//!
//! Every training window keeps its own list of retired PCs, and each
//! branch direction's candidates live in a `BTreeSet`, so "the first PC
//! above the branch" is a plain ordered scan. It is slow and obviously
//! right; the dense predictor must agree with it on every query at every
//! point of training.

use crate::{ReconvCategory, ReconvConfig};
use polyflow_isa::{Inst, Pc, TraceEntry};
use std::collections::{BTreeSet, HashMap, HashSet};

#[derive(Debug, Default, Clone)]
struct BranchEntry {
    taken_pcs: BTreeSet<Pc>,
    not_taken_pcs: BTreeSet<Pc>,
    taken_obs: u32,
    not_taken_obs: u32,
    backward: bool,
    jr_common: Option<BTreeSet<Pc>>,
    jr_obs: u32,
}

#[derive(Debug)]
struct ActiveTracker {
    branch_pc: Pc,
    taken: bool,
    is_jr: bool,
    remaining: usize,
    pcs: Vec<Pc>,
}

/// The reference predictor (see the module docs).
#[derive(Debug)]
pub(crate) struct ReferencePredictor {
    config: ReconvConfig,
    table: HashMap<Pc, BranchEntry>,
    active: Vec<ActiveTracker>,
    tracking: HashSet<Pc>,
    observed: u64,
}

impl ReferencePredictor {
    pub(crate) fn new(config: ReconvConfig) -> ReferencePredictor {
        ReferencePredictor {
            config,
            table: HashMap::new(),
            active: Vec::new(),
            tracking: HashSet::new(),
            observed: 0,
        }
    }

    pub(crate) fn observe(&mut self, e: &TraceEntry) {
        self.observed += 1;
        let mut finished = Vec::new();
        for (i, t) in self.active.iter_mut().enumerate() {
            if e.pc == t.branch_pc {
                finished.push(i);
                continue;
            }
            t.pcs.push(e.pc);
            t.remaining -= 1;
            if t.remaining == 0 {
                finished.push(i);
            }
        }
        for &i in finished.iter().rev() {
            let t = self.active.swap_remove(i);
            self.commit_window(t);
        }
        let is_jr = matches!(e.inst, Inst::Jr { .. });
        if (e.inst.is_cond_branch() || is_jr) && !self.tracking.contains(&e.pc) {
            if let Inst::Br { target, .. } = e.inst {
                self.table.entry(e.pc).or_default().backward = target <= e.pc;
            }
            self.tracking.insert(e.pc);
            self.active.push(ActiveTracker {
                branch_pc: e.pc,
                taken: e.taken,
                is_jr,
                remaining: self.config.window,
                pcs: Vec::new(),
            });
        }
    }

    pub(crate) fn flush(&mut self) {
        for t in std::mem::take(&mut self.active) {
            self.commit_window(t);
        }
    }

    fn commit_window(&mut self, t: ActiveTracker) {
        self.tracking.remove(&t.branch_pc);
        let entry = self.table.entry(t.branch_pc).or_default();
        if t.is_jr {
            let window: BTreeSet<Pc> = t
                .pcs
                .into_iter()
                .take(self.config.max_pcs_per_direction)
                .collect();
            entry.jr_obs += 1;
            entry.jr_common = Some(match entry.jr_common.take() {
                None => window,
                Some(common) => common.intersection(&window).copied().collect(),
            });
            return;
        }
        let (set, obs) = if t.taken {
            (&mut entry.taken_pcs, &mut entry.taken_obs)
        } else {
            (&mut entry.not_taken_pcs, &mut entry.not_taken_obs)
        };
        *obs += 1;
        for pc in t.pcs {
            if set.len() >= self.config.max_pcs_per_direction {
                break;
            }
            set.insert(pc);
        }
    }

    pub(crate) fn predict_with_category(&self, branch_pc: Pc) -> Option<(Pc, ReconvCategory)> {
        let e = self.table.get(&branch_pc)?;
        if let Some(common) = &e.jr_common {
            if e.jr_obs >= 2 {
                let below = common.iter().find(|&&pc| pc > branch_pc);
                return below.map(|&pc| (pc, ReconvCategory::Below));
            }
        }
        if e.taken_obs == 0 && e.not_taken_obs == 0 {
            return None;
        }
        if e.backward {
            let cand = e
                .taken_pcs
                .iter()
                .chain(e.not_taken_pcs.iter())
                .filter(|&&pc| pc > branch_pc)
                .min();
            return cand.map(|&pc| (pc, ReconvCategory::Below));
        }
        let both = e.taken_obs >= self.config.min_observations
            && e.not_taken_obs >= self.config.min_observations;
        if both {
            let below = e
                .taken_pcs
                .iter()
                .filter(|&&pc| pc > branch_pc)
                .find(|&&pc| e.not_taken_pcs.contains(&pc));
            if let Some(&pc) = below {
                return Some((pc, ReconvCategory::Below));
            }
            let above = e
                .taken_pcs
                .iter()
                .filter(|&&pc| pc <= branch_pc)
                .find(|&&pc| e.not_taken_pcs.contains(&pc));
            if let Some(&pc) = above {
                return Some((pc, ReconvCategory::AboveOrEqual));
            }
            let taken_below = e.taken_pcs.iter().find(|&&pc| pc > branch_pc);
            if let Some(&pc) = taken_below {
                return Some((pc, ReconvCategory::Below));
            }
            return None;
        }
        let seen = if e.taken_obs > 0 {
            &e.taken_pcs
        } else {
            &e.not_taken_pcs
        };
        let below = seen.iter().find(|&&pc| pc > branch_pc);
        below
            .or_else(|| seen.iter().next())
            .map(|&pc| (pc, ReconvCategory::SingleDirection))
    }

    pub(crate) fn trained_branches(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn fully_trained_branches(&self) -> usize {
        self.table
            .values()
            .filter(|e| e.taken_obs > 0 && e.not_taken_obs > 0)
            .count()
    }

    pub(crate) fn observed(&self) -> u64 {
        self.observed
    }
}
