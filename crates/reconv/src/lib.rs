//! Dynamic reconvergence prediction, modeled after Collins, Tullsen and
//! Wang, *Control Flow Optimization via Dynamic Reconvergence Prediction*
//! (MICRO-37), as used by the paper's §2.4/§4.4 to reconstruct immediate
//! postdominator information at run time.
//!
//! A [`ReconvergencePredictor`] observes the committed (retired)
//! instruction stream. For each static conditional branch it learns a
//! *reconvergence point*: the PC where control flow is expected to rejoin
//! regardless of the branch direction. That point approximates the
//! immediate postdominator of the branch's basic block and can be used as
//! a spawn target without any compiler support.
//!
//! Following the paper:
//!
//! * the predictor trains on the retirement stream (§4.4), so **warm-up
//!   effects are modeled** — a branch predicts nothing until it has been
//!   observed, and poorly until both directions have retired;
//! * capacity and conflict effects in the predictor's storage are **not**
//!   modeled (the paper makes the same simplification in §4.4);
//! * candidates are maintained in categories; the most important category
//!   is a reconvergence PC **below** the branch PC in program layout
//!   (§2.4), which captures if/if-else joins and loop fall-throughs; a
//!   second category covers reconvergence **at or above** the branch
//!   (loop headers reached by backward branches).
//!
//! # Representation
//!
//! The predictor runs on every retired instruction of a simulation, so
//! its state is dense and indexed by [`Pc::index`]:
//!
//! * each branch's taken, not-taken and indirect-jump candidate sets are
//!   bitsets over PCs, with their cardinality kept alongside for the
//!   per-direction cap. "The first candidate below the branch", the
//!   intersection of both directions and the union of both become word
//!   scans that never build the combined set;
//! * the branch table and the one-window-per-static-branch tracking
//!   state are `Vec`s indexed by PC;
//! * every open training window is a contiguous run of the retirement
//!   stream, so all of them are slices of one shared history of retired
//!   PCs, kept from the oldest open window's start on. An instruction is
//!   appended once, not once per open window.
//!
//! Memory therefore grows with the highest PC a branch's windows reach,
//! not with the number of distinct PCs. The predictions are exactly those
//! of the ordered-set formulation it replaced, which the crate's tests
//! keep as a differential oracle.
//!
//! # Example
//!
//! ```
//! use polyflow_reconv::{ReconvConfig, ReconvergencePredictor};
//! use polyflow_isa::{ProgramBuilder, Reg, Cond, AluOp, execute_window};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.begin_function("main");
//! let skip = b.fresh_label("skip");
//! b.li(Reg::R1, 0);
//! let top = b.fresh_label("top");
//! b.bind_label(top);
//! b.alui(AluOp::And, Reg::R2, Reg::R1, 1);
//! b.br_imm(Cond::Eq, Reg::R2, 0, skip);        // alternating hammock
//! b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
//! b.bind_label(skip);
//! b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);     // join
//! b.br_imm(Cond::Lt, Reg::R1, 50, top);
//! b.halt();
//! b.end_function();
//! let program = b.build()?;
//! let trace = execute_window(&program, 10_000)?.trace;
//!
//! let mut pred = ReconvergencePredictor::new(ReconvConfig::default());
//! for e in &trace {
//!     pred.observe(&e);
//! }
//! // The hammock branch's reconvergence point is the join.
//! let branch_pc = trace.iter().find(|e| e.inst.is_cond_branch()).unwrap().pc;
//! assert!(pred.predict(branch_pc).is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(test)]
mod reference;

use polyflow_isa::{Inst, Pc, TraceEntry};
use std::collections::VecDeque;

/// Which candidate category produced a prediction (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconvCategory {
    /// Reconvergence PC lies below the branch PC in program layout — the
    /// paper's "most important" category: forward if/if-else joins and the
    /// fall-throughs of backward loop branches.
    Below,
    /// Reconvergence PC at or above the branch PC (e.g. a loop header).
    AboveOrEqual,
    /// Only one direction has been observed: the predictor falls back to
    /// the first PC committed after the branch on that path.
    SingleDirection,
}

/// Configuration for the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconvConfig {
    /// How many committed instructions after a branch are considered when
    /// searching for its reconvergence point (0 counts as 1).
    pub window: usize,
    /// Cap on stored distinct PCs per branch direction (idealized storage;
    /// insertions stop at the cap).
    pub max_pcs_per_direction: usize,
    /// Number of training observations of a direction before its PC set is
    /// considered stable enough to predict from.
    pub min_observations: u32,
}

impl Default for ReconvConfig {
    fn default() -> Self {
        ReconvConfig {
            window: 256,
            max_pcs_per_direction: 512,
            min_observations: 1,
        }
    }
}

/// A set of PCs: a bitset over [`Pc::index`] that grows to the highest
/// PC inserted, with its cardinality kept alongside so the
/// per-direction cap costs one compare.
#[derive(Debug, Clone, Default)]
struct PcSet {
    words: Vec<u64>,
    len: usize,
}

impl PcSet {
    #[inline]
    fn insert(&mut self, pc: u32) {
        let w = (pc >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (pc & 63);
        self.len += (self.words[w] & bit == 0) as usize;
        self.words[w] |= bit;
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Keeps only the PCs also in `other`.
    fn intersect_with(&mut self, other: &PcSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.word(i);
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// The smallest member at or above PC index `from`.
    fn first_from(&self, from: usize) -> Option<Pc> {
        first_from(self.words.len(), from, |i| self.words[i])
    }
}

/// The smallest set bit at or above bit `from` of the bitset whose `i`th
/// word is `word(i)`, for `i < len`: one word scan, so intersections and
/// unions of [`PcSet`]s are searched without being built.
#[inline]
fn first_from(len: usize, from: usize, word: impl Fn(usize) -> u64) -> Option<Pc> {
    let mut i = from / 64;
    if i >= len {
        return None;
    }
    let mut w = word(i) & (!0u64 << (from % 64));
    loop {
        if w != 0 {
            return Some(Pc::new((i * 64) as u32 + w.trailing_zeros()));
        }
        i += 1;
        if i >= len {
            return None;
        }
        w = word(i);
    }
}

#[derive(Debug, Default, Clone)]
struct BranchEntry {
    taken_pcs: PcSet,
    not_taken_pcs: PcSet,
    taken_obs: u32,
    not_taken_obs: u32,
    /// True if the branch's taken target is at or above the branch itself
    /// (a backward branch, i.e. a loop branch).
    backward: bool,
    /// For indirect jumps: the running intersection of committed-PC
    /// windows across instances. PCs common to *every* observed path are
    /// the reconvergence region (Collins et al. used the predictor for
    /// indirect jumps in DMT; the paper's §4.4 spawns at their
    /// reconvergence points too).
    jr_common: Option<PcSet>,
    jr_obs: u32,
}

/// `slot` value of a PC with no branch-table entry.
const NO_ENTRY: u32 = u32::MAX;

/// The training window a static branch has open: the retired
/// instructions from sequence number `start` on.
#[derive(Debug, Clone, Copy)]
struct OpenWindow {
    start: u64,
    taken: bool,
    is_jr: bool,
}

/// Learns per-branch reconvergence points from the retirement stream.
///
/// Feed every retired instruction to [`observe`](Self::observe) in program
/// order; query [`predict`](Self::predict) at any time (typically at fetch,
/// as the Task Spawn Unit does).
#[derive(Debug)]
pub struct ReconvergencePredictor {
    config: ReconvConfig,
    /// `slot[pc]`: the static branch's index in `entries`, or `NO_ENTRY`.
    slot: Vec<u32>,
    entries: Vec<BranchEntry>,
    /// `open[pc]`: the window the static branch at `pc` is training (one
    /// per static branch at a time, like the hardware's single active
    /// entry).
    open: Vec<Option<OpenWindow>>,
    /// Open windows in opening order as `(branch pc, start)`, which is
    /// also the order they fill in. A window closed early by its branch
    /// recommitting stays queued until it reaches the front, where its
    /// stale start gives it away.
    queue: VecDeque<(u32, u64)>,
    /// The PCs retired since sequence number `history_base`, the start of
    /// the oldest queued window: every open window is a slice of it.
    history: VecDeque<u32>,
    history_base: u64,
    /// Reused per-window set for indirect-jump training.
    jr_window: PcSet,
    observed: u64,
}

impl ReconvergencePredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: ReconvConfig) -> ReconvergencePredictor {
        ReconvergencePredictor {
            config,
            slot: Vec::new(),
            entries: Vec::new(),
            open: Vec::new(),
            queue: VecDeque::new(),
            history: VecDeque::new(),
            history_base: 0,
            jr_window: PcSet::default(),
            observed: 0,
        }
    }

    /// Observes one retired instruction.
    ///
    /// Conditional branches open a training window (one per static branch
    /// at a time); every later instruction extends open windows. A window
    /// closes when it fills, or — crucially for loops — when the same
    /// static branch commits again: reconvergence for an instance must
    /// happen before the branch re-executes, so later-iteration PCs must
    /// not pollute the candidate sets.
    pub fn observe(&mut self, e: &TraceEntry) {
        let seq = self.observed;
        self.observed += 1;
        let pc = e.pc.index();
        if self.queue.is_empty() {
            self.history.clear();
            self.history_base = seq;
        }
        self.history.push_back(pc as u32);
        // The branch recommits: its window ends just before this
        // instruction.
        if let Some(w) = self.open.get_mut(pc).and_then(Option::take) {
            self.commit_window(pc, w, seq);
        }
        // Windows that this instruction fills end with it.
        let window = self.config.window.max(1) as u64;
        while let Some(&(bpc, start)) = self.queue.front() {
            let bpc = bpc as usize;
            let live = self.open[bpc].filter(|w| w.start == start);
            if live.is_some() && seq + 1 - start < window {
                break;
            }
            self.queue.pop_front();
            if let Some(w) = live {
                self.open[bpc] = None;
                self.commit_window(bpc, w, seq + 1);
            }
        }
        // Open a new window for this branch or indirect jump.
        let is_jr = matches!(e.inst, Inst::Jr { .. });
        if e.inst.is_cond_branch() || is_jr {
            if let Inst::Br { target, .. } = e.inst {
                let i = self.entry_index(pc);
                self.entries[i].backward = target <= e.pc;
            }
            if self.open.len() <= pc {
                self.open.resize(pc + 1, None);
            }
            self.open[pc] = Some(OpenWindow {
                start: seq + 1,
                taken: e.taken,
                is_jr,
            });
            self.queue.push_back((pc as u32, seq + 1));
        }
        // Only the oldest queued window's start on is still needed.
        let keep_from = self.queue.front().map_or(seq + 1, |&(_, start)| start);
        let drop = (keep_from - self.history_base) as usize;
        self.history.drain(..drop.min(self.history.len()));
        self.history_base = keep_from;
    }

    /// Flushes any still-open training windows (call at end of stream).
    pub fn flush(&mut self) {
        while let Some((bpc, start)) = self.queue.pop_front() {
            let bpc = bpc as usize;
            if let Some(w) = self.open[bpc].filter(|w| w.start == start) {
                self.open[bpc] = None;
                self.commit_window(bpc, w, self.observed);
            }
        }
    }

    /// The index in `entries` of `pc`'s branch-table entry, created on
    /// first touch.
    fn entry_index(&mut self, pc: usize) -> usize {
        if self.slot.len() <= pc {
            self.slot.resize(pc + 1, NO_ENTRY);
        }
        if self.slot[pc] == NO_ENTRY {
            self.slot[pc] = self.entries.len() as u32;
            self.entries.push(BranchEntry::default());
        }
        self.slot[pc] as usize
    }

    /// Trains `pc`'s entry on the window `w`, which holds the retired
    /// instructions from `w.start` up to (not including) `end`.
    fn commit_window(&mut self, pc: usize, w: OpenWindow, end: u64) {
        let cap = self.config.max_pcs_per_direction;
        let from = (w.start - self.history_base) as usize;
        let to = (end - self.history_base) as usize;
        let i = self.entry_index(pc);
        let entry = &mut self.entries[i];
        let pcs = self.history.range(from..to);
        if w.is_jr {
            let window = &mut self.jr_window;
            window.clear();
            for &p in pcs.take(cap) {
                window.insert(p);
            }
            entry.jr_obs += 1;
            match &mut entry.jr_common {
                None => entry.jr_common = Some(window.clone()),
                Some(common) => common.intersect_with(window),
            }
            return;
        }
        let (set, obs) = if w.taken {
            (&mut entry.taken_pcs, &mut entry.taken_obs)
        } else {
            (&mut entry.not_taken_pcs, &mut entry.not_taken_obs)
        };
        *obs += 1;
        // The cap makes the set depend on insertion order: stop at the
        // first PC that finds it full, exactly as a bounded table would.
        for &p in pcs {
            if set.len >= cap {
                break;
            }
            set.insert(p);
        }
    }

    /// Predicts the reconvergence point for the branch at `branch_pc`.
    ///
    /// Returns `None` for never-observed branches (warm-up, §4.4).
    pub fn predict(&self, branch_pc: Pc) -> Option<Pc> {
        self.predict_with_category(branch_pc).map(|(pc, _)| pc)
    }

    /// Predicts the reconvergence point along with its category.
    pub fn predict_with_category(&self, branch_pc: Pc) -> Option<(Pc, ReconvCategory)> {
        let slot = *self.slot.get(branch_pc.index())?;
        let e = self.entries.get(slot as usize)?;
        let below = branch_pc.index() + 1;
        // Indirect jumps: the intersection of committed windows across
        // instances is the common (reconvergence) region; take its first
        // PC below the jump.
        if let Some(common) = &e.jr_common {
            if e.jr_obs >= 2 {
                return common
                    .first_from(below)
                    .map(|pc| (pc, ReconvCategory::Below));
            }
        }
        if e.taken_obs == 0 && e.not_taken_obs == 0 {
            return None;
        }
        let (t, n) = (&e.taken_pcs, &e.not_taken_pcs);
        let words = t.words.len().max(n.words.len());
        // Backward (loop) branches: per-instance windows end when the
        // branch recommits, so loop-body PCs all lie at or above the
        // branch; the reconvergence point is the first layout PC *after*
        // the branch ever committed in its wake — the loop fall-through.
        if e.backward {
            return first_from(words, below, |i| t.word(i) | n.word(i))
                .map(|pc| (pc, ReconvCategory::Below));
        }
        let both = e.taken_obs >= self.config.min_observations
            && e.not_taken_obs >= self.config.min_observations;
        if both {
            // Intersection of PCs seen on both paths: its first PC below
            // the branch, else its first PC at or above it.
            let common = |from| first_from(words, from, |i| t.word(i) & n.word(i));
            if let Some(pc) = common(below) {
                return Some((pc, ReconvCategory::Below));
            }
            if let Some(pc) = common(0) {
                return Some((pc, ReconvCategory::AboveOrEqual));
            }
            // Empty intersection: typical of a forward loop-exit branch
            // whose taken side leaves the loop — per-instance windows end
            // when the branch recommits, so the exit code only ever shows
            // up on the taken side. Its first PC approximates the loop
            // fall-through.
            return t.first_from(below).map(|pc| (pc, ReconvCategory::Below));
        }
        // Single-direction fallback: the first committed PC after the
        // branch on the observed path, preferring a PC below the branch
        // (paper's dominant category).
        let seen = if e.taken_obs > 0 { t } else { n };
        seen.first_from(below)
            .or_else(|| seen.first_from(0))
            .map(|pc| (pc, ReconvCategory::SingleDirection))
    }

    /// Number of static branches with any training state.
    pub fn trained_branches(&self) -> usize {
        self.entries.len()
    }

    /// Number of static branches observed in both directions.
    pub fn fully_trained_branches(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.taken_obs > 0 && e.not_taken_obs > 0)
            .count()
    }

    /// Total instructions observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The configuration in use.
    pub fn config(&self) -> ReconvConfig {
        self.config
    }
}

/// Trains a predictor over a full trace (convenience for offline use; the
/// timing simulator instead calls [`ReconvergencePredictor::observe`] at
/// retire time to model warm-up).
pub fn train_on_trace(trace: &polyflow_isa::Trace, config: ReconvConfig) -> ReconvergencePredictor {
    let mut p = ReconvergencePredictor::new(config);
    for e in trace {
        p.observe(&e);
    }
    p.flush();
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg};

    /// Alternating hammock inside a loop; returns (program, branch pc,
    /// join pc, loop-branch pc, after-loop pc).
    fn hammock_loop() -> (Program, Pc, Pc, Pc, Pc) {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let skip = b.fresh_label("skip");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0); // 0
        b.bind_label(top);
        b.alui(AluOp::And, Reg::R2, Reg::R1, 1); // 1
        let branch = b.br_imm(Cond::Eq, Reg::R2, 0, skip); // 2,3
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 1); // 4 then
        b.bind_label(skip);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 5 join
        let loop_branch = b.br_imm(Cond::Lt, Reg::R1, 50, top); // 6,7
        b.halt(); // 8
        b.end_function();
        let p = b.build().unwrap();
        (p, branch, Pc::new(5), loop_branch, Pc::new(8))
    }

    fn trained(p: &Program) -> ReconvergencePredictor {
        let trace = execute_window(p, 100_000).unwrap().trace;
        train_on_trace(&trace, ReconvConfig::default())
    }

    #[test]
    fn hammock_branch_reconverges_at_join() {
        let (p, branch, join, _, _) = hammock_loop();
        let pred = trained(&p);
        let (pc, cat) = pred.predict_with_category(branch).unwrap();
        assert_eq!(pc, join);
        assert_eq!(cat, ReconvCategory::Below);
    }

    #[test]
    fn loop_branch_reconverges_below() {
        let (p, _, _, loop_branch, after) = hammock_loop();
        let pred = trained(&p);
        let (pc, cat) = pred.predict_with_category(loop_branch).unwrap();
        // Both directions were observed (loop ran and exited): the first
        // common PC below the branch is the loop fall-through.
        assert_eq!(pc, after);
        assert_eq!(cat, ReconvCategory::Below);
    }

    #[test]
    fn unobserved_branch_predicts_nothing() {
        let (p, _, _, _, _) = hammock_loop();
        let pred = trained(&p);
        assert_eq!(pred.predict(Pc::new(999)), None);
    }

    #[test]
    fn warm_up_requires_observation() {
        let (p, branch, _, _, _) = hammock_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let mut pred = ReconvergencePredictor::new(ReconvConfig::default());
        assert_eq!(pred.predict(branch), None, "cold predictor knows nothing");
        // Feed only the first three instructions: branch not yet retired
        // with both directions + window.
        for e in trace.iter().take(3) {
            pred.observe(&e);
        }
        // The branch itself retired at index 3... not yet: entries 0,1,2.
        assert_eq!(pred.predict(branch), None);
        for e in &trace {
            pred.observe(&e);
        }
        pred.flush();
        assert!(pred.predict(branch).is_some());
    }

    #[test]
    fn single_direction_fallback() {
        // A branch that never goes the other way within the window.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let skip = b.fresh_label("skip");
        let branch = b.br_imm(Cond::Eq, Reg::R0, 1, skip); // never taken
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.bind_label(skip);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let pred = trained(&p);
        let (pc, cat) = pred.predict_with_category(branch).unwrap();
        assert_eq!(cat, ReconvCategory::SingleDirection);
        // First PC after the branch on the not-taken path.
        assert_eq!(pc, Pc::new(2));
    }

    #[test]
    fn backward_reconvergence_category_exists() {
        // Construct a branch whose only common PC across both directions
        // is at/above the branch: both arms jump back to the loop top and
        // the program never commits a common PC below the branch within
        // the window... then exits via a different branch.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let arm2 = b.fresh_label("arm2");
        let merge_back = b.fresh_label("mb");
        b.li(Reg::R1, 0); // 0
        b.bind_label(top); // 1
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // 1
        b.alui(AluOp::And, Reg::R2, Reg::R1, 1); // 2
        let exit_br = b.br_imm(Cond::Gt, Reg::R1, 40, merge_back); // 3,4 (exits high)
        let split = b.br_imm(Cond::Eq, Reg::R2, 0, arm2); // 5,6
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 1); // 7 arm1
        b.jmp(top); // 8
        b.bind_label(arm2);
        b.alui(AluOp::Add, Reg::R4, Reg::R4, 1); // 9 arm2
        b.jmp(top); // 10
        b.bind_label(merge_back);
        b.halt(); // 11
        b.end_function();
        let p = b.build().unwrap();
        let pred = trained(&p);
        let (_, cat) = pred.predict_with_category(split).unwrap();
        assert_eq!(cat, ReconvCategory::AboveOrEqual);
        let _ = exit_br;
    }

    #[test]
    fn training_statistics() {
        let (p, _, _, _, _) = hammock_loop();
        let pred = trained(&p);
        assert!(pred.trained_branches() >= 2);
        assert!(pred.fully_trained_branches() >= 1);
        assert!(pred.observed() > 100);
        assert_eq!(pred.config().window, 256);
    }

    #[test]
    fn window_limits_visibility() {
        // With a tiny window the loop fall-through (only visible at loop
        // exit, far away) cannot be learned from early iterations.
        let (p, branch, join, _, _) = hammock_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let mut pred = ReconvergencePredictor::new(ReconvConfig {
            window: 4,
            ..ReconvConfig::default()
        });
        for e in &trace {
            pred.observe(&e);
        }
        pred.flush();
        // The hammock join is 2-3 instructions away: still learnable.
        assert_eq!(pred.predict(branch), Some(join));
    }

    #[test]
    fn flush_commits_partial_windows() {
        // A branch that executes exactly once: its window can only be
        // committed by an explicit flush (it never fills, and the branch
        // never recommits).
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let skip = b.fresh_label("skip");
        let branch = b.br_imm(Cond::Eq, Reg::R0, 1, skip);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.bind_label(skip);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100).unwrap().trace;
        let mut pred = ReconvergencePredictor::new(ReconvConfig {
            window: 1_000_000, // the window never fills naturally
            ..ReconvConfig::default()
        });
        for e in &trace {
            pred.observe(&e);
        }
        assert_eq!(pred.predict(branch), None, "window still open");
        pred.flush();
        assert!(pred.predict(branch).is_some(), "flush commits training");
    }
}

/// Differential oracle: the dense predictor against the ordered-set
/// reference it replaced, trained side by side on the same retirement
/// streams and compared on every query at checkpoints during training.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::reference::ReferencePredictor;
    use polyflow_bench::fuzz::{random_program_with, GenDist, WINDOW};
    use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg, Trace};

    /// The default table, a tiny one whose per-direction cap binds within
    /// a few windows (the cap makes the sets depend on insertion order),
    /// and one that needs two observations per direction.
    const CONFIGS: [ReconvConfig; 3] = [
        ReconvConfig {
            window: 256,
            max_pcs_per_direction: 512,
            min_observations: 1,
        },
        ReconvConfig {
            window: 16,
            max_pcs_per_direction: 3,
            min_observations: 1,
        },
        ReconvConfig {
            window: 64,
            max_pcs_per_direction: 24,
            min_observations: 2,
        },
    ];

    fn assert_agree(
        name: &str,
        at: u64,
        program_len: usize,
        dense: &ReconvergencePredictor,
        reference: &ReferencePredictor,
    ) {
        let ctx = || format!("{name} after {at} retired ({:?})", dense.config());
        assert_eq!(dense.observed(), reference.observed(), "{}", ctx());
        assert_eq!(
            dense.trained_branches(),
            reference.trained_branches(),
            "{}",
            ctx()
        );
        assert_eq!(
            dense.fully_trained_branches(),
            reference.fully_trained_branches(),
            "{}",
            ctx()
        );
        for pc in (0..program_len as u32 + 2).map(Pc::new) {
            assert_eq!(
                dense.predict_with_category(pc),
                reference.predict_with_category(pc),
                "{}: branch {pc}",
                ctx()
            );
        }
    }

    /// Trains both predictors on `trace` under every config, comparing
    /// them every `stride` retired instructions, at the end of the
    /// stream, and after the flush. Returns the indirect jumps retired.
    fn check_trace(name: &str, program: &Program, trace: &Trace, stride: usize) -> usize {
        for config in CONFIGS {
            let mut dense = ReconvergencePredictor::new(config);
            let mut reference = ReferencePredictor::new(config);
            for (i, e) in trace.iter().enumerate() {
                dense.observe(&e);
                reference.observe(&e);
                if (i + 1) % stride == 0 {
                    assert_agree(name, i as u64 + 1, program.len(), &dense, &reference);
                }
            }
            assert_agree(name, trace.len() as u64, program.len(), &dense, &reference);
            dense.flush();
            reference.flush();
            assert_agree(name, trace.len() as u64, program.len(), &dense, &reference);
        }
        trace
            .iter()
            .filter(|e| matches!(e.inst, Inst::Jr { .. }))
            .count()
    }

    fn trace_of(program: &Program, window: u64) -> Trace {
        execute_window(program, window).unwrap().trace
    }

    #[test]
    fn dense_matches_reference_on_bundled_workloads() {
        let mut jr = 0;
        for w in polyflow_workloads::all() {
            let trace = trace_of(&w.program, w.window);
            jr += check_trace(&w.name, &w.program, &trace, 20_011);
        }
        assert!(jr > 0, "no bundled workload retired an indirect jump");
    }

    #[test]
    fn dense_matches_reference_on_checked_in_asm_programs() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads/asm");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "asm"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 3, "the checked-in asm programs changed");
        for path in paths {
            let w = polyflow_workloads::from_asm_file(&path).unwrap();
            let trace = trace_of(&w.program, w.window);
            check_trace(&w.name, &w.program, &trace, 997);
        }
    }

    #[test]
    fn dense_matches_reference_on_every_generator_bucket() {
        for (bucket, dist) in &GenDist::BUCKETS {
            for seed in 0..4u64 {
                let program = random_program_with(0x5eed_0000 + seed, dist);
                let trace = trace_of(&program, WINDOW);
                check_trace(&format!("{bucket}/{seed}"), &program, &trace, 499);
            }
        }
    }

    /// A dispatch loop whose indirect jump picks one of four cases, so
    /// jump windows intersect across different paths, and the jump's
    /// window is cut by the per-direction cap in the tiny config.
    #[test]
    fn dense_matches_reference_on_indirect_jump_windows() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let join = b.fresh_label("join");
        let cases: Vec<_> = (0..4).map(|k| b.fresh_label(&format!("case{k}"))).collect();
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.alui(AluOp::And, Reg::R2, Reg::R1, 3);
        polyflow_workloads::dsl::emit_dispatch(&mut b, Reg::R2, &cases);
        for (k, &case) in cases.iter().enumerate() {
            b.bind_label(case);
            for _ in 0..=k {
                b.alui(AluOp::Add, Reg::R3, Reg::R3, k as i64 + 1);
            }
            b.jmp(join);
        }
        b.bind_label(join);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 60, top);
        b.halt();
        b.end_function();
        let program = b.build().unwrap();
        let trace = trace_of(&program, 100_000);
        assert!(check_trace("dispatch", &program, &trace, 7) >= 60);
    }
}
