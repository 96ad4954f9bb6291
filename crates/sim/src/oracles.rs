//! The oracles of a trace that no machine configuration changes.
//!
//! A run replays a [`Trace`] with the help of precomputed oracles. All
//! but one depend on the trace alone: the dataflow producers, the PC
//! occurrence index, and the [`ConsumerIndex`] (the inverted dataflow,
//! the per-instruction class bytes and flat operand lanes the hot loops
//! read, and the trace's validation verdict). [`TraceOracles`] holds
//! exactly those, so a harness builds them once per trace and shares
//! them across every configuration. The branch-prediction replay
//! ([`PredictionTrace`](crate::PredictionTrace)) is the one oracle that
//! depends on the configuration, through
//! [`MachineConfig::predictor_key`](crate::MachineConfig::predictor_key);
//! [`TraceOracles::prepare`] adds it to make a
//! [`PreparedTrace`](crate::PreparedTrace).

use crate::config::MachineConfig;
use crate::machine::PreparedTrace;
use polyflow_isa::{Dataflow, InstClass, PcIndex, Trace, TraceError, NO_PRODUCER};
use std::sync::Arc;

/// [`ConsumerIndex::meta`] encoding: bits 0-1 issue latency class, bits
/// 2-3 fetch control class, bit 4 branch-taken. The issue and fetch hot
/// loops read this one byte, plus the trace's own address and `pc` lanes
/// (8 and 4 bytes an entry), instead of reassembling the 48-byte
/// `TraceEntry` and decoding its instruction.
pub(crate) const K_ISSUE_MASK: u8 = 0b11;
pub(crate) const K_LOAD: u8 = 1;
pub(crate) const K_STORE: u8 = 2;
pub(crate) const K_MUL: u8 = 3;
pub(crate) const K_FETCH_SHIFT: u8 = 2;
/// Conditional branch: mispredict stalls; taken transfers end the group.
pub(crate) const KF_COND: u8 = 1;
/// Call / return / indirect jump: mispredict check, then end the group.
pub(crate) const KF_STOP_PRED: u8 = 2;
/// Unconditional direct jump or halt: end the group unconditionally.
pub(crate) const KF_STOP: u8 = 3;
pub(crate) const K_TAKEN: u8 = 1 << 4;

/// The [`ConsumerIndex::meta`] byte of an instruction of `class`.
fn meta_byte(class: InstClass, taken: bool) -> u8 {
    let issue_kind = match class {
        InstClass::Load => K_LOAD,
        InstClass::Store => K_STORE,
        InstClass::Mul => K_MUL,
        _ => 0,
    };
    let fetch_kind = match class {
        InstClass::CondBranch => KF_COND,
        InstClass::Ret | InstClass::IndirectJump | InstClass::Call => KF_STOP_PRED,
        InstClass::Jump | InstClass::Halt => KF_STOP,
        _ => 0,
    };
    issue_kind | (fetch_kind << K_FETCH_SHIFT) | if taken { K_TAKEN } else { 0 }
}

/// Inverted dataflow: for every dynamic instruction, the dynamic
/// instructions that consume one of its results (register targets plus,
/// for stores, the dependent loads). CSR layout; config-independent, so
/// one index is shared by every run over a [`TraceOracles`]. It holds no
/// copy of a trace lane: the hot loops read `pc` and addresses from the
/// [`Trace`] itself.
///
/// This is what makes the issue stage event-driven: instead of rescanning
/// the whole scheduler every cycle, a completing instruction walks its
/// consumer row and schedules wakeups for the ones currently in the
/// scheduler.
#[derive(Debug)]
pub(crate) struct ConsumerIndex {
    offsets: Vec<u32>,
    edges: Vec<u32>,
    /// Packed per-instruction issue/fetch class byte (see the `K_*`
    /// constants).
    pub(crate) meta: Vec<u8>,
    /// The trace's [`Trace::validate`] verdict, taken in the same pass:
    /// every run over the trace returns it instead of re-validating.
    pub(crate) verdict: Result<(), TraceError>,
}

impl ConsumerIndex {
    /// Builds the index: one read of each trace entry for the class
    /// bytes and the verdict, then the CSR from the dataflow rows. The consumer
    /// counts land one row late, so placing with `offsets[p + 1]` as the
    /// cursor leaves it at the end of `p`'s row, which is the start of
    /// `p + 1`'s: the CSR fills in place, with no copy of the cursors.
    pub(crate) fn build(dataflow: &Dataflow, trace: &Trace) -> ConsumerIndex {
        let n = trace.len();
        let mut meta = Vec::with_capacity(n);
        let mut verdict = Ok(());
        for (i, e) in trace.iter().enumerate() {
            if verdict.is_ok() {
                verdict = trace.validate_entry(i);
            }
            meta.push(meta_byte(e.class(), e.taken));
        }

        // `offsets[p + 2]` counts `p`'s consumers (`offsets` is one
        // longer than a CSR needs, and the spare slot is dropped below).
        let mut offsets = vec![0u32; n + 2];
        for i in 0..n {
            for p in dataflow.row(i) {
                if p != NO_PRODUCER {
                    offsets[p as usize + 2] += 1;
                }
            }
        }
        for i in 2..n + 2 {
            offsets[i] += offsets[i - 1];
        }
        let mut edges = vec![0u32; offsets[n + 1] as usize];
        for i in 0..n {
            for p in dataflow.row(i) {
                if p != NO_PRODUCER {
                    let c = &mut offsets[p as usize + 1];
                    edges[*c as usize] = i as u32;
                    *c += 1;
                }
            }
        }
        offsets.pop();
        ConsumerIndex {
            offsets,
            edges,
            meta,
            verdict,
        }
    }

    /// The consumers of dynamic instruction `p`, in ascending trace order.
    #[inline]
    pub(crate) fn of(&self, p: usize) -> &[u32] {
        &self.edges[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// A trace with every oracle that no machine configuration changes: the
/// dataflow producers, the PC occurrence index and the consumer index
/// (the inverted dataflow, the hot loops' class bytes and the validation
/// verdict). Built once per trace and shared read-only (`Arc`)
/// by every configuration; [`TraceOracles::prepare`] adds the one
/// config-dependent oracle, the branch-prediction replay.
#[derive(Debug)]
pub struct TraceOracles {
    trace: Arc<Trace>,
    dataflow: Arc<Dataflow>,
    pc_index: Arc<PcIndex>,
    consumers: ConsumerIndex,
}

impl TraceOracles {
    /// Computes every config-independent oracle of `trace`.
    pub fn new(trace: Arc<Trace>) -> TraceOracles {
        let dataflow = Arc::new(trace.dataflow());
        let pc_index = Arc::new(trace.pc_index());
        TraceOracles::from_parts(trace, dataflow, pc_index)
    }

    /// Completes already-computed dataflow and PC-index oracles of
    /// `trace` with the consumer index.
    pub(crate) fn from_parts(
        trace: Arc<Trace>,
        dataflow: Arc<Dataflow>,
        pc_index: Arc<PcIndex>,
    ) -> TraceOracles {
        let consumers = ConsumerIndex::build(&dataflow, &trace);
        TraceOracles {
            trace,
            dataflow,
            pc_index,
            consumers,
        }
    }

    /// The prepared trace for `config`: these oracles plus the
    /// branch-prediction replay under `config`'s predictor.
    pub fn prepare(self: &Arc<Self>, config: &MachineConfig) -> PreparedTrace {
        PreparedTrace::from_oracles(Arc::clone(self), config)
    }

    /// The trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Shared ownership of the trace.
    pub(crate) fn trace_arc(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    /// Oracle dataflow (register and memory producers).
    pub fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }

    /// Shared ownership of the dataflow oracle.
    pub(crate) fn dataflow_arc(&self) -> Arc<Dataflow> {
        Arc::clone(&self.dataflow)
    }

    /// Dynamic occurrences of each static PC.
    pub fn pc_index(&self) -> &PcIndex {
        &self.pc_index
    }

    /// Shared ownership of the PC occurrence index.
    pub(crate) fn pc_index_arc(&self) -> Arc<PcIndex> {
        Arc::clone(&self.pc_index)
    }

    /// Inverted dataflow and the hot loops' class bytes.
    pub(crate) fn consumers(&self) -> &ConsumerIndex {
        &self.consumers
    }

    /// The trace's [`Trace::validate`] verdict, taken once when the
    /// oracles were built.
    pub(crate) fn validity(&self) -> Result<(), TraceError> {
        self.consumers.verdict
    }
}

/// `ConsumerIndex::build` as it was before the in-place CSR: three
/// passes, a copied cursor array, and the per-instruction minimum
/// producer the dispatch fast path used to read. Kept as the
/// differential reference.
#[cfg(test)]
mod reference {
    use super::*;

    /// Every lane the old build produced.
    #[derive(Debug, PartialEq, Eq)]
    pub(super) struct Lanes {
        pub offsets: Vec<u32>,
        pub edges: Vec<u32>,
        pub min_prod: Vec<u32>,
        pub meta: Vec<u8>,
        pub data_addr: Vec<u64>,
        pub pc_word: Vec<u32>,
        pub verdict: Result<(), TraceError>,
    }

    pub(super) fn build(dataflow: &Dataflow, trace: &Trace) -> Lanes {
        let n = trace.len();
        let mut offsets = vec![0u32; n + 1];
        let mut min_prod = vec![u32::MAX; n];
        for (i, mp) in min_prod.iter_mut().enumerate() {
            let row = dataflow.row(i);
            for p in row {
                if p != NO_PRODUCER {
                    offsets[p as usize + 1] += 1;
                }
            }
            *mp = row.into_iter().min().unwrap_or(NO_PRODUCER);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![0u32; offsets[n] as usize];
        for i in 0..n {
            for p in dataflow.row(i) {
                if p != NO_PRODUCER {
                    let c = &mut cursor[p as usize];
                    edges[*c as usize] = i as u32;
                    *c += 1;
                }
            }
        }
        let mut meta = vec![0u8; n];
        let mut data_addr = vec![0u64; n];
        let mut pc_word = vec![0u32; n];
        let mut verdict = Ok(());
        for (i, e) in trace.iter().enumerate() {
            if verdict.is_ok() {
                verdict = trace.validate_entry(i);
            }
            let issue_kind = match e.class() {
                InstClass::Load => K_LOAD,
                InstClass::Store => K_STORE,
                InstClass::Mul => K_MUL,
                _ => 0,
            };
            let fetch_kind = match e.class() {
                InstClass::CondBranch => KF_COND,
                InstClass::Ret | InstClass::IndirectJump | InstClass::Call => KF_STOP_PRED,
                InstClass::Jump | InstClass::Halt => KF_STOP,
                _ => 0,
            };
            meta[i] =
                issue_kind | (fetch_kind << K_FETCH_SHIFT) | if e.taken { K_TAKEN } else { 0 };
            data_addr[i] = e.mem_addr.unwrap_or(0);
            pc_word[i] = e.pc.index() as u32;
        }
        Lanes {
            offsets,
            edges,
            min_prod,
            meta,
            data_addr,
            pc_word,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_pred::reference as predictions_reference;
    use crate::PredictionTrace;
    use polyflow_bench::fuzz::{self, Fault, GenDist};
    use polyflow_isa::rng::SplitMix64;
    use polyflow_isa::{execute_window, Interpreter, Program, TraceEntry};

    /// The new index has every lane of the reference build but the two
    /// the hot loops now read from the trace itself, which hold what the
    /// reference's copies held; the minimum producer the dispatch fast
    /// path now takes from the dataflow row is the one the reference
    /// stored; and the prediction replays over the trace and over its
    /// lanes match the replay over `entries`, the trace in the old
    /// layout.
    fn assert_matches_reference(name: &str, trace: &Trace, entries: &[TraceEntry]) {
        let dataflow = trace.dataflow();
        let new = ConsumerIndex::build(&dataflow, trace);
        let old = reference::build(&dataflow, trace);
        assert_eq!(new.offsets, old.offsets, "{name}: offsets");
        assert_eq!(new.edges, old.edges, "{name}: edges");
        assert_eq!(new.meta, old.meta, "{name}: meta");
        assert_eq!(trace.mem_addrs(), old.data_addr, "{name}: data_addr");
        assert!(
            trace
                .pcs()
                .iter()
                .map(|pc| pc.index() as u32)
                .eq(old.pc_word.iter().copied()),
            "{name}: pc_word"
        );
        assert_eq!(new.verdict, old.verdict, "{name}: verdict");
        assert_eq!(new.verdict, trace.validate(), "{name}: first defect");
        for (i, &mp) in old.min_prod.iter().enumerate() {
            let row_min = dataflow.row(i).into_iter().min().unwrap_or(NO_PRODUCER);
            assert_eq!(row_min, mp, "{name}: min producer of {i}");
        }
        // The branch-prediction replay over the lanes matches the one
        // over the entries, on the default predictor and a tiny one.
        let oracles = TraceOracles::from_parts(
            Arc::new(trace.clone()),
            Arc::new(dataflow),
            Arc::new(trace.pc_index()),
        );
        let tiny = MachineConfig {
            gshare_index_bits: 4,
            gshare_history_bits: 2,
            ras_entries: 2,
            ..MachineConfig::hpca07()
        };
        assert!(trace.iter().eq(entries.iter().copied()), "{name}: entries");
        for cfg in [MachineConfig::hpca07(), tiny] {
            let old = predictions_reference::compute(entries, &cfg);
            assert_eq!(
                PredictionTrace::from_oracles(&oracles, &cfg),
                old,
                "{name}: predictions over the lanes"
            );
            assert_eq!(
                PredictionTrace::compute(trace, &cfg),
                old,
                "{name}: predictions"
            );
        }
    }

    /// `program`'s first `window` entries as the interpreter steps them.
    fn stepped(program: &Program, window: u64) -> Vec<TraceEntry> {
        let mut interp = Interpreter::new(program);
        let mut entries = Vec::new();
        while (entries.len() as u64) < window {
            match interp.step().unwrap() {
                Some(e) => entries.push(e),
                None => break,
            }
        }
        entries
    }

    /// The trace of `program`, and its corruption by every fault operator
    /// of the fuzz harness.
    fn check_program(name: &str, program: &Program, window: u64, seed: u64) {
        let trace = execute_window(program, window).unwrap().trace;
        let entries = stepped(program, window);
        assert_matches_reference(name, &trace, &entries);
        check_corruptions(name, program, &trace, &entries, seed);
    }

    /// Each corruption lands on the old layout as the one entry it
    /// rewrote (or the truncation it made).
    fn check_corruptions(
        name: &str,
        program: &Program,
        trace: &Trace,
        entries: &[TraceEntry],
        seed: u64,
    ) {
        let mut rng = SplitMix64::new(seed);
        for fault in Fault::ALL {
            let mut corrupted = trace.clone();
            if let Some(i) = fuzz::inject(&mut corrupted, fault, program, &mut rng) {
                let mut old = entries[..corrupted.len()].to_vec();
                if let Some(e) = old.get_mut(i) {
                    *e = corrupted.entry(i);
                }
                assert_matches_reference(&format!("{name} {fault:?}"), &corrupted, &old);
            }
        }
    }

    /// The bundled traces are long, so only the first bundled workload
    /// goes through every corruption.
    #[test]
    fn matches_reference_on_bundled_workloads() {
        for (k, w) in polyflow_workloads::all().into_iter().enumerate() {
            let trace = execute_window(&w.program, w.window).unwrap().trace;
            let entries = stepped(&w.program, w.window);
            assert_matches_reference(&w.name, &trace, &entries);
            if k == 0 {
                check_corruptions(&w.name, &w.program, &trace, &entries, 7);
            }
        }
    }

    #[test]
    fn matches_reference_on_asm_programs_and_generated_buckets() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads/asm");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "asm"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no checked-in asm programs");
        for path in paths {
            let w = polyflow_workloads::from_asm_file(&path).unwrap();
            check_program(&w.name, &w.program, w.window, 11);
        }
        for (bucket, dist) in GenDist::BUCKETS {
            for seed in 0..4 {
                let program = fuzz::random_program_with(seed, &dist);
                check_program(&format!("{bucket}/{seed}"), &program, fuzz::WINDOW, seed);
            }
        }
    }

    #[test]
    fn matches_reference_on_the_fuzz_corpus() {
        for seed in fuzz::corpus_program_seeds() {
            check_program(
                &format!("corpus {seed:#x}"),
                &fuzz::random_program(seed),
                fuzz::WINDOW,
                seed,
            );
        }
    }

    #[test]
    fn empty_trace_has_empty_rows() {
        let trace = Trace::new();
        assert_matches_reference("empty", &trace, &[]);
        assert_eq!(
            ConsumerIndex::build(&trace.dataflow(), &trace).offsets,
            vec![0]
        );
    }
}
