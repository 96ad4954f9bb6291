//! A lower bound on the cycles any correct run of a trace can take,
//! computed from the trace alone: an oracle that does not come from the
//! simulator it checks.
//!
//! Two limits bind every run, whatever the machine does between fetch
//! and retire:
//!
//! * **Dataflow height.** An instruction issues only once every
//!   producer it waits on has completed, and completes at least its
//!   minimum latency later: 1 cycle, `mul_latency` for a multiply, and
//!   the fastest cache level for a load. The trace's longest chain of
//!   register and memory producer→consumer edges, each at its minimum
//!   latency, is therefore a cycle no instruction on it completes
//!   before, and an instruction retires no earlier than the cycle it
//!   completes. Speculation does not help: a load or register read that
//!   issues before its producer completes is a violation, squashed and
//!   re-executed, and only an instance that waited retires.
//! * **Retire width.** At most `width` instructions retire per cycle.
//!
//! The snapshot suites pin whatever the simulator did; this bound says
//! what it could not have done. Every run asserts it in debug builds,
//! and the golden and differential suites assert it on every cell.

use crate::config::MachineConfig;
use crate::machine::PreparedTrace;
use polyflow_isa::{Dataflow, InstClass, Trace, NO_PRODUCER};

/// The fewest cycles in which any run of `prepared` on `config` can
/// retire the whole trace: the larger of the dataflow height and the
/// instruction count over the retire width. Zero for an empty trace.
pub fn cycle_bound(prepared: &PreparedTrace, config: &MachineConfig) -> u64 {
    bound(prepared.trace(), prepared.dataflow(), config)
}

pub(crate) fn bound(trace: &Trace, dataflow: &Dataflow, config: &MachineConfig) -> u64 {
    let width = config.width.max(1) as u64;
    height(trace, dataflow, config).max((trace.len() as u64).div_ceil(width))
}

/// The trace's longest producer→consumer chain at minimum latencies.
fn height(trace: &Trace, dataflow: &Dataflow, config: &MachineConfig) -> u64 {
    let load = config
        .l1_hit_latency
        .min(config.l1_miss_latency)
        .min(config.l2_miss_latency);
    // Earliest completion cycle of each instruction. Producers precede
    // their consumers in the trace, so one forward pass is enough.
    let mut done = vec![0u64; trace.len()];
    let mut height = 0;
    for (i, e) in trace.iter().enumerate() {
        let latency = match e.class() {
            InstClass::Load => load,
            InstClass::Mul => config.mul_latency,
            _ => 1,
        };
        let ready = dataflow
            .row(i)
            .into_iter()
            .filter(|&p| p != NO_PRODUCER)
            .map(|p| done[p as usize])
            .max()
            .unwrap_or(0);
        done[i] = ready + latency;
        height = height.max(done[i]);
    }
    height
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, NoSpawn, NullSink, SimOptions, SimScratch};
    use polyflow_isa::{execute_window, AluOp, Cond, ProgramBuilder, Reg};

    fn dataflow_height(prepared: &PreparedTrace, config: &MachineConfig) -> u64 {
        height(prepared.trace(), prepared.dataflow(), config)
    }

    /// `iters` iterations of four chained multiplies plus a loop counter.
    fn mul_chain(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 3);
        b.bind_label(top);
        for _ in 0..4 {
            b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, iters, top);
        b.halt();
        b.end_function();
        execute_window(&b.build().unwrap(), 100_000).unwrap().trace
    }

    #[test]
    fn multiply_chain_sets_the_height() {
        let trace = mul_chain(50);
        let cfg = MachineConfig::hpca07();
        let prepared = PreparedTrace::new(&trace, &cfg);
        // 200 chained multiplies; the first reads `li r2`, one cycle.
        assert_eq!(dataflow_height(&prepared, &cfg), 1 + 200 * cfg.mul_latency);
        let slow = MachineConfig {
            mul_latency: 7,
            ..cfg.clone()
        };
        assert_eq!(dataflow_height(&prepared, &slow), 1 + 200 * 7);
        assert_eq!(
            cycle_bound(&prepared, &cfg),
            dataflow_height(&prepared, &cfg)
        );
    }

    #[test]
    fn width_binds_a_trace_without_dependences() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        for _ in 0..64 {
            b.li(Reg::R3, 1);
        }
        b.halt();
        b.end_function();
        let trace = execute_window(&b.build().unwrap(), 1_000).unwrap().trace;
        let cfg = MachineConfig {
            width: 2,
            ..MachineConfig::superscalar()
        };
        let prepared = PreparedTrace::new(&trace, &cfg);
        assert_eq!(dataflow_height(&prepared, &cfg), 1);
        assert_eq!(cycle_bound(&prepared, &cfg), 65u64.div_ceil(2));
    }

    #[test]
    fn runs_never_beat_the_bound() {
        let trace = mul_chain(100);
        for cfg in [MachineConfig::superscalar(), MachineConfig::hpca07()] {
            let prepared = PreparedTrace::new(&trace, &cfg);
            let (r, _) = simulate(
                &prepared,
                &cfg,
                &mut NoSpawn,
                &mut SimScratch::default(),
                &mut NullSink,
                SimOptions::default(),
            )
            .unwrap();
            let bound = cycle_bound(&prepared, &cfg);
            assert!(r.cycles >= bound, "{} cycles < bound {bound}", r.cycles);
            // The serial multiply chain dominates: the run is close to it.
            assert!(r.cycles < bound + bound / 4, "{} vs {bound}", r.cycles);
        }
    }

    #[test]
    fn empty_trace_has_a_zero_bound() {
        let trace = Trace::new();
        let cfg = MachineConfig::hpca07();
        let prepared = PreparedTrace::new(&trace, &cfg);
        assert_eq!(cycle_bound(&prepared, &cfg), 0);
    }
}
