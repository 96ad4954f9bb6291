//! Parameterized synthetic kernels.
//!
//! The twelve named stand-ins model specific SPEC benchmarks; this module
//! generates kernels from a *parameter vector* instead, so users can ask
//! questions like "how does postdominator spawning respond as branch
//! predictability degrades?" without writing assembly.
//!
//! ```
//! use polyflow_workloads::synth::{Knobs, generate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = generate(&Knobs {
//!     hammocks_per_iteration: 3,
//!     hammock_bias_percent: 50,
//!     calls_per_iteration: 1,
//!     ..Knobs::default()
//! });
//! let trace = polyflow_isa::execute_window(&program, 500_000)?.trace;
//! assert!(!trace.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::dsl;
use polyflow_isa::{AluOp, Cond, Program, ProgramBuilder, Reg};

/// Control-flow knobs of a generated kernel.
///
/// The kernel is an outer loop of `iterations` rounds; each round draws a
/// data word from a random input table and runs the configured mix of
/// hammocks, inner loops, calls, and memory traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// Outer-loop rounds.
    pub iterations: i64,
    /// If-then-else hammocks per round.
    pub hammocks_per_iteration: usize,
    /// Probability (0–100) that a hammock takes its then-arm. 50 is
    /// maximally unpredictable; 0 or 100 is fully predictable.
    pub hammock_bias_percent: u8,
    /// Instructions per hammock arm.
    pub arm_length: usize,
    /// Calls to a shared leaf function per round.
    pub calls_per_iteration: usize,
    /// Leaf-function body length (serial instructions).
    pub leaf_length: usize,
    /// Inner counted loops per round.
    pub inner_loops_per_iteration: usize,
    /// Trip count of each inner loop.
    pub inner_trip_count: i64,
    /// Random loads per round from a table of this many words (0 = no
    /// memory traffic). Sizes beyond the 2 048-word L1 D-cache generate
    /// misses.
    pub data_words: usize,
    /// Independent single-cycle instructions per round (ILP filler).
    pub filler: usize,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            iterations: 2_000,
            hammocks_per_iteration: 2,
            hammock_bias_percent: 50,
            arm_length: 6,
            calls_per_iteration: 0,
            leaf_length: 20,
            inner_loops_per_iteration: 0,
            inner_trip_count: 4,
            data_words: 1_024,
            filler: 8,
            seed: 0x5EED,
        }
    }
}

/// Generates a kernel from `knobs`. The program always halts after
/// `knobs.iterations` rounds.
///
/// # Panics
///
/// Panics if `hammock_bias_percent > 100`.
pub fn generate(knobs: &Knobs) -> Program {
    assert!(knobs.hammock_bias_percent <= 100, "bias is a percentage");
    let mut b = ProgramBuilder::named("synth");
    let table_words = knobs.data_words.max(16).next_power_of_two();
    // Input words are uniform in 0..100 so arbitrary bias thresholds work.
    let table = dsl::alloc_random_words(&mut b, table_words, 0, 100, knobs.seed);

    b.begin_function("main");
    dsl::emit_counted_loop(&mut b, Reg::R9, knobs.iterations, |b| {
        dsl::emit_load_indexed(b, Reg::R11, table, Reg::R9, (table_words as i64) - 1);
        for h in 0..knobs.hammocks_per_iteration {
            // Rotate which input bits feed each hammock so they are
            // mutually independent.
            b.alui(AluOp::Srl, Reg::R13, Reg::R11, (h % 8) as i64);
            b.alui(AluOp::And, Reg::R13, Reg::R13, 127);
            // Then-arm taken when the (near-uniform) value falls under the
            // bias threshold.
            let els = b.fresh_label("s_else");
            let join = b.fresh_label("s_join");
            b.li(Reg::R28, i64::from(knobs.hammock_bias_percent) * 128 / 100);
            b.br(Cond::Ge, Reg::R13, Reg::R28, els);
            dsl::emit_serial_work(b, Reg::R3, knobs.arm_length);
            b.jmp(join);
            b.bind_label(els);
            dsl::emit_serial_work(b, Reg::R4, knobs.arm_length);
            b.bind_label(join);
        }
        for _ in 0..knobs.inner_loops_per_iteration {
            let top = b.fresh_label("s_inner");
            b.li(Reg::R5, 0);
            b.bind_label(top);
            b.alui(AluOp::Add, Reg::R6, Reg::R6, 1);
            b.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
            b.br_imm(Cond::Lt, Reg::R5, knobs.inner_trip_count, top);
        }
        for _ in 0..knobs.calls_per_iteration {
            dsl::emit_call_saved(b, "synth_leaf");
        }
        if knobs.data_words > 0 {
            // A dependent load chain: index derived from the input word.
            b.alui(AluOp::Xor, Reg::R12, Reg::R11, 0x35);
            dsl::emit_load_indexed(b, Reg::R7, table, Reg::R12, (table_words as i64) - 1);
            b.alu(AluOp::Add, Reg::R8, Reg::R8, Reg::R7);
        }
        dsl::emit_parallel_work(b, &[Reg::R2, Reg::R14, Reg::R15], knobs.filler);
    });
    b.halt();
    b.end_function();

    b.begin_function("synth_leaf");
    b.alui(AluOp::Add, Reg::R26, Reg::R26, 1);
    dsl::emit_serial_work(&mut b, Reg::R27, knobs.leaf_length);
    b.ret();
    b.end_function();

    b.build().expect("synthetic kernel is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyflow_isa::execute_window;

    #[test]
    fn default_kernel_halts() {
        let p = generate(&Knobs::default());
        let r = execute_window(&p, 1_000_000).unwrap();
        assert!(r.halted);
        assert!(r.steps > 10_000);
    }

    #[test]
    fn bias_controls_branch_mix() {
        let measure = |bias: u8| -> f64 {
            let p = generate(&Knobs {
                iterations: 800,
                hammocks_per_iteration: 1,
                hammock_bias_percent: bias,
                ..Knobs::default()
            });
            let r = execute_window(&p, 1_000_000).unwrap();
            let mut taken = 0u64;
            let mut total = 0u64;
            for e in &r.trace {
                // The hammock branch compares r13 against r28.
                if let polyflow_isa::Inst::Br { rs: Reg::R13, .. } = e.inst {
                    total += 1;
                    if !e.taken {
                        taken += 1; // not-taken = then-arm (under threshold)
                    }
                }
            }
            taken as f64 / total as f64
        };
        let lo = measure(10);
        let mid = measure(50);
        let hi = measure(90);
        assert!(lo < 0.2, "10% bias measured {lo:.2}");
        assert!((0.35..0.65).contains(&mid), "50% bias measured {mid:.2}");
        assert!(hi > 0.8, "90% bias measured {hi:.2}");
    }

    #[test]
    fn calls_appear_when_requested() {
        let p = generate(&Knobs {
            iterations: 50,
            calls_per_iteration: 2,
            ..Knobs::default()
        });
        let r = execute_window(&p, 200_000).unwrap();
        let calls = r
            .trace
            .iter()
            .filter(|e| e.class() == polyflow_isa::InstClass::Call)
            .count();
        assert_eq!(calls, 100);
    }

    #[test]
    fn harder_branches_make_spawning_more_valuable() {
        use polyflow_core::{Policy, ProgramAnalysis};
        use polyflow_sim::{
            simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimOptions, SimScratch,
            StaticSpawnSource,
        };
        let mut scratch = SimScratch::default();
        let opts = SimOptions::default();
        let mut speedup = |bias: u8| -> f64 {
            let p = generate(&Knobs {
                iterations: 1_500,
                hammocks_per_iteration: 2,
                hammock_bias_percent: bias,
                arm_length: 8,
                ..Knobs::default()
            });
            let trace = execute_window(&p, 1_000_000).unwrap().trace;
            let analysis = ProgramAnalysis::analyze(&p);
            let ss = MachineConfig::superscalar();
            let prep = PreparedTrace::new(&trace, &ss);
            let (base, _) =
                simulate(&prep, &ss, &mut NoSpawn, &mut scratch, &mut NullSink, opts).unwrap();
            let pf = MachineConfig::hpca07();
            let prep = PreparedTrace::new(&trace, &pf);
            let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
            let (run, _) =
                simulate(&prep, &pf, &mut src, &mut scratch, &mut NullSink, opts).unwrap();
            run.speedup_percent_over(&base)
        };
        let predictable = speedup(2);
        let hard = speedup(50);
        assert!(
            hard > predictable + 5.0,
            "hard branches should reward spawning: {hard:.1}% vs {predictable:.1}%"
        );
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn bias_validation() {
        generate(&Knobs {
            hammock_bias_percent: 101,
            ..Knobs::default()
        });
    }
}
