//! The fault-tolerance property the whole PR is built around: any
//! program the static verifier accepts either simulates to completion or
//! returns a *typed* error under a cycle budget — it never panics — on
//! both the superscalar baseline and the `postdoms` PolyFlow
//! configuration. SplitMix64-driven and hermetic: the same seeds run
//! every time.

use polyflow_bench::fuzz::{random_program, WINDOW};
use polyflow_core::{verify, Policy, ProgramAnalysis, VerifyOptions};
use polyflow_isa::execute_window;
use polyflow_sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimError, SimOptions, SimScratch,
    StaticSpawnSource,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn verified_programs_simulate_or_fail_typed_never_panic() {
    let mut accepted = 0u32;
    let mut budget_trips = 0u32;
    for seed in 0x100..0x120u64 {
        let program = random_program(seed);
        let analysis = ProgramAnalysis::analyze(&program);
        if !verify(&program, &analysis, &VerifyOptions::default()).is_clean() {
            continue; // the property quantifies over verifier-accepted programs
        }
        accepted += 1;
        let exec = execute_window(&program, WINDOW).expect("generated programs execute");
        assert!(exec.halted, "seed {seed:#x}: bounded program halts");

        // A deliberately tight budget on some seeds forces the
        // CyclesExceeded path; a generous one exercises completion.
        for max_cycles in [500, 4_000_000] {
            for multitask in [false, true] {
                let mut cfg = if multitask {
                    MachineConfig::hpca07()
                } else {
                    MachineConfig::superscalar()
                };
                cfg.max_cycles = max_cycles;
                let table = analysis.spawn_table(Policy::Postdoms);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let prepared = PreparedTrace::new(&exec.trace, &cfg);
                    let mut scratch = SimScratch::default();
                    let opts = SimOptions::default();
                    let run = if multitask {
                        let mut src = StaticSpawnSource::new(table.clone());
                        simulate(&prepared, &cfg, &mut src, &mut scratch, &mut NullSink, opts)
                    } else {
                        simulate(
                            &prepared,
                            &cfg,
                            &mut NoSpawn,
                            &mut scratch,
                            &mut NullSink,
                            opts,
                        )
                    };
                    run.map(|(r, _)| r)
                }));
                match outcome {
                    Err(_) => panic!(
                        "seed {seed:#x} (multitask={multitask}, budget={max_cycles}): \
                         simulation panicked"
                    ),
                    Ok(Ok(r)) => {
                        assert_eq!(
                            r.instructions as usize,
                            exec.trace.len(),
                            "seed {seed:#x}: completion means full retirement"
                        );
                    }
                    Ok(Err(SimError::CyclesExceeded { max_cycles: m, .. })) => {
                        assert_eq!(m, max_cycles);
                        budget_trips += 1;
                    }
                    Ok(Err(e)) => panic!(
                        "seed {seed:#x}: unexpected error class for a verified \
                         well-formed program: {e}"
                    ),
                }
            }
        }
    }
    assert!(accepted >= 24, "the generator should mostly satisfy verify");
    assert!(
        budget_trips > 0,
        "the tight budget should trip CyclesExceeded on real traces"
    );
}
