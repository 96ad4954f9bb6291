//! Microbenchmarks of the dynamic path: functional execution, trace
//! preparation, and the cycle model under the superscalar and the full
//! postdominator policy (on a reduced mcf window).
//!
//! Plain `std::time::Instant` harness (`harness = false`); the workspace
//! builds hermetically, so no criterion. Run with
//! `cargo bench -p polyflow-bench --bench simulator`.

use polyflow_bench::stopwatch::bench;
use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::execute_window;
use polyflow_reconv::{train_on_trace, ReconvConfig};
use polyflow_sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimOptions, SimScratch,
    StaticSpawnSource,
};
use std::hint::black_box;

const WINDOW: u64 = 50_000;

fn main() {
    let program = polyflow_workloads::by_name("mcf").unwrap().program;
    let trace = execute_window(&program, WINDOW).unwrap().trace;
    let analysis = ProgramAnalysis::analyze(&program);
    let ss = MachineConfig::superscalar();
    let pf = MachineConfig::hpca07();

    bench("interpreter_50k", || {
        black_box(execute_window(black_box(&program), WINDOW).unwrap())
    });
    bench("prepare_trace_50k", || {
        black_box(PreparedTrace::new(black_box(&trace), &ss))
    });

    let prep_ss = PreparedTrace::new(&trace, &ss);
    bench("simulate_superscalar_50k", || {
        let mut scratch = SimScratch::default();
        let opts = SimOptions::default();
        black_box(
            simulate(
                black_box(&prep_ss),
                &ss,
                &mut NoSpawn,
                &mut scratch,
                &mut NullSink,
                opts,
            )
            .unwrap(),
        )
    });

    let prep_pf = PreparedTrace::new(&trace, &pf);
    bench("simulate_postdoms_50k", || {
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let mut scratch = SimScratch::default();
        let opts = SimOptions::default();
        black_box(
            simulate(
                black_box(&prep_pf),
                &pf,
                &mut src,
                &mut scratch,
                &mut NullSink,
                opts,
            )
            .unwrap(),
        )
    });
    bench("reconv_train_50k", || {
        black_box(train_on_trace(black_box(&trace), ReconvConfig::default()))
    });
}
