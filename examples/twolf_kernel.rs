//! The paper's §2.3 / Figure 6 walkthrough on the `twolf` stand-in.
//!
//! Shows how control-equivalent spawning recovers the benefit of loop
//! spawning in `new_dbox_a`: the inner-loop iteration spawns are covered
//! by a chain of hammock spawns, and the outer-loop iteration spawn by the
//! inner loop's fall-through.
//!
//! Run with: `cargo run --release --example twolf_kernel`

use polyflow::core::{Policy, ProgramAnalysis, SpawnKind};
use polyflow::isa::execute_window;
use polyflow::sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimOptions, SimScratch,
    StaticSpawnSource,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = polyflow::workloads::by_name("twolf").expect("twolf exists");
    let program = workload.program;

    println!("=== new_dbox_a spawn points (paper Figure 6) ===");
    let analysis = ProgramAnalysis::analyze(&program);
    let f = analysis.function("new_dbox_a").expect("kernel function");
    let candidates = f.candidates();
    for sp in &candidates {
        println!("  {sp}");
    }
    let hammocks = candidates
        .iter()
        .filter(|s| s.kind == SpawnKind::Hammock)
        .count();
    let loop_fts = candidates
        .iter()
        .filter(|s| s.kind == SpawnKind::LoopFallThrough)
        .count();
    println!(
        "\nThe kernel exposes {hammocks} hammock spawns (the if-then-else and the two\n\
         ABS if-thens) and {loop_fts} loop fall-through spawns — together they recover\n\
         the inner- and outer-loop iteration spawns, as §2.3 explains."
    );

    // Measure: loop spawning vs hammock+loopFT vs full postdominators.
    let trace = execute_window(&program, workload.window)?.trace;
    let ss = MachineConfig::superscalar();
    let prepared = PreparedTrace::new(&trace, &ss);
    let mut scratch = SimScratch::default();
    let base = simulate(
        &prepared,
        &ss,
        &mut NoSpawn,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )?
    .0;
    println!("\nsuperscalar: IPC {:.2}", base.ipc());

    let pf = MachineConfig::hpca07();
    let prepared = PreparedTrace::new(&trace, &pf);
    for policy in [
        Policy::Loop,
        Policy::Hammock,
        Policy::LoopFt,
        Policy::Postdoms,
    ] {
        let mut src = StaticSpawnSource::new(analysis.spawn_table(policy));
        let r = simulate(
            &prepared,
            &pf,
            &mut src,
            &mut scratch,
            &mut NullSink,
            SimOptions::default(),
        )?
        .0;
        println!(
            "{:>10}: speedup {:6.1}% ({} spawns)",
            policy.name(),
            r.speedup_percent_over(&base),
            r.total_spawns()
        );
    }
    println!(
        "\nLoop fall-through spawns expose the outer-loop parallelism, matching the\n\
         paper's observation that they perform similarly to, or better than, loop\n\
         spawns on twolf (§2.3)."
    );
    Ok(())
}
