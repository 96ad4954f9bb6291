//! Interactive-ish policy explorer: run any workload under any spawn
//! policy and print the full statistics.
//!
//! Run with: `cargo run --release --example policy_explorer -- <workload> [policy]`
//! where workload is one of the 12 benchmark names (default `mcf`) and
//! policy is `loop | loopFT | procFT | hammock | other | postdoms |
//! rec_pred | all` (default `all`).

use polyflow::core::{Policy, ProgramAnalysis};
use polyflow::isa::execute_window;
use polyflow::reconv::ReconvConfig;
use polyflow::sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, ReconvSpawnSource, SimOptions,
    SimResult, SimScratch, StaticSpawnSource,
};

fn print_result(label: &str, r: &SimResult, base: &SimResult) {
    println!(
        "{label:>10}: IPC {:.2}  speedup {:6.1}%  spawns {:6}  diverted {:7}  \
         i$-miss {:5}  d$-miss {:6}  max tasks {}",
        r.ipc(),
        r.speedup_percent_over(base),
        r.total_spawns(),
        r.diverted,
        r.l1i_misses,
        r.l1d_misses,
        r.max_live_tasks
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let which = std::env::args().nth(2).unwrap_or_else(|| "all".into());

    let Some(workload) = polyflow::workloads::by_name(&name) else {
        eprintln!(
            "unknown workload `{name}`; choose one of {:?}",
            polyflow::workloads::NAMES
        );
        std::process::exit(1);
    };
    println!(
        "workload: {name} ({} static instructions)",
        workload.program.len()
    );

    let trace = execute_window(&workload.program, workload.window)?.trace;
    println!("trace: {} retired instructions", trace.len());
    let analysis = ProgramAnalysis::analyze(&workload.program);
    println!(
        "static spawn candidates: {}",
        analysis.static_distribution()
    );

    let ss = MachineConfig::superscalar();
    let prepared_ss = PreparedTrace::new(&trace, &ss);
    let mut scratch = SimScratch::default();
    let base = simulate(
        &prepared_ss,
        &ss,
        &mut NoSpawn,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )?
    .0;
    println!(
        "\nsuperscalar baseline: IPC {:.2} ({} cycles)",
        base.ipc(),
        base.cycles
    );

    let pf = MachineConfig::hpca07();
    let prepared = PreparedTrace::new(&trace, &pf);
    let policies = Policy::figure9();
    for &policy in &policies {
        if which != "all" && which != policy.name() {
            continue;
        }
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
        print_result(&policy.name(), &r, &base);
    }
    if which == "all" || which == "rec_pred" {
        let mut src = ReconvSpawnSource::new(ReconvConfig::default());
        let r = simulate(
            &prepared,
            &pf,
            &mut src,
            &mut scratch,
            &mut NullSink,
            SimOptions::default(),
        )?
        .0;
        print_result("rec_pred", &r, &base);
    }
    Ok(())
}
