//! Diagnostic probe: detailed per-policy statistics for one workload
//! (the reconvergence predictor plus every Figure 9 policy).
//!
//! Usage: `probe [workload]` (default: crafty).

use polyflow_bench::sweep::{run_cell_with_config_opts, Cell};
use polyflow_bench::PreparedWorkload;
use polyflow_core::Policy;
use polyflow_sim::{SimOptions, SimScratch};

const SPEC: polyflow_bench::cli::Spec = polyflow_bench::cli::Spec {
    name: "probe",
    about: "Diagnostic probe: detailed per-policy statistics for one \
            workload (default: crafty)",
    flags: &[],
    operands: polyflow_bench::cli::Operands::Words(&["[workload]"]),
    notes: "",
};

fn main() {
    let args = polyflow_bench::cli::parse(&SPEC);
    let w = args.workload(args.filter.first().map_or("crafty", String::as_str));
    let name = w.name.clone();
    let pw = PreparedWorkload::try_prepare(w).unwrap_or_else(|e| panic!("{e}"));
    let mut scratch = SimScratch::default();
    let mut run = |cell: Cell| {
        let cfg = cell.machine();
        run_cell_with_config_opts(&pw, cell, &cfg, &mut scratch, SimOptions::default())
            .unwrap_or_else(|e| panic!("{name}/{}: {e}", cell.label()))
            .0
    };
    let base = run(Cell::Baseline);
    println!(
        "{name}: {} instrs, baseline IPC {:.2}, {} cond mispredicts, {} indirect, \
         l1i misses {}, l1d misses {}, l2 misses {}",
        base.instructions,
        base.ipc(),
        base.branch_mispredicts,
        base.indirect_mispredicts,
        base.l1i_misses,
        base.l1d_misses,
        base.l2_misses
    );
    let dist = pw.analysis.static_distribution();
    println!("static spawn candidates: {dist}");
    {
        let r = run(Cell::Reconv);
        println!(
            "{:>10}: speedup {:6.1}%  IPC {:.2}  spawns {:6} (PFT {} O {})  rej dist {} ctx {} unprofit {}  diverted {}  maxtasks {}",
            "rec_pred",
            r.speedup_percent_over(&base),
            r.ipc(),
            r.total_spawns(),
            r.spawns.proc_ft,
            r.spawns.other,
            r.spawns_rejected_distance,
            r.spawns_rejected_contexts,
            r.spawns_rejected_unprofitable,
            r.diverted,
            r.max_live_tasks
        );
    }
    for policy in Policy::figure9() {
        let r = run(Cell::Static(policy));
        println!(
            "{:>10}: speedup {:6.1}%  IPC {:.2}  spawns {:6} (L {} LFT {} PFT {} H {} O {})  \
             rej dist {} ctx {} unprofit {}  diverted {}  maxtasks {}",
            policy.name(),
            r.speedup_percent_over(&base),
            r.ipc(),
            r.total_spawns(),
            r.spawns.loop_spawns,
            r.spawns.loop_ft,
            r.spawns.proc_ft,
            r.spawns.hammocks,
            r.spawns.other,
            r.spawns_rejected_distance,
            r.spawns_rejected_contexts,
            r.spawns_rejected_unprofitable,
            r.diverted,
            r.max_live_tasks
        );
    }
}
