//! Ablation studies of the design choices DESIGN.md calls out: the spawn
//! distance cap, the divert release delay, the spawn overhead, the
//! profitability feedback, the two-task fetch port, and the task count.
//!
//! Each ablation runs the `postdoms` policy on a representative subset
//! and reports the average speedup over the (unchanged) superscalar. The
//! whole variant grid executes on the sweep engine's worker pool; every
//! variant shares one prepared trace per workload (the ablations only
//! vary task geometry, never the branch predictors).
//!
//! Usage: `ablations [--jobs N] [--max-cycles N] [workload ...]`
//! (default: a 4-benchmark subset). The cycle budget bounds every cell.

use polyflow_bench::sweep::{report_failures, run_cell_with_config_opts, run_grid_with, Cell};
use polyflow_bench::PreparedWorkload;
use polyflow_core::Policy;
use polyflow_sim::{
    simulate, DependenceMode, HintCacheSource, MachineConfig, NullSink, SimError, SimOptions,
    SimResult, SimScratch, StaticSpawnSource,
};

/// One ablation cell: a cell on a machine configuration, or the
/// hint-cache capacity model layered on postdoms.
enum Variant {
    Config(Cell, Box<MachineConfig>),
    HintCache(usize, Box<MachineConfig>),
}

fn run_variant(
    w: &PreparedWorkload,
    v: &Variant,
    scratch: &mut SimScratch,
) -> Result<SimResult, SimError> {
    let opts = SimOptions::default();
    let (result, _) = match v {
        Variant::Config(cell, cfg) => run_cell_with_config_opts(w, *cell, cfg, scratch, opts)?,
        // Not a `Cell`: the spawn source wraps the static table.
        Variant::HintCache(entries, cfg) => {
            let inner = StaticSpawnSource::new(w.analysis.spawn_table(Policy::Postdoms));
            let mut src = HintCacheSource::new(inner, *entries, 4);
            let prepared = w.prepared(cfg);
            simulate(&prepared, cfg, &mut src, scratch, &mut NullSink, opts)?
        }
    };
    Ok(result)
}

const SPEC: polyflow_bench::cli::Spec = polyflow_bench::cli::Spec {
    name: "ablations",
    about: "Ablation studies of the design choices DESIGN.md calls out, \
            as average postdoms speedup over the unchanged superscalar",
    flags: &[
        polyflow_bench::cli::JOBS,
        polyflow_bench::cli::MAX_CYCLES,
        polyflow_bench::cli::ASM,
    ],
    operands: polyflow_bench::cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let mut args = polyflow_bench::cli::parse(&SPEC);
    if args.filter.is_empty() && args.texts(&polyflow_bench::cli::ASM).is_empty() {
        args.filter = ["mcf", "vortex", "twolf", "crafty"]
            .map(String::from)
            .to_vec();
    }
    let workloads = polyflow_bench::prepare_selection(&args);
    let postdoms = Cell::Static(Policy::Postdoms);
    let base_cfg = args.machine(postdoms);

    // Build the full variant list up front (labels carry the exact column
    // formatting of the report), then run the whole (workload × variant)
    // grid in one parallel sweep.
    let mut rows: Vec<(String, Variant)> = Vec::new();
    let cfg_row =
        |label: String, cfg: MachineConfig| (label, Variant::Config(postdoms, Box::new(cfg)));
    rows.push(cfg_row(
        "baseline config:                      ".to_string(),
        base_cfg.clone(),
    ));
    for dist in [64, 128, 320, 1024, 4096] {
        rows.push(cfg_row(
            format!("max_spawn_distance = {dist:<5}           "),
            MachineConfig {
                max_spawn_distance: dist,
                ..base_cfg.clone()
            },
        ));
    }
    for delay in [0, 3, 6, 12, 24] {
        rows.push(cfg_row(
            format!("divert_release_delay = {delay:<3}           "),
            MachineConfig {
                divert_release_delay: delay,
                ..base_cfg.clone()
            },
        ));
    }
    for overhead in [0, 3, 8, 16] {
        rows.push(cfg_row(
            format!("spawn_overhead_cycles = {overhead:<3}          "),
            MachineConfig {
                spawn_overhead_cycles: overhead,
                ..base_cfg.clone()
            },
        ));
    }
    for feedback in [true, false] {
        rows.push(cfg_row(
            format!("profitability_feedback = {feedback:<5}      "),
            MachineConfig {
                profitability_feedback: feedback,
                ..base_cfg.clone()
            },
        ));
    }
    for ports in [1, 2, 4] {
        rows.push(cfg_row(
            format!("fetch_tasks_per_cycle = {ports}            "),
            MachineConfig {
                fetch_tasks_per_cycle: ports,
                ..base_cfg.clone()
            },
        ));
    }
    // Hint-cache capacity (the paper idealizes this; §3.2): how many
    // 8-byte hint entries does control-equivalent spawning need?
    for entries in [16usize, 64, 256, 1024] {
        rows.push((
            format!("hint_cache_entries = {entries:<5}          "),
            Variant::HintCache(entries, Box::new(base_cfg.clone())),
        ));
    }
    for mode in [DependenceMode::OracleSync, DependenceMode::StoreSet] {
        rows.push(cfg_row(
            format!("memory_dependence = {mode:<10?}       "),
            MachineConfig {
                memory_dependence: mode,
                ..base_cfg.clone()
            },
        ));
    }
    for any in [false, true] {
        rows.push(cfg_row(
            format!("spawn_from_any_task = {any:<5}         "),
            MachineConfig {
                spawn_from_any_task: any,
                ..base_cfg.clone()
            },
        ));
    }
    for (rob, reclaim) in [(512, false), (128, false), (128, true)] {
        rows.push(cfg_row(
            format!("rob = {rob:<4} reclamation = {reclaim:<5}     "),
            MachineConfig {
                rob_entries: rob,
                rob_reclamation: reclaim,
                ..base_cfg.clone()
            },
        ));
    }
    for tasks in [2, 4, 8, 16] {
        rows.push(cfg_row(
            format!("max_tasks = {tasks:<2}                       "),
            MachineConfig {
                max_tasks: tasks,
                ..base_cfg.clone()
            },
        ));
    }

    // Cell 0 is the shared superscalar baseline; cell i+1 is rows[i].
    let baseline = Variant::Config(Cell::Baseline, Box::new(args.machine(Cell::Baseline)));
    let cells: Vec<usize> = (0..=rows.len()).collect();
    let (grid, report) = run_grid_with(
        "ablations",
        &workloads,
        &cells,
        args.jobs(),
        |w, &ci, scratch| {
            let v = if ci == 0 { &baseline } else { &rows[ci - 1].1 };
            run_variant(w, v, scratch)
        },
        |&ci| {
            if ci == 0 {
                "baseline".to_string()
            } else {
                rows[ci - 1].0.trim().trim_end_matches(':').to_string()
            }
        },
    );

    println!("== Ablations (postdoms policy, avg speedup % over superscalar) ==");
    for (ci, (label, _)) in rows.iter().enumerate() {
        let mut total = 0.0;
        for row in &grid {
            total += row[ci + 1].speedup_percent_over(&row[0]);
        }
        let avg = total / workloads.len() as f64;
        if avg.is_nan() {
            println!("{label}FAILED");
        } else {
            println!("{label}{avg:6.1}%");
        }
    }
    report.emit();
    if report_failures(&grid) {
        std::process::exit(1);
    }
}
