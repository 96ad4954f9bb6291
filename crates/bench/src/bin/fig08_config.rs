//! Prints the simulated machine configuration — the paper's Figure 8
//! pipeline-parameter table — as actually used by the simulator.

use polyflow_sim::MachineConfig;

const SPEC: polyflow_bench::cli::Spec = polyflow_bench::cli::Spec {
    name: "fig08_config",
    about: "Prints the simulated machine configuration (the paper's \
            Figure 8 pipeline-parameter table)",
    flags: &[],
    operands: polyflow_bench::cli::Operands::None,
    notes: "",
};

fn main() {
    polyflow_bench::cli::parse(&SPEC);
    let c = MachineConfig::hpca07();
    println!("== Figure 8: pipeline parameters ==");
    let rows: Vec<(&str, String)> = vec![
        ("Pipeline Width", format!("{} instrs/cycle", c.width)),
        (
            "Branch Predictor",
            format!(
                "{} Kbit gshare, {} bits of global history",
                (1usize << c.gshare_index_bits) * 2 / 1024,
                c.gshare_history_bits
            ),
        ),
        (
            "Misprediction Penalty",
            format!("At least {} cycles", c.misprediction_penalty),
        ),
        (
            "Reorder Buffer",
            format!("{} entries, dynamically shared", c.rob_entries),
        ),
        (
            "Scheduler",
            format!("{} entries, dynamically shared", c.scheduler_entries),
        ),
        (
            "Functional Units",
            format!("{} identical general purpose units", c.fn_units),
        ),
        (
            "L1 I-Cache",
            format!(
                "{}Kbytes, {}-way set assoc., {} byte lines, {} cycle miss",
                c.l1i.size_bytes / 1024,
                c.l1i.ways,
                c.l1i.line_bytes,
                c.l1_miss_latency
            ),
        ),
        (
            "L1 D-Cache",
            format!(
                "{}Kbytes, {}-way set assoc., {} byte lines, {} cycle miss",
                c.l1d.size_bytes / 1024,
                c.l1d.ways,
                c.l1d.line_bytes,
                c.l1_miss_latency
            ),
        ),
        (
            "L2 Cache",
            format!(
                "{}Kbytes, {}-way set assoc., {} byte lines, {} cycle miss",
                c.l2.size_bytes / 1024,
                c.l2.ways,
                c.l2.line_bytes,
                c.l2_miss_latency
            ),
        ),
        (
            "Divert Queue",
            format!("{} entries, dynamically shared", c.divert_entries),
        ),
        ("Tasks", format!("{}", c.max_tasks)),
    ];
    for (k, v) in rows {
        println!("{k:<24} {v}");
    }
    println!();
    println!("Model-specific parameters (see DESIGN.md):");
    println!(
        "  max spawn distance       {} instructions",
        c.max_spawn_distance
    );
    println!(
        "  min spawn distance       {} instructions",
        c.min_spawn_distance
    );
    println!(
        "  divert release delay     {} cycles",
        c.divert_release_delay
    );
    println!(
        "  spawn overhead           {} cycles",
        c.spawn_overhead_cycles
    );
    println!("  profitability feedback   {}", c.profitability_feedback);
}
