//! Measures how well the dynamic reconvergence predictor reconstructs
//! compiler-computed immediate postdominators (the question behind §4.4
//! and Figure 12): per benchmark, the fraction of conditional-branch and
//! indirect-jump spawn points whose reconvergence is predicted exactly,
//! predicted differently, or not predicted at all — weighted statically
//! and dynamically.
//!
//! Usage: `reconv_accuracy [--jobs N] [workload ...]` (default: all 12).

use polyflow_bench::{cli, pool, prepare_selection, PreparedWorkload};
use polyflow_core::SpawnKind;
use polyflow_reconv::{train_on_trace, ReconvConfig};
use std::collections::HashMap;

fn accuracy_row(w: &PreparedWorkload) -> String {
    // Ground truth: branch/jr spawn points from the static analysis.
    let truth: HashMap<_, _> = w
        .analysis
        .candidates()
        .iter()
        .filter(|sp| {
            matches!(
                sp.kind,
                SpawnKind::Hammock | SpawnKind::LoopFallThrough | SpawnKind::Other
            )
        })
        .map(|sp| (sp.trigger, sp.target))
        .collect();
    let predictor = train_on_trace(w.trace(), ReconvConfig::default());
    // Dynamic weights: how often each trigger executes.
    let pc_index = w.pc_index();

    let (mut exact, mut wrong, mut none) = (0usize, 0usize, 0usize);
    let (mut dyn_exact, mut dyn_total) = (0u64, 0u64);
    for (&trigger, &target) in &truth {
        let weight = pc_index.count(trigger) as u64;
        dyn_total += weight;
        match predictor.predict(trigger) {
            Some(p) if p == target => {
                exact += 1;
                dyn_exact += weight;
            }
            Some(_) => wrong += 1,
            None => none += 1,
        }
    }
    let total = truth.len().max(1);
    format!(
        "{:<12} {:>7} {:>7} {:>7} {:>8.1}% {:>13.1}%",
        w.name,
        exact,
        wrong,
        none,
        100.0 * exact as f64 / total as f64,
        100.0 * dyn_exact as f64 / dyn_total.max(1) as f64
    )
}

fn main() {
    const SPEC: cli::Spec = cli::Spec {
        name: "reconv_accuracy",
        about: "Measures how well the dynamic reconvergence predictor \
                reconstructs compiler-computed immediate postdominators",
        flags: &[cli::JOBS, cli::ASM],
        operands: cli::Operands::Workloads,
        notes: "",
    };
    let args = cli::parse(&SPEC);
    let workloads = prepare_selection(&args);
    println!("== Reconvergence-predictor accuracy vs immediate postdominators ==");
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>9} {:>14}",
        "benchmark", "exact", "wrong", "none", "static%", "dyn-weighted%"
    );
    // Each benchmark's predictor training replays its whole trace; fan
    // the rows out across the pool and print them in order.
    let refs: Vec<&PreparedWorkload> = workloads.iter().collect();
    let rows = pool::parallel_map(refs, args.jobs(), |_, w| accuracy_row(w));
    for row in rows {
        println!("{row}");
    }
    println!();
    println!(
        "(Paper §4.4: \"the reconvergence predictor approximates the immediate\n\
         postdominator information with reasonable accuracy\"; the misses are\n\
         warm-up plus reconvergences that a forward analysis cannot identify —\n\
         chiefly loop-exit branches whose fall-through only commits long after\n\
         the branch.)"
    );
}
