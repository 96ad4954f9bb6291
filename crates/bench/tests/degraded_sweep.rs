//! The sweep engine's fault-isolation guarantee: a panicking cell
//! degrades to [`CellOutcome::Failed`] instead of killing the sweep.
//! The `POLYFLOW_FAULT_CELL` hook makes exactly one named cell panic
//! deliberately; the remaining cells must complete, the rendered CSV
//! must mark the dead cell `FAILED`, and the output must stay
//! byte-identical across worker counts (the CI workflow additionally
//! checks the figure binary exits nonzero under the hook).

use polyflow_bench::sweep::{report_failures, sweep, Cell, CellOutcome};
use polyflow_bench::{prepare_all_jobs, speedup_csv};
use polyflow_core::Policy;

#[test]
fn injected_panic_degrades_the_sweep_deterministically() {
    // One test function only: integration tests in this binary share the
    // process environment, so the hook is set exactly once, up front,
    // before any worker thread exists.
    std::env::set_var("POLYFLOW_FAULT_CELL", "gzip/postdoms");

    let filter: Vec<String> = ["bzip2", "gzip"].map(String::from).to_vec();
    let workloads = prepare_all_jobs(&filter, 2);
    assert_eq!(workloads.len(), 2);
    let cells = [Cell::Baseline, Cell::Static(Policy::Postdoms)];

    let (serial, _) = sweep("degraded-j1", &workloads, &cells, 1, Cell::machine);
    let (parallel, _) = sweep("degraded-j2", &workloads, &cells, 2, Cell::machine);

    for grid in [&serial, &parallel] {
        // Row order matches the prepared-workload order (bzip2, gzip).
        let gzip_row = workloads.iter().position(|w| w.name == "gzip").unwrap();
        match &grid[gzip_row][1] {
            CellOutcome::Failed {
                workload,
                cell,
                payload,
                attempts,
            } => {
                assert_eq!(workload, "gzip");
                assert_eq!(cell, "postdoms");
                assert_eq!(*attempts, 2, "a panic gets exactly one retry");
                assert!(
                    payload.contains("deliberate fault injected"),
                    "payload carries the panic message: {payload}"
                );
            }
            other => panic!("gzip/postdoms should have failed, got {other:?}"),
        }
        // Every other cell survived the neighbour's death.
        assert!(grid[gzip_row][0].result().is_some());
        let other_row = 1 - gzip_row;
        assert!(grid[other_row][0].result().is_some());
        assert!(grid[other_row][1].result().is_some());
        assert!(report_failures(grid), "the sweep reports the dead cell");
    }

    // Rendered output is identical at any worker count, FAILED included.
    let columns = vec!["postdoms".to_string()];
    let csv_of = |grid: &[Vec<CellOutcome>]| {
        let rows: Vec<(String, f64, Vec<f64>)> = workloads
            .iter()
            .zip(grid)
            .map(|(w, row)| {
                (
                    w.name.to_string(),
                    row[0].ipc(),
                    vec![row[1].speedup_percent_over(&row[0])],
                )
            })
            .collect();
        speedup_csv(&rows, &columns)
    };
    let a = csv_of(&serial);
    let b = csv_of(&parallel);
    assert_eq!(a, b, "degraded output is deterministic across jobs");
    assert!(a
        .lines()
        .any(|l| l.starts_with("gzip") && l.ends_with("FAILED")));

    std::env::remove_var("POLYFLOW_FAULT_CELL");
}
