//! The sweep engine's central guarantee: output is byte-identical at any
//! worker count. This runs the Figure 9 grid serially and on four workers
//! and compares the rendered CSV byte for byte (a debug-build-sized
//! workload subset; the CI workflow additionally diffs the full 12-
//! workload binary output across `POLYFLOW_JOBS` values in release).

use polyflow_bench::sweep::{figure9_cells, sweep, Cell, CellOutcome};
use polyflow_bench::{prepare_all_jobs, speedup_csv, PreparedWorkload};
use polyflow_core::Policy;

/// The harness types must stay shareable across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedWorkload>();
    assert_send_sync::<polyflow_bench::sweep::Cell>();
    assert_send_sync::<polyflow_bench::pool::StealDeque<PreparedWorkload>>();
};

fn csv(workloads: &[PreparedWorkload], grid: &[Vec<CellOutcome>]) -> String {
    let columns: Vec<String> = Policy::figure9().iter().map(|p| p.name()).collect();
    let rows: Vec<(String, f64, Vec<f64>)> = workloads
        .iter()
        .zip(grid)
        .map(|(w, row)| {
            let base = &row[0];
            let speedups: Vec<f64> = row[1..]
                .iter()
                .map(|r| r.speedup_percent_over(base))
                .collect();
            (w.name.to_string(), base.ipc(), speedups)
        })
        .collect();
    speedup_csv(&rows, &columns)
}

#[test]
fn figure9_grid_is_byte_identical_across_worker_counts() {
    let filter: Vec<String> = ["bzip2", "gzip", "vpr.place"].map(String::from).to_vec();
    let workloads = prepare_all_jobs(&filter, 4);
    assert_eq!(workloads.len(), 3);
    let cells = figure9_cells();

    let (serial, report1) = sweep("determinism-j1", &workloads, &cells, 1, Cell::machine);
    let (parallel, report4) = sweep("determinism-j4", &workloads, &cells, 4, Cell::machine);

    let a = csv(&workloads, &serial);
    let b = csv(&workloads, &parallel);
    assert_eq!(a, b, "jobs=1 and jobs=4 CSV must match byte for byte");
    assert_eq!(a.lines().count(), 1 + workloads.len());

    assert_eq!(report1.jobs, 1);
    assert_eq!(report4.jobs, 4);
    assert_eq!(report1.cells.len(), workloads.len() * cells.len());
    let labels1: Vec<&String> = report1.cells.iter().map(|(l, _)| l).collect();
    let labels4: Vec<&String> = report4.cells.iter().map(|(l, _)| l).collect();
    assert_eq!(labels1, labels4, "report cell order is deterministic too");
}
