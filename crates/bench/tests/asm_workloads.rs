//! The checked-in runtime workloads under `workloads/asm/` are part of
//! the documented workflow (EXPERIMENTS.md "Bring your own workload"),
//! so `cargo test` alone must catch them rotting: each program has to
//! keep assembling, verifying clean, round-tripping byte-identically
//! through the text format, halting within its declared window, and
//! running under both policies.

use polyflow_bench::sweep::{run_cell_with_config_opts, Cell};
use polyflow_bench::PreparedWorkload;
use polyflow_core::{verify, Policy, ProgramAnalysis, VerifyOptions};
use polyflow_sim::{SimOptions, SimScratch};
use polyflow_workloads::from_asm_file;
use std::path::PathBuf;

#[test]
fn checked_in_asm_workloads_assemble_verify_and_simulate() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads/asm");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 3,
        "expected at least three example programs in {}",
        dir.display()
    );

    for path in paths {
        let name = path.display();
        let w = from_asm_file(&path).unwrap_or_else(|e| panic!("{name}: {e}"));

        // Lint clean: zero diagnostics from the static verifier.
        let analysis = ProgramAnalysis::analyze(&w.program);
        let report = verify(&w.program, &analysis, &VerifyOptions::default());
        assert!(
            report.is_clean(),
            "{name}: {} verifier diagnostics",
            report.diagnostics.len()
        );

        // The canonical rendering reparses to the identical program, so
        // uploading it to the service shares the file's cache identity.
        let reparsed = polyflow_isa::parse_program(&polyflow_isa::to_asm(&w.program))
            .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
        assert_eq!(w.program, reparsed, "{name}: drifted through to_asm");

        // Halts within its `; window: N` pragma and simulates under both
        // the baseline and the combined-postdominator policy.
        let prepared = PreparedWorkload::try_prepare(w).unwrap_or_else(|e| panic!("{e}"));
        let mut scratch = SimScratch::default();
        for cell in [Cell::Baseline, Cell::Static(Policy::Postdoms)] {
            let cfg = cell.machine();
            let opts = SimOptions::default();
            let (r, _) = run_cell_with_config_opts(&prepared, cell, &cfg, &mut scratch, opts)
                .unwrap_or_else(|e| panic!("{name} under {}: {e}", cell.label()));
            assert!(r.cycles > 0, "{name} under {}: empty run", cell.label());
        }
    }
}
