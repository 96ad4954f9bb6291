//! Shared by the snapshot suites: the compare-or-bless step over a
//! checked-in snapshot file. Each snapshot line pins a rendering by its
//! 64-bit FNV-1a ([`polyflow_isa::fnv1a`]).

/// Compares `actual` with the snapshot `tests/<file>`, or rewrites the
/// file when `POLYFLOW_BLESS` is set (non-empty, not `0`).
pub fn check_or_bless(file: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(file);
    if std::env::var("POLYFLOW_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, actual).unwrap();
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            actual.lines().count()
        );
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); generate it with POLYFLOW_BLESS=1 cargo test",
            path.display()
        )
    });
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "snapshot mismatch in {file} ({} line(s) differ):\n{}\n\
             If this change is intentional, re-bless with POLYFLOW_BLESS=1.",
            diff.len()
                .max(expected.lines().count().abs_diff(actual.lines().count())),
            diff.join("\n")
        );
    }
}
