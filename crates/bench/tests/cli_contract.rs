//! Every bench binary keeps the one command-line contract
//! (`support/cli_contract.rs`): `--help`, an unknown flag, a flag missing
//! its value, and the `--flag=value` form.

#[path = "support/cli_contract.rs"]
mod contract;

use contract::{check, run, Contract};

/// The `=` form of `--asm`, stopped by a file that does not exist.
const NO_ASM: Option<(&[&str], i32, &str)> = Some((
    &["--asm=no-such-file.asm"],
    2,
    "cannot load workload `no-such-file.asm`",
));

const FIGURE: &[&str] = &["--jobs N", "--max-cycles N", "--asm PATH"];
const FIGURE_CSV: &[&str] = &["--jobs N", "--max-cycles N", "--asm PATH", "--csv"];

const BINARIES: &[Contract] = &[
    Contract {
        exe: env!("CARGO_BIN_EXE_ablations"),
        flags: FIGURE,
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_explain"),
        flags: &[
            "--asm PATH",
            "--json",
            "--events PATH",
            "--top N",
            "--width N",
            "--max-cycles N",
        ],
        eq_form: Some((
            &["--asm=no-such-file.asm", "--top=5"],
            1,
            "cannot load workload `no-such-file.asm`",
        )),
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_fig05_static_distribution"),
        flags: &["--jobs N", "--asm PATH"],
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_fig08_config"),
        flags: &[],
        eq_form: None,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_fig09_individual_heuristics"),
        flags: &[
            "--jobs N",
            "--max-cycles N",
            "--predicted-deps",
            "--asm PATH",
            "--csv",
        ],
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_fig10_combinations"),
        flags: FIGURE_CSV,
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_fig11_exclusions"),
        flags: FIGURE,
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_fig12_reconvergence"),
        flags: FIGURE_CSV,
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_fuzz"),
        flags: &[
            "--seeds N",
            "--seed S",
            "--faults",
            "--shapes N",
            "--replay FILE",
        ],
        eq_form: Some((&["--seeds=0"], 0, "fuzz: 0 seeds run (differential)")),
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_headline_claims"),
        flags: FIGURE,
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_inspect"),
        flags: &[],
        eq_form: None,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_lint"),
        flags: &["--asm PATH"],
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_probe"),
        flags: &[],
        eq_form: None,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_reconv_accuracy"),
        flags: &["--jobs N", "--asm PATH"],
        eq_form: NO_ASM,
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_wsweep"),
        flags: &["--programs N", "--seed S", "--jobs N", "--csv"],
        eq_form: Some((
            &["--programs=0", "--seed=0x7357"],
            2,
            "--programs needs a positive count",
        )),
    },
];

#[test]
fn every_bench_binary_keeps_the_command_line_contract() {
    for c in BINARIES {
        check(c);
    }
}

/// `--jobs 0` is the default worker count, as in every binary, and the
/// output does not depend on the worker count.
#[test]
fn wsweep_jobs_zero_is_the_default_worker_count() {
    let exe = env!("CARGO_BIN_EXE_wsweep");
    let (code, default, err) = run(exe, &["--jobs", "0", "--programs", "1"]);
    assert_eq!(code, Some(0), "{err}");
    let (code, one, err) = run(exe, &["--jobs", "1", "--programs", "1"]);
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(default, one);
}

/// A bundled workload that does not exist is a bad command line in the
/// binaries that take one word naming it, as in the figure binaries.
#[test]
fn an_unknown_workload_is_a_usage_error() {
    for exe in [
        env!("CARGO_BIN_EXE_explain"),
        env!("CARGO_BIN_EXE_inspect"),
        env!("CARGO_BIN_EXE_probe"),
        env!("CARGO_BIN_EXE_fig05_static_distribution"),
    ] {
        let (code, out, err) = run(exe, &["eon"]);
        assert_eq!((code, out.as_str()), (Some(2), ""), "{exe}: {err}");
        assert!(err.contains("unknown workload `eon`"), "{exe}: {err}");
    }
}

/// `explain`'s usage page spells out the policies it takes.
#[test]
fn explain_help_names_every_policy() {
    let (_, page, _) = run(env!("CARGO_BIN_EXE_explain"), &["--help"]);
    let listed = page.lines().find_map(|l| l.strip_prefix("Policies: "));
    let listed = listed.expect("a Policies line").split(' ');
    assert!(
        listed
            .take(polyflow_bench::POLICY_NAMES.len())
            .eq(polyflow_bench::POLICY_NAMES.iter().copied()),
        "{page}"
    );
}
