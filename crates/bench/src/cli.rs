//! Shared command-line parsing for the figure binaries.
//!
//! Every grid-style binary (`fig05`…`fig12`, `ablations`,
//! `headline_claims`, `reconv_accuracy`, `lint`) accepts the same shape
//! of command line — optional flags plus positional workload names — and
//! historically each one re-derived it from `std::env::args` with subtly
//! different rules: an unrecognized `--flag` silently became a workload
//! filter entry that matched nothing, so `--hlep` ran the full 12-workload
//! grid instead of erroring. This module centralizes the grammar:
//!
//! * known flags are declared per binary ([`Spec::flags`]);
//! * unknown flags are **rejected** with a usage message and exit 2;
//! * positional arguments are validated against
//!   [`polyflow_workloads::names`] (unknown workloads exit 2 too);
//! * every binary answers `--help`/`-h` with a consistent usage page;
//! * [`try_parse`] returns every value it validates ([`Args`]), and the
//!   binary builds its machine configurations from them
//!   ([`Args::machine`]) — nothing re-reads the command line later.
//!
//! `--` separates flags from positionals (everything after it is a
//! workload name).

use crate::pool;
use crate::sweep::Cell;
use polyflow_sim::{DependenceMode, MachineConfig};
use std::process::exit;

/// One flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag itself, including dashes (`"--jobs"`).
    pub name: &'static str,
    /// Placeholder for the flag's value (`Some("N")`), or `None` for a
    /// boolean flag.
    pub value: Option<&'static str>,
    /// One-line description for the usage page.
    pub help: &'static str,
}

/// `--jobs N`: worker threads for the sweep pool.
pub const JOBS: Flag = Flag {
    name: "--jobs",
    value: Some("N"),
    help: "worker threads (default: POLYFLOW_JOBS, else available CPUs)",
};

/// `--max-cycles N`: the per-run cycle budget watchdog.
pub const MAX_CYCLES: Flag = Flag {
    name: "--max-cycles",
    value: Some("N"),
    help: "per-run cycle budget (default: unlimited)",
};

/// `--predicted-deps`: predict inter-task dependences instead of
/// synchronizing on the oracle.
pub const PREDICTED_DEPS: Flag = Flag {
    name: "--predicted-deps",
    value: None,
    help: "predict inter-task register (hint entries) and memory (store \
           sets) dependences on every spawning cell; the baseline is unchanged",
};

/// `--csv`: machine-readable output instead of the aligned table.
pub const CSV: Flag = Flag {
    name: "--csv",
    value: None,
    help: "emit CSV instead of the aligned table",
};

/// `--asm PATH`: load a runtime `.asm` workload (repeatable).
pub const ASM: Flag = Flag {
    name: "--asm",
    value: Some("PATH"),
    help: "run PATH as a workload (repeatable; with no bundled names \
           listed, only --asm workloads run)",
};

/// A binary's command-line grammar.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Binary name (for the usage line).
    pub name: &'static str,
    /// One-line description of what the binary does.
    pub about: &'static str,
    /// The flags this binary accepts (beyond `--help`).
    pub flags: &'static [Flag],
    /// Whether positional workload names are accepted.
    pub takes_workloads: bool,
}

/// Parsed arguments: the validated workload filter and every flag value.
#[derive(Debug, Clone)]
pub struct Args {
    /// Positional workload names (empty = all workloads).
    pub filter: Vec<String>,
    /// True if `--csv` was passed (and accepted by the spec).
    pub csv: bool,
    /// `--asm PATH` runtime-workload files, in command-line order.
    pub asm: Vec<String>,
    /// Worker threads: `--jobs N` (at least 1), else
    /// [`pool::default_jobs`] (`POLYFLOW_JOBS`, else available CPUs); 1
    /// for a binary that takes no `--jobs`.
    pub jobs: usize,
    /// Per-run cycle budget: `--max-cycles N`, else unlimited.
    pub max_cycles: u64,
    /// True if `--predicted-deps` was passed.
    pub predicted_deps: bool,
    /// The binary's own flags, as given: a number, or `None` for a
    /// switch ([`Args::number`], [`Args::switch`]).
    own: Vec<(&'static str, Option<u64>)>,
}

impl Args {
    /// The machine `cell` runs on under this command line:
    /// [`Cell::machine`] with the `--max-cycles` budget and, under
    /// `--predicted-deps`, store-set register and memory dependence
    /// prediction on every spawning cell.
    pub fn machine(&self, cell: Cell) -> MachineConfig {
        let mut cfg = cell.machine();
        cfg.max_cycles = self.max_cycles;
        if self.predicted_deps && cell != Cell::Baseline {
            cfg.register_dependence = DependenceMode::StoreSet;
            cfg.memory_dependence = DependenceMode::StoreSet;
        }
        cfg
    }

    /// The last value given for the binary's numeric `flag`.
    pub fn number(&self, flag: &Flag) -> Option<u64> {
        let mut given = self.own.iter().rev();
        given.find_map(|&(name, v)| v.filter(|_| name == flag.name))
    }

    /// True if the binary's switch `flag` was given.
    pub fn switch(&self, flag: &Flag) -> bool {
        self.own.iter().any(|(name, _)| *name == flag.name)
    }
}

/// Renders the usage page for `spec`.
pub fn usage(spec: &Spec) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} — {}\n\n", spec.name, spec.about));
    out.push_str(&format!(
        "Usage: {} [flags]{}\n\nFlags:\n",
        spec.name,
        if spec.takes_workloads {
            " [workload ...]"
        } else {
            ""
        }
    ));
    let mut rows: Vec<(String, &str)> = spec
        .flags
        .iter()
        .map(|f| {
            let lhs = match f.value {
                Some(v) => format!("{} {v}", f.name),
                None => f.name.to_string(),
            };
            (lhs, f.help)
        })
        .collect();
    rows.push(("--help".to_string(), "print this help and exit"));
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (lhs, help) in rows {
        out.push_str(&format!("  {lhs:<width$}  {help}\n"));
    }
    if spec.takes_workloads {
        out.push_str(&format!(
            "\nWorkloads (default: all):\n  {}\n",
            polyflow_workloads::names().join(" ")
        ));
    }
    out
}

/// Parses the process's command line against `spec`.
///
/// `--help`/`-h` prints the usage page and exits 0. An unknown flag, a
/// missing flag value, a malformed numeric value, or an unknown workload
/// name prints the problem plus the usage page to stderr and exits 2 —
/// nothing runs on a command line the binary does not fully understand.
/// A malformed `POLYFLOW_JOBS` that [`try_parse`] reads is reported the
/// same way.
pub fn parse(spec: &Spec) -> Args {
    match try_parse(spec, std::env::args().skip(1)) {
        Ok(Parsed::Args(a)) => a,
        Ok(Parsed::HelpRequested) => {
            print!("{}", usage(spec));
            exit(0);
        }
        Err(e) => {
            eprintln!("{}: {e}\n\n{}", spec.name, usage(spec));
            exit(2);
        }
    }
}

/// Outcome of a successful [`try_parse`].
#[derive(Debug)]
pub enum Parsed {
    /// The parsed arguments.
    Args(Args),
    /// `--help` was requested; the caller should print usage and exit 0.
    HelpRequested,
}

/// The fallible core of [`parse`]: returns the parsed arguments, a help
/// request, or a description of what was wrong with the command line
/// (or with `POLYFLOW_JOBS`, which is read only when the binary takes
/// `--jobs` and the command line gives none).
pub fn try_parse(spec: &Spec, args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut out = Args {
        filter: Vec::new(),
        csv: false,
        asm: Vec::new(),
        jobs: 0,
        max_cycles: u64::MAX,
        predicted_deps: false,
        own: Vec::new(),
    };
    let mut args = args.peekable();
    let mut positional_only = false;
    while let Some(a) = args.next() {
        if positional_only {
            push_workload(spec, &mut out, &a)?;
            continue;
        }
        if a == "--" {
            positional_only = true;
            continue;
        }
        if a == "--help" || a == "-h" {
            return Ok(Parsed::HelpRequested);
        }
        if a.starts_with('-') {
            let (name, inline_value) = match a.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (a.clone(), None),
            };
            let Some(flag) = spec.flags.iter().find(|f| f.name == name) else {
                return Err(format!("unknown flag `{name}`"));
            };
            match (flag.value, inline_value) {
                (None, None) => match flag.name {
                    "--csv" => out.csv = true,
                    "--predicted-deps" => out.predicted_deps = true,
                    own => out.own.push((own, None)),
                },
                (None, Some(_)) => {
                    return Err(format!("flag `{name}` takes no value"));
                }
                (Some(placeholder), inline) => {
                    let v = match inline {
                        Some(v) => v,
                        None => args
                            .next()
                            .ok_or_else(|| format!("flag `{name}` requires a {placeholder}"))?,
                    };
                    if flag.name == "--asm" {
                        // Path-valued: carried for `prepare_selection`.
                        out.asm.push(v);
                        continue;
                    }
                    let n = v
                        .parse::<u64>()
                        .map_err(|_| format!("flag `{name}` requires a number, got `{v}`"))?;
                    match flag.name {
                        "--jobs" => out.jobs = usize::try_from(n).unwrap_or(usize::MAX).max(1),
                        "--max-cycles" => out.max_cycles = n,
                        own => out.own.push((own, Some(n))),
                    }
                }
            }
        } else {
            push_workload(spec, &mut out, &a)?;
        }
    }
    if out.jobs == 0 {
        let takes_jobs = spec.flags.iter().any(|f| f.name == JOBS.name);
        out.jobs = if takes_jobs { pool::default_jobs()? } else { 1 };
    }
    Ok(Parsed::Args(out))
}

fn push_workload(spec: &Spec, out: &mut Args, name: &str) -> Result<(), String> {
    if !spec.takes_workloads {
        return Err(format!("unexpected argument `{name}`"));
    }
    if !polyflow_workloads::names().contains(&name) {
        return Err(format!(
            "unknown workload `{name}` (one of: {})",
            polyflow_workloads::names().join(", ")
        ));
    }
    out.filter.push(name.to_string());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "figtest",
        about: "unit-test spec",
        flags: &[JOBS, MAX_CYCLES, CSV],
        takes_workloads: true,
    };

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn accepts_known_flags_and_workloads() {
        let Parsed::Args(a) = try_parse(
            &SPEC,
            args(&["--jobs", "2", "--max-cycles=500", "--csv", "twolf", "gzip"]),
        )
        .unwrap() else {
            panic!("not a help request")
        };
        assert_eq!(a.filter, vec!["twolf", "gzip"]);
        assert!(a.csv);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.max_cycles, 500);
    }

    #[test]
    fn flag_values_build_the_machines() {
        let spec = Spec {
            flags: &[JOBS, MAX_CYCLES, PREDICTED_DEPS],
            ..SPEC
        };
        let parse = |list: &[&str]| match try_parse(&spec, args(list)).unwrap() {
            Parsed::Args(a) => a,
            Parsed::HelpRequested => panic!("not a help request"),
        };
        let plain = parse(&["--jobs=0"]);
        assert_eq!(plain.jobs, 1, "a worker count is at least 1");
        for cell in [Cell::Baseline, Cell::Static(polyflow_core::Policy::Loop)] {
            assert_eq!(plain.machine(cell), cell.machine());
        }

        let a = parse(&["--max-cycles", "100", "--predicted-deps"]);
        let base = a.machine(Cell::Baseline);
        assert_eq!(base.max_cycles, 100);
        assert_eq!(base.register_dependence, DependenceMode::OracleSync);
        assert_eq!(base.memory_dependence, DependenceMode::OracleSync);
        let pd = a.machine(Cell::Reconv);
        assert_eq!(pd.max_cycles, 100);
        assert_eq!(pd.register_dependence, DependenceMode::StoreSet);
        assert_eq!(pd.memory_dependence, DependenceMode::StoreSet);
    }

    #[test]
    fn own_flags_carry_their_values() {
        const REPEAT: Flag = Flag {
            name: "--repeat",
            value: Some("N"),
            help: "repetitions",
        };
        const JSON: Flag = Flag {
            name: "--json",
            value: None,
            help: "json",
        };
        let spec = Spec {
            flags: &[REPEAT, JSON],
            ..SPEC
        };
        let Parsed::Args(a) = try_parse(&spec, args(&["--repeat", "4", "--json"])).unwrap() else {
            panic!("not a help request")
        };
        assert_eq!(a.number(&REPEAT), Some(4));
        assert!(a.switch(&JSON));
        let Parsed::Args(a) = try_parse(&spec, args(&[])).unwrap() else {
            panic!("not a help request")
        };
        assert_eq!(a.number(&REPEAT), None);
        assert!(!a.switch(&JSON));
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = try_parse(&SPEC, args(&["--hlep"])).unwrap_err();
        assert!(e.contains("unknown flag `--hlep`"), "{e}");
        let e = try_parse(&SPEC, args(&["--jobs=2", "--frobnicate"])).unwrap_err();
        assert!(e.contains("--frobnicate"), "{e}");
    }

    #[test]
    fn rejects_unknown_workloads_and_bad_values() {
        let e = try_parse(&SPEC, args(&["eon"])).unwrap_err();
        assert!(e.contains("unknown workload `eon`"), "{e}");
        let e = try_parse(&SPEC, args(&["--jobs"])).unwrap_err();
        assert!(e.contains("requires a N"), "{e}");
        let e = try_parse(&SPEC, args(&["--jobs", "many"])).unwrap_err();
        assert!(e.contains("requires a number"), "{e}");
        let e = try_parse(&SPEC, args(&["--csv=1"])).unwrap_err();
        assert!(e.contains("takes no value"), "{e}");
    }

    #[test]
    fn asm_flag_carries_paths_in_order() {
        let spec = Spec {
            flags: &[JOBS, ASM],
            ..SPEC
        };
        let Parsed::Args(a) =
            try_parse(&spec, args(&["--asm", "a.asm", "twolf", "--asm=dir/b.asm"])).unwrap()
        else {
            panic!("not a help request")
        };
        assert_eq!(a.asm, vec!["a.asm", "dir/b.asm"]);
        assert_eq!(a.filter, vec!["twolf"]);
        // Paths are not subject to the numeric-value check.
        assert!(try_parse(&spec, args(&["--asm", "not-a-number.asm"])).is_ok());
    }

    #[test]
    fn help_is_signalled_not_fatal() {
        assert!(matches!(
            try_parse(&SPEC, args(&["--help"])).unwrap(),
            Parsed::HelpRequested
        ));
        assert!(matches!(
            try_parse(&SPEC, args(&["-h", "twolf"])).unwrap(),
            Parsed::HelpRequested
        ));
    }

    #[test]
    fn double_dash_separates_positionals() {
        let Parsed::Args(a) = try_parse(&SPEC, args(&["--", "mcf"])).unwrap() else {
            panic!("not a help request")
        };
        assert_eq!(a.filter, vec!["mcf"]);
    }

    #[test]
    fn workloadless_spec_rejects_positionals() {
        let spec = Spec {
            takes_workloads: false,
            ..SPEC
        };
        let e = try_parse(&spec, args(&["twolf"])).unwrap_err();
        assert!(e.contains("unexpected argument"), "{e}");
    }

    #[test]
    fn usage_names_every_flag() {
        let u = usage(&SPEC);
        for f in SPEC.flags {
            assert!(u.contains(f.name), "usage must document {}", f.name);
        }
        assert!(u.contains("--help"));
        assert!(u.contains("twolf"), "workload list is part of the page");
    }
}
