//! The one command-line grammar: every binary under `crates/` parses its
//! arguments here, and nothing else reads them (`std::env::args`).
//!
//! A binary declares its grammar as a [`Spec`]: its flags, its
//! positional arguments ([`Operands`]) and an optional closing paragraph
//! for its usage page. [`parse`] checks the command line against it, and
//! the binary reads every value back through [`Args`]' getters. The rules
//! are the same for every binary:
//!
//! * `--flag value` and `--flag=value` mean the same; a switch takes no
//!   value;
//! * a number is decimal or `0x` hex, and one that does not fit the field
//!   it sets is refused, naming the flag ([`Args::number`]);
//! * `--` ends the flags: everything after it is positional;
//! * `--help`/`-h` prints the usage page to stdout and exits 0;
//! * anything else the binary does not understand (an unknown flag, a
//!   missing or malformed value, an unknown workload, one positional too
//!   many) prints the problem and the usage page to stderr and exits 2,
//!   before anything runs;
//! * `--jobs 0`, like no `--jobs`, means the default worker count
//!   ([`Args::jobs`]).

use crate::fuzz::parse_seed;
use crate::pool;
use crate::sweep::Cell;
use polyflow_sim::{DependenceMode, MachineConfig};
use polyflow_workloads::Workload;
use std::process::exit;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Nothing: the flag is a switch.
    Switch,
    /// A number, decimal or `0x` hex, shown as its placeholder (`"N"`).
    Number(&'static str),
    /// Text such as a path or an address, shown as its placeholder.
    Text(&'static str),
}

/// One flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag itself, including dashes (`"--jobs"`).
    pub name: &'static str,
    /// What the flag takes.
    pub value: Value,
    /// One-line description for the usage page.
    pub help: &'static str,
}

/// `--jobs N`: worker threads for the sweep pool.
pub const JOBS: Flag = Flag {
    name: "--jobs",
    value: Value::Number("N"),
    help: "worker threads (default or 0: POLYFLOW_JOBS, else available CPUs)",
};

/// `--max-cycles N`: the per-run cycle budget watchdog.
pub const MAX_CYCLES: Flag = Flag {
    name: "--max-cycles",
    value: Value::Number("N"),
    help: "per-run cycle budget (default: unlimited)",
};

/// `--predicted-deps`: predict inter-task dependences instead of
/// synchronizing on the oracle.
pub const PREDICTED_DEPS: Flag = Flag {
    name: "--predicted-deps",
    value: Value::Switch,
    help: "predict inter-task register (hint entries) and memory (store \
           sets) dependences on every spawning cell; the baseline is unchanged",
};

/// `--csv`: machine-readable output instead of the aligned table.
pub const CSV: Flag = Flag {
    name: "--csv",
    value: Value::Switch,
    help: "emit CSV instead of the aligned table",
};

/// `--asm PATH`: load a runtime `.asm` workload (repeatable).
pub const ASM: Flag = Flag {
    name: "--asm",
    value: Value::Text("PATH"),
    help: "run PATH as a workload (repeatable; with no bundled names \
           listed, only --asm workloads run)",
};

/// The positional arguments a binary accepts.
#[derive(Debug, Clone, Copy)]
pub enum Operands {
    /// None.
    None,
    /// Bundled workload names, any number (none: all of them); each one
    /// is checked.
    Workloads,
    /// At most this many words, which the binary reads itself, shown on
    /// the usage line as written (`&["<workload>", "[policy]"]`).
    Words(&'static [&'static str]),
}

/// A binary's command-line grammar.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Binary name (for the usage line).
    pub name: &'static str,
    /// One-line description of what the binary does.
    pub about: &'static str,
    /// The flags this binary accepts (beyond `--help`).
    pub flags: &'static [Flag],
    /// Its positional arguments.
    pub operands: Operands,
    /// A closing paragraph for the usage page (`""` for none).
    pub notes: &'static str,
}

/// A parsed command line: the positional arguments and every flag as
/// given.
#[derive(Debug, Clone)]
pub struct Args {
    /// Positional arguments, in order: under [`Operands::Workloads`] the
    /// workload filter (empty = all workloads).
    pub filter: Vec<String>,
    spec: Spec,
    /// Each flag given and its value (empty for a switch), in order.
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// True if the switch `flag` was given.
    pub fn switch(&self, flag: &Flag) -> bool {
        self.given.iter().any(|(name, _)| *name == flag.name)
    }

    /// Every value given for `flag`, in command-line order.
    pub fn texts(&self, flag: &Flag) -> Vec<&str> {
        let given = self.given.iter().filter(|(name, _)| *name == flag.name);
        given.map(|(_, v)| v.as_str()).collect()
    }

    /// The last value given for `flag`.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        let given = self.given.iter().rev().find(|(name, _)| *name == flag.name);
        given.map(|(_, v)| v.as_str())
    }

    /// The last value given for `flag` as a comma-separated list, blank
    /// items dropped (empty if the flag was not given).
    pub fn list(&self, flag: &Flag) -> Vec<String> {
        let items = self.text(flag).unwrap_or("").split(',').map(str::trim);
        items.filter(|s| !s.is_empty()).map(String::from).collect()
    }

    /// The last value given for the numeric `flag`, in the type of the
    /// field it sets. A value that does not fit that type is a bad
    /// command line: it exits 2 naming the flag.
    pub fn number<T: TryFrom<u64>>(&self, flag: &Flag) -> Option<T> {
        self.try_number(flag).unwrap_or_else(|e| self.fail(&e))
    }

    fn try_number<T: TryFrom<u64>>(&self, flag: &Flag) -> Result<Option<T>, String> {
        let Some(v) = self.text(flag) else {
            return Ok(None);
        };
        let fits = parse_seed(v).and_then(|n| T::try_from(n).ok());
        fits.map(Some)
            .ok_or_else(|| format!("flag `{}` is out of range: `{v}`", flag.name))
    }

    /// The worker count: `--jobs N`, else (no `--jobs`, or `--jobs 0`)
    /// [`pool::default_jobs`]: `POLYFLOW_JOBS`, else the available CPUs.
    /// The variable is read here only, so a binary reads it only when it
    /// uses workers; a malformed value exits 2.
    pub fn jobs(&self) -> usize {
        self.try_jobs().unwrap_or_else(|e| self.fail(&e))
    }

    fn try_jobs(&self) -> Result<usize, String> {
        match self.try_number(&JOBS)? {
            Some(n) if n > 0 => Ok(n),
            _ => pool::default_jobs(),
        }
    }

    /// The machine `cell` runs on under this command line:
    /// [`Cell::machine`] with the `--max-cycles` budget and, under
    /// `--predicted-deps`, store-set register and memory dependence
    /// prediction on every spawning cell.
    pub fn machine(&self, cell: Cell) -> MachineConfig {
        let mut cfg = cell.machine();
        cfg.max_cycles = self.number(&MAX_CYCLES).unwrap_or(u64::MAX);
        if self.switch(&PREDICTED_DEPS) && cell != Cell::Baseline {
            cfg.register_dependence = DependenceMode::StoreSet;
            cfg.memory_dependence = DependenceMode::StoreSet;
        }
        cfg
    }

    /// The bundled workload `name`; an unknown name is a bad command
    /// line.
    pub fn workload(&self, name: &str) -> Workload {
        polyflow_workloads::by_name(name).unwrap_or_else(|| self.fail(&unknown_workload(name)))
    }

    /// Reports a bad command line, as [`parse`] does: the problem and the
    /// usage page on stderr, exit status 2. Binaries call it for their
    /// own checks of the values they read.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(&self.spec, msg)
    }

    fn push_operand(&mut self, word: String) -> Result<(), String> {
        match self.spec.operands {
            Operands::Workloads if !polyflow_workloads::names().contains(&word.as_str()) => {
                return Err(unknown_workload(&word));
            }
            Operands::Workloads => {}
            Operands::Words(words) if self.filter.len() < words.len() => {}
            _ => return Err(format!("unexpected argument `{word}`")),
        }
        self.filter.push(word);
        Ok(())
    }
}

/// Renders the usage page for `spec`.
pub fn usage(spec: &Spec) -> String {
    let operands = match spec.operands {
        Operands::None => String::new(),
        Operands::Workloads => " [workload ...]".to_string(),
        Operands::Words(words) => format!(" {}", words.join(" ")),
    };
    let mut out = format!(
        "{} — {}\n\nUsage: {} [flags]{operands}\n\nFlags:\n",
        spec.name, spec.about, spec.name
    );
    let mut rows: Vec<(String, &str)> = spec
        .flags
        .iter()
        .map(|f| match f.value {
            Value::Switch => (f.name.to_string(), f.help),
            Value::Number(v) | Value::Text(v) => (format!("{} {v}", f.name), f.help),
        })
        .collect();
    rows.push(("--help".to_string(), "print this help and exit"));
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (lhs, help) in rows {
        out.push_str(&format!("  {lhs:<width$}  {help}\n"));
    }
    let heading = match spec.operands {
        Operands::None => None,
        Operands::Workloads => Some("Workloads (default: all)"),
        Operands::Words(_) => Some("Workloads"),
    };
    if let Some(heading) = heading {
        let names = polyflow_workloads::names().join(" ");
        out.push_str(&format!("\n{heading}:\n  {names}\n"));
    }
    if !spec.notes.is_empty() {
        out.push('\n');
        out.push_str(spec.notes);
    }
    out
}

/// Parses the process's command line against `spec`.
///
/// `--help`/`-h` prints the usage page and exits 0. A command line the
/// binary does not fully understand prints the problem plus the usage
/// page to stderr and exits 2 — nothing runs.
pub fn parse(spec: &Spec) -> Args {
    match try_parse(spec, std::env::args().skip(1)) {
        Ok(Parsed::Args(a)) => a,
        Ok(Parsed::HelpRequested) => {
            print!("{}", usage(spec));
            exit(0);
        }
        Err(e) => usage_error(spec, &e),
    }
}

fn usage_error(spec: &Spec, msg: &str) -> ! {
    eprintln!("{}: {msg}\n\n{}", spec.name, usage(spec));
    exit(2);
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
/// request, or a description of what was wrong with the command line.
pub fn try_parse(spec: &Spec, mut args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut out = Args {
        filter: Vec::new(),
        spec: *spec,
        given: Vec::new(),
    };
    let mut flags_done = false;
    while let Some(a) = args.next() {
        if !flags_done && a == "--" {
            flags_done = true;
            continue;
        }
        if !flags_done && (a == "--help" || a == "-h") {
            return Ok(Parsed::HelpRequested);
        }
        if flags_done || !a.starts_with('-') {
            out.push_operand(a)?;
            continue;
        }
        let (name, inline) = match a.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let Some(flag) = spec.flags.iter().find(|f| f.name == name) else {
            return Err(format!("unknown flag `{name}`"));
        };
        let value = match (flag.value, inline) {
            (Value::Switch, None) => String::new(),
            (Value::Switch, Some(_)) => return Err(format!("flag `{name}` takes no value")),
            (Value::Number(p) | Value::Text(p), inline) => inline
                .or_else(|| args.next())
                .ok_or_else(|| format!("flag `{name}` requires a {p}"))?,
        };
        if matches!(flag.value, Value::Number(_)) && parse_seed(&value).is_none() {
            return Err(format!("flag `{name}` requires a number, got `{value}`"));
        }
        out.given.push((flag.name, value));
    }
    Ok(Parsed::Args(out))
}

fn unknown_workload(name: &str) -> String {
    format!(
        "unknown workload `{name}` (one of: {})",
        polyflow_workloads::names().join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "figtest",
        about: "unit-test spec",
        flags: &[JOBS, MAX_CYCLES, CSV],
        operands: Operands::Workloads,
        notes: "",
    };

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn parsed(spec: &Spec, list: &[&str]) -> Args {
        match try_parse(spec, args(list)).unwrap() {
            Parsed::Args(a) => a,
            Parsed::HelpRequested => panic!("not a help request"),
        }
    }

    #[test]
    fn accepts_known_flags_and_workloads() {
        let a = parsed(
            &SPEC,
            &["--jobs", "2", "--max-cycles=500", "--csv", "twolf", "gzip"],
        );
        assert_eq!(a.filter, vec!["twolf", "gzip"]);
        assert!(a.switch(&CSV));
        assert_eq!(a.jobs(), 2);
        assert_eq!(a.number(&MAX_CYCLES), Some(500u64));
    }

    #[test]
    fn flag_values_build_the_machines() {
        let spec = Spec {
            flags: &[JOBS, MAX_CYCLES, PREDICTED_DEPS],
            ..SPEC
        };
        let plain = parsed(&spec, &["--jobs=0"]);
        assert_eq!(
            plain.try_jobs(),
            pool::default_jobs(),
            "--jobs 0 is the default worker count"
        );
        for cell in [Cell::Baseline, Cell::Static(polyflow_core::Policy::Loop)] {
            assert_eq!(plain.machine(cell), cell.machine());
        }

        let a = parsed(&spec, &["--max-cycles", "100", "--predicted-deps"]);
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
            value: Value::Number("N"),
            help: "repetitions",
        };
        const JSON: Flag = Flag {
            name: "--json",
            value: Value::Switch,
            help: "json",
        };
        let spec = Spec {
            flags: &[REPEAT, JSON],
            ..SPEC
        };
        let a = parsed(&spec, &["--repeat", "4", "--json"]);
        assert_eq!(a.number(&REPEAT), Some(4));
        assert!(a.switch(&JSON));
        let a = parsed(&spec, &[]);
        assert_eq!(a.number::<u64>(&REPEAT), None);
        assert!(!a.switch(&JSON));
    }

    #[test]
    fn numbers_are_decimal_or_hex_and_must_fit_their_field() {
        let a = parsed(&SPEC, &["--max-cycles", "0x7357", "--jobs=4294967296"]);
        assert_eq!(a.number(&MAX_CYCLES), Some(0x7357u64));
        assert_eq!(a.try_number::<u64>(&JOBS), Ok(Some(1 << 32)));
        let e = a.try_number::<u32>(&JOBS).unwrap_err();
        assert!(e.contains("`--jobs` is out of range: `4294967296`"), "{e}");
        let e = try_parse(&SPEC, args(&["--jobs", "18446744073709551616"])).unwrap_err();
        assert!(e.contains("requires a number"), "{e}");
    }

    #[test]
    fn text_flags_and_words_keep_what_was_given() {
        const ADDR: Flag = Flag {
            name: "--addr",
            value: Value::Text("HOST:PORT"),
            help: "address",
        };
        let spec = Spec {
            flags: &[ADDR],
            operands: Operands::Words(&["<workload>", "[policy]"]),
            notes: "Closing note.\n",
            ..SPEC
        };
        let a = parsed(&spec, &["--addr=h:1,,  k:2 ", "eon", "--", "--x"]);
        assert_eq!(a.text(&ADDR), Some("h:1,,  k:2 "));
        assert_eq!(a.list(&ADDR), vec!["h:1", "k:2"]);
        assert_eq!(
            a.filter,
            vec!["eon", "--x"],
            "words are not workload-checked"
        );
        let e = try_parse(&spec, args(&["a", "b", "c"])).unwrap_err();
        assert!(e.contains("unexpected argument `c`"), "{e}");
        let u = usage(&spec);
        assert!(
            u.contains("Usage: figtest [flags] <workload> [policy]\n"),
            "{u}"
        );
        assert!(u.ends_with("\nClosing note.\n"), "{u}");
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
        let a = parsed(&spec, &["--asm", "a.asm", "twolf", "--asm=dir/b.asm"]);
        assert_eq!(a.texts(&ASM), vec!["a.asm", "dir/b.asm"]);
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
        let a = parsed(&SPEC, &["--", "mcf"]);
        assert_eq!(a.filter, vec!["mcf"]);
    }

    #[test]
    fn workloadless_spec_rejects_positionals() {
        let spec = Spec {
            operands: Operands::None,
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
