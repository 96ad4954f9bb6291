//! The command-line contract every binary keeps, checked by running it
//! four ways. Each package's tests can run only that package's binaries,
//! so the bench and serve `cli_contract` tests share this file, each
//! with a table of its own binaries.

use std::process::Command;

/// One binary and what its command line accepts.
pub struct Contract {
    /// The binary (`env!("CARGO_BIN_EXE_<name>")`).
    pub exe: &'static str,
    /// Every flag as its usage page shows it (`"--jobs N"`, `"--csv"`),
    /// in the page's order.
    pub flags: &'static [&'static str],
    /// A command line in the `--flag=value` form that stops before
    /// anything is simulated or bound, its exit status, and a piece of
    /// what it prints (stdout or stderr); `None` for a binary without
    /// flags.
    pub eq_form: Option<(&'static [&'static str], i32, &'static str)>,
}

/// Runs `exe` with `args`: exit status, stdout, stderr.
pub fn run(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Checks `c`:
/// * `--help` exits 0 with nothing on stderr, and its page on stdout
///   names exactly the binary's flags;
/// * an unknown flag exits 2 with nothing on stdout and the problem and
///   the usage page on stderr;
/// * a flag that takes a value, given none, exits 2;
/// * the `--flag=value` command line ends as the table says.
pub fn check(c: &Contract) {
    let exe = c.exe;
    let (code, page, err) = run(exe, &["--help"]);
    assert_eq!((code, err.as_str()), (Some(0), ""), "{exe} --help");
    let listed: Vec<&str> = page
        .lines()
        .filter(|l| l.starts_with("  --"))
        .filter_map(|l| l.trim_start().split("  ").next())
        .collect();
    let mut flags = c.flags.to_vec();
    flags.push("--help");
    assert_eq!(listed, flags, "{exe} --help names its flags:\n{page}");

    let (code, out, err) = run(exe, &["--no-such-flag"]);
    assert_eq!(code, Some(2), "{exe} --no-such-flag: {err}");
    assert_eq!(out, "", "{exe} --no-such-flag");
    assert!(
        err.contains("unknown flag `--no-such-flag`"),
        "{exe}: {err}"
    );
    assert!(
        err.contains(&page),
        "{exe}: the usage page on stderr:\n{err}"
    );

    if let Some((name, _)) = c.flags.iter().find_map(|f| f.split_once(' ')) {
        let (code, out, err) = run(exe, &[name]);
        assert_eq!((code, out.as_str()), (Some(2), ""), "{exe} {name}");
        assert!(err.contains(&format!("flag `{name}` requires")), "{err}");
    }

    if let Some((args, status, says)) = c.eq_form {
        let (code, out, err) = run(exe, args);
        assert_eq!(code, Some(status), "{exe} {args:?}:\n{out}{err}");
        assert!(
            out.contains(says) || err.contains(says),
            "{exe} {args:?} must print {says:?}:\n{out}{err}"
        );
    }
}
