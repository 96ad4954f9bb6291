//! The `verify` verb: the lint pass as a served request.
//!
//! A `{"verb":"verify", …}` request runs the same static checks the
//! `lint` binary runs — `polyflow_core::verify` over a
//! [`ProgramAnalysis`] (DESIGN.md §12) — against either a bundled workload
//! (`"workload":"twolf"`) or a program uploaded as assembly text
//! (`"program":"…"`). It takes the simulate request's path: the reactor
//! parses it and the service admits it ([`crate::service::Service::enqueue`]),
//! and a worker runs [`lint`], so a large program never stalls other
//! connections.
//!
//! The rendered report is a pure function of the program bytes: the
//! response is cached in the shared [`ResultCache`] keyed by the
//! program's *fingerprint* (FNV-1a over its canonical assembly), so a
//! re-uploaded program and the workload it was dumped from share one
//! cache entry and replay identical bytes.
//!
//! [`ProgramAnalysis`]: polyflow_core::ProgramAnalysis
//! [`ResultCache`]: crate::cache::ResultCache

use crate::json::{Style, Writer};
use crate::protocol::{ErrorKind, ServeError, SimSource};
use polyflow_core::{verify, ProgramAnalysis, VerifyOptions};
use polyflow_isa::{fnv1a, to_asm, Program};
use polyflow_sim::MachineConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Content fingerprint of a program: 64-bit FNV-1a over its canonical
/// assembly rendering, as fixed-width hex. The assembly round-trips the
/// full instruction stream and function table, so two programs share a
/// fingerprint iff they serialize identically.
pub fn fingerprint(program: &Program) -> String {
    format!("{:016x}", fnv1a(to_asm(program).as_bytes()))
}

/// Lints the program `source` names and renders its report ([`run`]),
/// as a worker does for a `verify` request whose program has the
/// content fingerprint `fingerprint`. A panic inside the lint pass — a
/// program the assembler accepts but an analysis chokes on — is a typed
/// `internal` error, like a simulation's.
pub fn lint(source: &SimSource, fingerprint: &str) -> Result<String, ServeError> {
    catch_unwind(AssertUnwindSafe(|| match source {
        SimSource::Bundled(name) => {
            let w = polyflow_workloads::by_name(name).expect("a bundled name");
            run(&w.program, fingerprint)
        }
        SimSource::Uploaded(up) => run(&up.workload().program, fingerprint),
    }))
    .map_err(|_| ServeError::new(ErrorKind::Internal, "lint pass died on this program"))
}

/// Runs the lint pass on `program` and renders the single-line JSON
/// report body.
///
/// The body is deterministic: diagnostics come out of
/// [`polyflow_core::verify`] in function order and hint overflows in
/// spawn order, so the rendered bytes depend on the program alone, and
/// caching the line is safe.
pub fn run(program: &Program, fingerprint: &str) -> String {
    let analysis = ProgramAnalysis::analyze(program);
    let opts = VerifyOptions {
        hint_register_slots: MachineConfig::hpca07().hint_register_slots,
        ..VerifyOptions::default()
    };
    let report = verify(program, &analysis, &opts);
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("ok").bool(true);
        w.key("verify").object(|w| {
            w.key("fingerprint").str(fingerprint);
            w.key("clean").bool(report.is_clean());
            w.key("spawn_points")
                .u64(analysis.candidates().len() as u64);
            w.key("diagnostics").array(|w| {
                for d in &report.diagnostics {
                    w.object(|w| {
                        w.key("check").display(d.check);
                        w.key("function").str(&d.function);
                        w.key("pc").display(d.pc);
                        w.key("message").str(&d.message);
                    });
                }
            });
            w.key("hint_overflows").array(|w| {
                for h in report.hint_overflows() {
                    let regs: Vec<String> = h.live_in.iter().map(|r| r.to_string()).collect();
                    w.object(|w| {
                        w.key("spawn").display(h.spawn);
                        w.key("live_in").str(&regs.join(","));
                        w.key("slots").u64(h.slots as u64);
                    });
                }
            });
        });
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// The report renderer the writer replaced, kept as its oracle.
    mod reference {
        use super::*;
        use crate::json;

        pub fn run(program: &Program, fingerprint: &str) -> String {
            let analysis = ProgramAnalysis::analyze(program);
            let opts = VerifyOptions {
                hint_register_slots: MachineConfig::hpca07().hint_register_slots,
                ..VerifyOptions::default()
            };
            let report = verify(program, &analysis, &opts);

            let mut diags = String::from("[");
            for (i, d) in report.diagnostics.iter().enumerate() {
                if i > 0 {
                    diags.push(',');
                }
                diags.push_str(&format!(
                    "{{\"check\":\"{}\",\"function\":\"{}\",\"pc\":\"{}\",\"message\":\"{}\"}}",
                    d.check,
                    json::escape(&d.function),
                    d.pc,
                    json::escape(&d.message),
                ));
            }
            diags.push(']');

            let mut overflows = String::from("[");
            for (i, h) in report.hint_overflows().enumerate() {
                if i > 0 {
                    overflows.push(',');
                }
                let regs: Vec<String> = h.live_in.iter().map(|r| r.to_string()).collect();
                overflows.push_str(&format!(
                    "{{\"spawn\":\"{}\",\"live_in\":\"{}\",\"slots\":{}}}",
                    h.spawn,
                    json::escape(&regs.join(",")),
                    h.slots,
                ));
            }
            overflows.push(']');

            format!(
                "{{\"ok\":true,\"verify\":{{\"fingerprint\":\"{fingerprint}\",\
                 \"clean\":{},\"spawn_points\":{},\"diagnostics\":{diags},\
                 \"hint_overflows\":{overflows}}}}}",
                report.is_clean(),
                analysis.candidates().len(),
            )
        }
    }

    fn twolf() -> Program {
        polyflow_workloads::by_name("twolf").unwrap().program
    }

    /// The report renders what the replaced renderer rendered, byte for
    /// byte, over the bundled programs, the checked-in asm programs, the
    /// fuzz corpus and programs with diagnostics, including a function
    /// name that needs escaping.
    #[test]
    fn report_matches_the_reference_renderer() {
        let mut programs: Vec<Program> = polyflow_workloads::all()
            .into_iter()
            .map(|w| w.program)
            .collect();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads/asm");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "asm"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 3, "the checked-in asm programs");
        for path in paths {
            programs.push(polyflow_workloads::from_asm_file(&path).unwrap().program);
        }
        for seed in polyflow_bench::fuzz::corpus_program_seeds() {
            programs.push(polyflow_bench::fuzz::random_program(seed));
        }
        let src = "fn main {\n  li r1, 1\n  j done\njunk:\n  addi r2, r2, 1\ndone:\n  halt\n}";
        programs.push(polyflow_isa::parse_program(src).unwrap());
        // An unreachable block in a function whose name needs escaping.
        let mut b = polyflow_isa::ProgramBuilder::new();
        b.begin_function("odd \"name\" \\ π\t");
        let out = b.fresh_label("out");
        b.jmp(out);
        b.halt();
        b.bind_label(out);
        b.halt();
        b.end_function();
        programs.push(b.build().unwrap());
        let mut dirty = 0;
        for p in &programs {
            let f = fingerprint(p);
            let line = run(p, &f);
            assert_eq!(line, reference::run(p, &f), "{}", p.name());
            dirty += usize::from(line.contains("\"clean\":false"));
        }
        assert!(dirty > 0, "no program exercised the diagnostics");
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let p = twolf();
        let f = fingerprint(&p);
        assert_eq!(f.len(), 16, "fixed-width hex");
        assert_eq!(f, fingerprint(&p), "same bytes, same fingerprint");
        // Round-tripping through assembly preserves the fingerprint…
        let reparsed = polyflow_isa::parse_program(&to_asm(&p)).unwrap();
        assert_eq!(f, fingerprint(&reparsed));
        // …and a different program gets a different one.
        let other = polyflow_workloads::by_name("gzip").unwrap().program;
        assert_ne!(f, fingerprint(&other));
    }

    #[test]
    fn report_is_valid_single_line_json_and_job_independent() {
        let p = twolf();
        let f = fingerprint(&p);
        let line = run(&p, &f);
        assert!(!line.contains('\n'));
        assert_eq!(line, run(&p, &f), "a second run renders the same bytes");

        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let body = v.get("verify").unwrap();
        assert_eq!(body.get("fingerprint").unwrap().as_str(), Some(f.as_str()));
        assert_eq!(
            body.get("clean").unwrap().as_bool(),
            Some(true),
            "the bundled workloads lint clean"
        );
        assert!(body.get("spawn_points").unwrap().as_u64().unwrap() > 0);
        // twolf overflows the 4-slot hint entries at several spawns.
        let overflows = body.get("hint_overflows").unwrap();
        let rendered = overflows.to_string();
        assert!(rendered.contains("\"slots\":"), "{rendered}");
    }

    #[test]
    fn dirty_program_reports_diagnostics() {
        // A block no path reaches: `junk` sits after an unconditional
        // jump and nothing targets it.
        let src = "\
fn main {
  li r1, 1
  j done
junk:
  addi r2, r2, 1
done:
  halt
}";
        let p = polyflow_isa::parse_program(src).unwrap();
        let f = fingerprint(&p);
        let line = run(&p, &f);
        let v = json::parse(&line).unwrap();
        let body = v.get("verify").unwrap();
        assert_eq!(body.get("clean").unwrap().as_bool(), Some(false));
        assert!(line.contains("unreachable-block"), "{line}");
    }
}
