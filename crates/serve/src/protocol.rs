//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! # Grammar
//!
//! Each request is one line. Either a bare verb:
//!
//! ```text
//! ping | stats | shutdown
//! ```
//!
//! or a JSON object (the same verbs are reachable as `{"verb":"stats"}`
//! for clients that only speak JSON):
//!
//! ```text
//! {"workload": "twolf", "policy": "postdoms", "config": {"max_cycles": 200000}}
//! ```
//!
//! * `workload` — a bundled benchmark, one of
//!   [`polyflow_workloads::names`]; **or** `program` — assembly text
//!   (the [`polyflow_isa::parse_program`] grammar) uploaded for
//!   simulation, exactly one of the two.
//! * `policy` — optional (default `postdoms`); any Figure 9 policy name,
//!   `superscalar`/`baseline`/`none` for the no-spawn baseline, or
//!   `rec_pred` for the dynamic reconvergence predictor (§4.4).
//! * `config` — optional overrides on the policy's base configuration
//!   (Figure 8 for spawn policies, the equivalent-resource superscalar
//!   for the baseline). See [`CONFIG_KEYS`].
//!
//! Uploaded programs share the result cache with bundled workloads
//! through the same content fingerprint the `verify` verb uses
//! ([`crate::verify::fingerprint`]): uploading a bundled benchmark's
//! canonical assembly lands on the very cache entry its name does.
//! Both the router and serve parse every line, so each uploaded text is
//! assembled and fingerprinted once per process: a memo keyed by the
//! exact text, holding at most [`UPLOAD_MEMO_BYTES`] of it, answers the
//! repeats. A text that does not assemble is never kept, so it gets the
//! same typed `bad_request` every time.
//!
//! Every response is one line. Success:
//!
//! ```text
//! {"ok":true,"workload":"twolf","policy":"postdoms","result":{…SimResult + cycle account…}}
//! ```
//!
//! Failure (typed, never a panic, never a dropped connection):
//!
//! ```text
//! {"ok":false,"error":{"kind":"overloaded","message":"…"}}
//! ```
//!
//! The `result` member is the compact form of [`SimResult::to_json`],
//! written straight into the reply in one pass ([`result_response`]) —
//! exactly what an offline [`run_cell_with_config_opts`] of the same
//! cell renders, which is what the served-vs-offline determinism check
//! diffs.
//!
//! An uploaded program's `; window:` pragma sets its interpreter step
//! budget. A simulate request may ask for at most
//! [`MAX_UPLOAD_WINDOW`] steps; a larger pragma is a typed
//! `bad_request` before anything is prepared.
//!
//! [`SimResult::to_json`]: polyflow_sim::SimResult::to_json
//! [`run_cell_with_config_opts`]: polyflow_bench::sweep::run_cell_with_config_opts

use crate::cache::CacheKey;
use crate::json::{self, Json, Style, Writer};
use polyflow_bench::parse_policy;
use polyflow_bench::sweep::Cell;
use polyflow_core::Policy;
use polyflow_sim::{DependenceMode, MachineConfig, SimResult};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Typed protocol failure kinds (the `error.kind` wire values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a well-formed request.
    BadRequest,
    /// `workload` named no bundled benchmark.
    UnknownWorkload,
    /// `policy` named no known spawn policy.
    UnknownPolicy,
    /// Admission control shed the request: the queue was full.
    Overloaded,
    /// The request's `deadline_ms` elapsed before its result was ready
    /// (dropped in the queue, or timed out waiting on its cell).
    DeadlineExceeded,
    /// The simulator returned a typed [`SimError`]
    /// (watchdog trip, malformed trace, …).
    ///
    /// [`SimError`]: polyflow_sim::SimError
    SimFailed,
    /// The server is draining and accepts no new simulation work.
    ShuttingDown,
    /// The request died inside the service (a caught panic).
    Internal,
}

impl ErrorKind {
    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownWorkload => "unknown_workload",
            ErrorKind::UnknownPolicy => "unknown_policy",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::SimFailed => "sim_failed",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed protocol error: kind plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// The failure class.
    pub kind: ErrorKind,
    /// Detail for the client.
    pub message: String,
}

impl ServeError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run (or cache-serve) one simulation cell.
    Simulate(Box<SimRequest>),
    /// Run (or cache-serve) the lint pass over a workload or an
    /// uploaded program (see [`crate::verify`]).
    Verify(SimSource),
    /// Report queue/cache/account observability counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit.
    Shutdown,
}

impl Request {
    /// The result-cache key of a simulate or verify request: the tuple
    /// serve caches and journals the reply under, and whose rendering
    /// the router hashes onto its ring. A verify request's policy is
    /// `verify` and its config is empty, so lint reports never share an
    /// entry with a simulation. `None` for the verbs that run nothing.
    pub fn key(&self) -> Option<CacheKey> {
        let (source, policy, config) = match self {
            Request::Simulate(r) => (&r.source, r.policy_label(), r.config.fingerprint()),
            Request::Verify(source) => (source, "verify".to_string(), String::new()),
            Request::Stats | Request::Ping | Request::Shutdown => return None,
        };
        Some(CacheKey {
            workload: source.fingerprint(),
            policy,
            config,
        })
    }
}

impl From<SimRequest> for Request {
    fn from(req: SimRequest) -> Request {
        Request::Simulate(Box::new(req))
    }
}

/// Where a simulate or verify request's program comes from.
#[derive(Debug, Clone)]
pub enum SimSource {
    /// A bundled benchmark (validated against
    /// [`polyflow_workloads::names`]).
    Bundled(&'static str),
    /// A program uploaded as assembly text, assembled and fingerprinted
    /// once per process and shared by every request that sends the same
    /// text (see [`UPLOAD_MEMO_BYTES`]).
    Uploaded(Arc<Upload>),
}

impl SimSource {
    /// The program's content fingerprint ([`crate::verify::fingerprint`])
    /// — the workload component of the result-cache key, shared between
    /// bundled-by-name and uploaded-by-content requests for the same
    /// program.
    pub fn fingerprint(&self) -> String {
        match self {
            SimSource::Bundled(name) => bundled_fingerprint(name),
            SimSource::Uploaded(up) => up.fingerprint.clone(),
        }
    }
}

/// An uploaded program, assembled into a runtime workload, with its
/// content fingerprint.
#[derive(Debug)]
pub struct Upload {
    workload: polyflow_workloads::Workload,
    fingerprint: String,
}

impl Upload {
    /// Assembles `asm` and fingerprints the result. Assembly that does
    /// not parse is the client's mistake: a typed `bad_request` carrying
    /// the assembler's line/column diagnostic.
    fn assemble(asm: &str) -> Result<Upload, ServeError> {
        let workload = polyflow_workloads::from_asm_str(asm, "program")
            .map_err(|e| bad(format!("program does not assemble: {e}")))?;
        let fingerprint = crate::verify::fingerprint(&workload.program);
        Ok(Upload {
            workload,
            fingerprint,
        })
    }

    /// The assembled program.
    pub fn workload(&self) -> &polyflow_workloads::Workload {
        &self.workload
    }
}

/// Most program text, in bytes, the process-wide upload memo keeps.
/// Past it, the oldest programs are forgotten (and assembled again if
/// they come back).
pub const UPLOAD_MEMO_BYTES: usize = 4 << 20;

/// Assembled uploads keyed by their exact text, oldest first in
/// `order`, holding at most `limit` bytes of text.
struct UploadMemo {
    by_text: HashMap<Arc<str>, Arc<Upload>>,
    order: VecDeque<Arc<str>>,
    bytes: usize,
    limit: usize,
}

impl UploadMemo {
    fn new(limit: usize) -> UploadMemo {
        UploadMemo {
            by_text: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            limit,
        }
    }

    /// Remembers `upload` under `asm`, forgetting the oldest texts until
    /// it fits; a text longer than the whole bound, or one a racing
    /// thread already kept, is not added.
    fn insert(&mut self, asm: &str, upload: &Arc<Upload>) {
        if asm.len() > self.limit || self.by_text.contains_key(asm) {
            return;
        }
        while self.bytes + asm.len() > self.limit {
            let oldest = self
                .order
                .pop_front()
                .expect("kept bytes belong to kept texts");
            self.bytes -= oldest.len();
            self.by_text.remove(&oldest);
        }
        let text: Arc<str> = Arc::from(asm);
        self.bytes += text.len();
        self.order.push_back(Arc::clone(&text));
        self.by_text.insert(text, Arc::clone(upload));
    }
}

fn upload_memo() -> &'static Mutex<UploadMemo> {
    static MEMO: OnceLock<Mutex<UploadMemo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(UploadMemo::new(UPLOAD_MEMO_BYTES)))
}

/// The uploaded program `asm`, assembled at most once per process while
/// the memo keeps it. A program that does not assemble is never kept,
/// so every send of it gets the same typed error.
fn upload(asm: &str) -> Result<Arc<Upload>, ServeError> {
    let memo = || upload_memo().lock().expect("upload memo lock poisoned");
    if let Some(hit) = memo().by_text.get(asm) {
        return Ok(Arc::clone(hit));
    }
    // Assemble outside the lock: a long program must not stall the
    // other threads' lookups. Two threads racing on one new text both
    // assemble it and agree on the result.
    let fresh = Arc::new(Upload::assemble(asm)?);
    memo().insert(asm, &fresh);
    Ok(fresh)
}

/// Bytes of program text the upload memo holds now (at most
/// [`UPLOAD_MEMO_BYTES`]).
pub fn upload_memo_bytes() -> usize {
    upload_memo()
        .lock()
        .expect("upload memo lock poisoned")
        .bytes
}

/// A validated simulation request.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// The program to simulate.
    pub source: SimSource,
    /// What to run on it.
    pub cell: Cell,
    /// The effective machine configuration (base + request overrides).
    pub config: MachineConfig,
    /// The client's `deadline_ms` (capped server-side by
    /// `--max-deadline` at admission). Deliberately **not** part of the
    /// cache key: a deadline changes when a request gives up, never what
    /// its answer is.
    pub deadline_ms: Option<u64>,
    /// True when the client asked for the integrity trailer: the
    /// response line is followed by `\t` + 16 hex digits of FNV-1a over
    /// the line, so transport-level corruption (a flipped bit in a proxy
    /// or cable) is detectable. Not part of the cache key or the cached
    /// bytes — the trailer is computed at write time.
    pub integrity: bool,
}

impl SimRequest {
    /// Canonical policy label (`baseline`, `loop`, …, `rec_pred`): the
    /// cache-key component and the `policy` echoed in responses. Aliases
    /// (`superscalar`, `none`) normalize here, so they share cache
    /// entries.
    pub fn policy_label(&self) -> String {
        self.cell.label()
    }

    /// The `workload` label echoed in responses: the bundled name, or an
    /// upload's `.program` name (`program` when it has none).
    pub fn workload_label(&self) -> &str {
        match &self.source {
            SimSource::Bundled(name) => name,
            SimSource::Uploaded(up) => &up.workload.name,
        }
    }

    /// The program's content fingerprint ([`SimSource::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.source.fingerprint()
    }
}

/// Fingerprints of the bundled workloads, computed once on first touch
/// (each one is a program build plus a canonical rendering — too much
/// work to repeat on every request).
fn bundled_fingerprint(name: &str) -> String {
    static MAP: OnceLock<HashMap<&'static str, String>> = OnceLock::new();
    MAP.get_or_init(|| {
        polyflow_workloads::names()
            .iter()
            .map(|n| {
                let w = polyflow_workloads::by_name(n).expect("bundled name");
                (*n, crate::verify::fingerprint(&w.program))
            })
            .collect()
    })[name]
        .clone()
}

/// The `config` override keys a request may carry, with the field each
/// one sets. Everything else about the machine is fixed by the paper's
/// Figure 8 (or its superscalar equivalent) — predictor geometry is
/// deliberately not overridable so every cached cell shares the
/// process-wide prepared traces.
pub const CONFIG_KEYS: &[&str] = &[
    "max_cycles",
    "max_tasks",
    "fetch_tasks_per_cycle",
    "max_spawn_distance",
    "min_spawn_distance",
    "divert_release_delay",
    "spawn_overhead_cycles",
    "squash_penalty",
    "hint_register_slots",
    "livelock_window",
    "store_sets",
    "reg_hints",
    "profitability_feedback",
];

/// Upper bound on requested task contexts (the paper's machine has 8;
/// this only guards against absurd allocations, not design exploration).
const MAX_TASKS_LIMIT: usize = 64;

/// Most interpreter steps a simulate request's upload may ask for with
/// its `; window:` pragma: [`polyflow_workloads::DEFAULT_ASM_WINDOW`],
/// the window of an upload without one. A preparation costs about 20
/// bytes and 40 ns a step, and nothing else bounds it once it starts.
/// Offline `--asm` runs keep whatever window their pragma names.
pub const MAX_UPLOAD_WINDOW: u64 = polyflow_workloads::DEFAULT_ASM_WINDOW;

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::new(ErrorKind::BadRequest, msg)
}

/// Parses and validates one request line. `default_max_cycles` is the
/// server's per-request watchdog, applied when the request does not set
/// its own tighter budget.
pub fn parse_request(line: &str, default_max_cycles: u64) -> Result<Request, ServeError> {
    let line = line.trim();
    match line {
        "ping" => return Ok(Request::Ping),
        "stats" => return Ok(Request::Stats),
        "shutdown" => return Ok(Request::Shutdown),
        _ => {}
    }
    if !line.starts_with('{') {
        return Err(bad(format!(
            "expected a JSON object or one of ping/stats/shutdown, got `{}`",
            truncate(line, 40)
        )));
    }
    let v = json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if let Some(verb) = v.get("verb") {
        return match verb.as_str() {
            Some("ping") => bare_verb(&v, "ping").map(|()| Request::Ping),
            Some("stats") => bare_verb(&v, "stats").map(|()| Request::Stats),
            Some("shutdown") => bare_verb(&v, "shutdown").map(|()| Request::Shutdown),
            Some("simulate") => parse_simulate(&v, default_max_cycles),
            Some("verify") => parse_verify(&v),
            _ => Err(bad(
                "unknown verb (ping, stats, shutdown, simulate, verify)",
            )),
        };
    }
    parse_simulate(&v, default_max_cycles)
}

/// A bare verb in JSON form carries no other fields — the object form
/// must be exactly as strict as the bare line, so a misspelled or
/// misplaced field is a typed rejection, not silently dropped intent.
fn bare_verb(v: &Json, verb: &str) -> Result<(), ServeError> {
    let obj = v.as_obj().ok_or_else(|| bad("request must be an object"))?;
    for key in obj.keys() {
        if key != "verb" {
            return Err(bad(format!("`{verb}` takes no field `{key}`")));
        }
    }
    Ok(())
}

fn parse_simulate(v: &Json, default_max_cycles: u64) -> Result<Request, ServeError> {
    let obj = v.as_obj().ok_or_else(|| bad("request must be an object"))?;
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "verb" | "workload" | "program" | "policy" | "config" | "deadline_ms" | "integrity"
        ) {
            return Err(bad(format!(
                "unknown request field `{key}` \
                 (workload, program, policy, config, deadline_ms, integrity)"
            )));
        }
    }
    let source = parse_source(v, "simulate")?;
    if let SimSource::Uploaded(up) = &source {
        let window = up.workload.window;
        if window > MAX_UPLOAD_WINDOW {
            return Err(bad(format!(
                "the program's `; window:` pragma asks for {window} steps; \
                 a served upload may run at most {MAX_UPLOAD_WINDOW}"
            )));
        }
    }

    let policy_name = match v.get("policy") {
        None => "postdoms",
        Some(p) => p.as_str().ok_or_else(|| bad("`policy` must be a string"))?,
    };
    let cell = parse_cell(policy_name)?;

    let mut config = cell.machine();
    config.max_cycles = default_max_cycles;
    if let Some(overrides) = v.get("config") {
        apply_overrides(&mut config, overrides)?;
    }

    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => {
            let ms = d
                .as_u64()
                .ok_or_else(|| bad("`deadline_ms` must be a non-negative integer"))?;
            if ms == 0 {
                return Err(bad("`deadline_ms` must be positive"));
            }
            Some(ms)
        }
    };
    let integrity = match v.get("integrity") {
        None => false,
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad("`integrity` must be a boolean"))?,
    };
    Ok(Request::Simulate(Box::new(SimRequest {
        source,
        cell,
        config,
        deadline_ms,
        integrity,
    })))
}

/// Parses a `{"verb":"verify", …}` request: the program to lint, named
/// the way a simulate request names it. The upload's `; window:` pragma
/// is not capped: the lint pass never runs the program.
fn parse_verify(v: &Json) -> Result<Request, ServeError> {
    let obj = v.as_obj().ok_or_else(|| bad("request must be an object"))?;
    for key in obj.keys() {
        if !matches!(key.as_str(), "verb" | "workload" | "program") {
            return Err(bad(format!(
                "unknown verify field `{key}` (workload, program)"
            )));
        }
    }
    parse_source(v, "verify").map(Request::Verify)
}

/// The program a `verb` request names: exactly one of `workload` (a
/// bundled benchmark name) or `program` (assembly text, the
/// [`polyflow_isa::parse_program`] grammar, assembled through the upload
/// memo). Assembly that does not parse is the client's mistake — a typed
/// `bad_request` carrying the assembler's line/column diagnostic.
fn parse_source(v: &Json, verb: &str) -> Result<SimSource, ServeError> {
    match (v.get("workload"), v.get("program")) {
        (Some(_), Some(_)) => Err(bad(format!(
            "{verb} takes `workload` or `program`, not both"
        ))),
        (None, None) => Err(bad(match verb {
            "verify" => "verify needs a `workload` name or a `program` upload",
            _ => "missing required string field `workload` (or a `program` upload)",
        })),
        (Some(w), None) => {
            let name = w
                .as_str()
                .ok_or_else(|| bad("`workload` must be a string"))?;
            polyflow_workloads::names()
                .iter()
                .find(|n| **n == name)
                .copied()
                .map(SimSource::Bundled)
                .ok_or_else(|| {
                    ServeError::new(
                        ErrorKind::UnknownWorkload,
                        format!(
                            "unknown workload `{name}` (one of: {})",
                            polyflow_workloads::names().join(", ")
                        ),
                    )
                })
        }
        (None, Some(p)) => {
            let asm = p
                .as_str()
                .ok_or_else(|| bad("`program` must be a string"))?;
            upload(asm).map(SimSource::Uploaded)
        }
    }
}

/// Maps a protocol policy name to a grid cell. `rec_pred` (Figure 12's
/// dynamic predictor) is a serve extension over
/// [`polyflow_bench::parse_policy`].
pub fn parse_cell(name: &str) -> Result<Cell, ServeError> {
    if name == "rec_pred" {
        return Ok(Cell::Reconv);
    }
    match parse_policy(name) {
        Some(Policy::None) => Ok(Cell::Baseline),
        Some(p) => Ok(Cell::Static(p)),
        None => Err(ServeError::new(
            ErrorKind::UnknownPolicy,
            format!(
                "unknown policy `{name}` (one of: {}, rec_pred)",
                polyflow_bench::POLICY_NAMES.join(", ")
            ),
        )),
    }
}

fn apply_overrides(config: &mut MachineConfig, overrides: &Json) -> Result<(), ServeError> {
    let obj = overrides
        .as_obj()
        .ok_or_else(|| bad("`config` must be an object"))?;
    for (key, value) in obj {
        let num = || {
            value.as_u64().ok_or_else(|| {
                bad(format!(
                    "config field `{key}` must be a non-negative integer"
                ))
            })
        };
        let flag = || {
            value
                .as_bool()
                .ok_or_else(|| bad(format!("config field `{key}` must be a boolean")))
        };
        let positive = |n: u64| -> Result<u64, ServeError> {
            if n == 0 {
                Err(bad(format!("config field `{key}` must be positive")))
            } else {
                Ok(n)
            }
        };
        match key.as_str() {
            "max_cycles" => config.max_cycles = positive(num()?)?,
            "max_tasks" => {
                let n = positive(num()?)? as usize;
                if n > MAX_TASKS_LIMIT {
                    return Err(bad(format!("max_tasks capped at {MAX_TASKS_LIMIT}")));
                }
                config.max_tasks = n;
            }
            "fetch_tasks_per_cycle" => {
                config.fetch_tasks_per_cycle = positive(num()?)? as usize;
            }
            "max_spawn_distance" => config.max_spawn_distance = num()? as u32,
            "min_spawn_distance" => config.min_spawn_distance = num()? as u32,
            "divert_release_delay" => config.divert_release_delay = num()?,
            "spawn_overhead_cycles" => config.spawn_overhead_cycles = num()?,
            "squash_penalty" => config.squash_penalty = num()?,
            "hint_register_slots" => config.hint_register_slots = positive(num()?)? as usize,
            "livelock_window" => config.livelock_window = positive(num()?)?,
            "store_sets" => {
                config.memory_dependence = if flag()? {
                    DependenceMode::StoreSet
                } else {
                    DependenceMode::OracleSync
                };
            }
            "reg_hints" => {
                config.register_dependence = if flag()? {
                    DependenceMode::StoreSet
                } else {
                    DependenceMode::OracleSync
                };
            }
            "profitability_feedback" => config.profitability_feedback = flag()?,
            _ => {
                return Err(bad(format!(
                    "unknown config field `{key}` (known: {})",
                    CONFIG_KEYS.join(", ")
                )));
            }
        }
    }
    Ok(())
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Renders the success response line for a simulation whose `result`
/// is already rendered as compact single-line JSON.
/// [`result_response`] renders the same bytes from the result itself.
pub fn ok_response(workload: &str, policy_label: &str, result: &str) -> String {
    ok_envelope(workload, policy_label, |w| {
        w.raw(result);
    })
}

/// Renders the success response line for `result` in one pass: the
/// compact form of [`SimResult::to_json`] written inside the envelope.
/// Serve's workers and the offline side of `loadgen --verify-fig09` both
/// call it.
///
/// [`SimResult::to_json`]: polyflow_sim::SimResult::to_json
pub fn result_response(workload: &str, policy_label: &str, result: &SimResult) -> String {
    ok_envelope(workload, policy_label, |w| result.write_json(w))
}

fn ok_envelope(workload: &str, policy_label: &str, result: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("ok").bool(true);
        w.key("workload").str(workload);
        w.key("policy").str(policy_label);
        result(w.key("result"));
    });
    w.finish()
}

/// Appends the integrity trailer to a response line: `\t` + 16 hex
/// digits of FNV-1a over the line's bytes. Sent only to requests that
/// set `"integrity":true`, so the cached/offline bytes never change.
pub fn with_integrity_trailer(line: &str) -> String {
    format!("{line}\t{:016x}", polyflow_isa::fnv1a(line.as_bytes()))
}

/// Splits a received line into `(body, trailer_state)`:
/// `None` = no trailer present, `Some(true)` = trailer verified,
/// `Some(false)` = trailer present but wrong (the line was corrupted in
/// flight — discard and retry, never trust the body).
pub fn check_integrity_trailer(line: &str) -> (&str, Option<bool>) {
    match line.rsplit_once('\t') {
        Some((body, trailer)) if trailer.len() == 16 => {
            let expect = format!("{:016x}", polyflow_isa::fnv1a(body.as_bytes()));
            (body, Some(trailer == expect))
        }
        _ => (line, None),
    }
}

/// True when a reply line (newline stripped) is a typed error a router
/// should fail over for: `overloaded` or `shutting_down` (the backend is
/// full or draining; another shard can answer).
///
/// The test reads bytes, not JSON. [`error_response`] renders every
/// error as `{"ok":false,"error":{"kind":"<label>",…}}`, so the kind
/// sits at a fixed offset. The tail must close the object with an
/// unescaped `"}}` (optionally followed by the `\t` + 16-digit integrity
/// trailer): in a rendered error line that sequence occurs only at the
/// end, so a truncated line never passes. A relayed reply is therefore
/// classified without reading its middle, however large it is.
pub fn is_retryable_reply(line: &[u8]) -> bool {
    const HEAD: &[u8] = b"{\"ok\":false,\"error\":{\"kind\":\"";
    let Some(rest) = line.strip_prefix(HEAD) else {
        return false;
    };
    let retryable_kind = [ErrorKind::Overloaded, ErrorKind::ShuttingDown]
        .iter()
        .any(|k| {
            rest.strip_prefix(k.label().as_bytes())
                .is_some_and(|r| r.starts_with(b"\""))
        });
    let body = match line.len().checked_sub(17) {
        Some(tab) if line[tab] == b'\t' => &line[..tab],
        _ => line,
    };
    // An odd run of backslashes before the quote escapes it.
    let closed = body
        .strip_suffix(b"\"}}")
        .is_some_and(|head| head.iter().rev().take_while(|&&b| b == b'\\').count() % 2 == 0);
    retryable_kind && closed
}

/// Renders the error response line for `e`. [`is_retryable_reply`]
/// reads its layout: `kind` first, `message` last.
pub fn error_response(e: &ServeError) -> String {
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("ok").bool(false);
        w.key("error").object(|w| {
            w.key("kind").str(e.kind.label());
            w.key("message").str(&e.message);
        });
    });
    w.finish()
}

/// The error reply line for `e` as both servers send it: the
/// [`error_response`], with the integrity trailer when the request asked
/// for one ([`wants_integrity`]).
pub fn error_line(e: &ServeError, integrity: bool) -> String {
    let body = error_response(e);
    if integrity {
        with_integrity_trailer(&body)
    } else {
        body
    }
}

/// Whether the reply to request `line` carries the integrity trailer,
/// decided the same way by serve and the router. `parsed` is the line's
/// request when [`parse_request`] accepted it: a simulate request's own
/// `integrity` flag decides. A line that is valid JSON but failed
/// validation asks through its `integrity` member, however it is
/// spaced. Only a line that is not JSON at all is searched for the
/// token a trailer-checking client injects, best-effort, so that its
/// typed parse error does not look like a stripped trailer.
pub fn wants_integrity(line: &str, parsed: Option<&Request>) -> bool {
    match parsed {
        Some(Request::Simulate(r)) => r.integrity,
        Some(_) => false,
        None => match json::parse(line.trim()) {
            Ok(v) => v.get("integrity").and_then(Json::as_bool) == Some(true),
            Err(_) => line.contains("\"integrity\":true"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reply renderers the writer replaced, kept as its oracle.
    mod reference {
        use super::{json, ServeError};

        pub fn ok_response(workload: &str, policy_label: &str, result: &str) -> String {
            format!(
                "{{\"ok\":true,\"workload\":\"{}\",\"policy\":\"{}\",\"result\":{result}}}",
                json::escape(workload),
                json::escape(policy_label),
            )
        }

        pub fn error_response(e: &ServeError) -> String {
            format!(
                "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                e.kind.label(),
                json::escape(&e.message)
            )
        }
    }

    const BUDGET: u64 = u64::MAX;

    /// Strings a client or a failing run could put into a reply: quotes,
    /// backslashes, every control byte, multibyte text, and `"}}`.
    fn hostile_strings() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        vec![
            String::new(),
            "twolf".to_string(),
            "a \"q\"}}\n\t".to_string(),
            "ends in a backslash \\".to_string(),
            "\\\"}}".to_string(),
            controls,
            "π → λ, 🦀, é\u{7f}".to_string(),
            "\"}}\t0123456789abcdef".to_string(),
        ]
    }

    /// `ok_response` and `error_response` render what the replaced
    /// renderers rendered, for every error kind and hostile strings in
    /// every position, and the result parses back to what went in.
    #[test]
    fn replies_match_the_reference_renderers() {
        let results = ["{\"cycles\":1}", "{}", "[]", "null", "{\"a\":\"}}\\\"\"}"];
        for s in hostile_strings() {
            for kind in KINDS {
                let e = ServeError::new(kind, s.clone());
                let line = error_response(&e);
                assert_eq!(line, reference::error_response(&e), "{kind:?} {s:?}");
                let v = json::parse(&line).unwrap();
                let err = v.get("error").unwrap();
                assert_eq!(err.get("kind").and_then(Json::as_str), Some(kind.label()));
                assert_eq!(err.get("message").and_then(Json::as_str), Some(s.as_str()));
            }
            for t in hostile_strings() {
                for result in results {
                    assert_eq!(
                        ok_response(&s, &t, result),
                        reference::ok_response(&s, &t, result),
                        "{s:?} {t:?} {result}"
                    );
                }
                let line = result_response(&s, &t, &SimResult::default());
                let v = json::parse(&line).unwrap();
                assert_eq!(v.get("workload").and_then(Json::as_str), Some(s.as_str()));
                assert_eq!(v.get("policy").and_then(Json::as_str), Some(t.as_str()));
            }
        }
    }

    /// The one-pass reply equals the envelope around the compacted
    /// pretty rendering, on a run with tasks and on the empty result.
    #[test]
    fn result_response_is_the_compacted_pretty_result() {
        let w = polyflow_workloads::by_name("gzip").unwrap();
        let pw = polyflow_bench::PreparedWorkload::try_prepare(w).unwrap();
        let cfg = Cell::Static(Policy::Postdoms).machine();
        let mut scratch = polyflow_sim::SimScratch::default();
        let (r, _) = polyflow_bench::sweep::run_cell_with_config_opts(
            &pw,
            Cell::Static(Policy::Postdoms),
            &cfg,
            &mut scratch,
            polyflow_sim::SimOptions::default(),
        )
        .unwrap();
        assert!(r.account.tasks.len() > 1);
        for r in [r, SimResult::default()] {
            assert_eq!(
                result_response("gzip", "postdoms", &r),
                reference::ok_response("gzip", "postdoms", &json::compact(&r.to_json()))
            );
        }
    }

    /// The integrity decision reads the request, not its spacing: a
    /// parsed simulate's flag, a rejected JSON line's `integrity`
    /// member, and the raw token only when the line is not JSON.
    #[test]
    fn integrity_is_read_from_the_parse() {
        let decide = |line: &str| {
            let parsed = parse_request(line, BUDGET);
            wants_integrity(line, parsed.as_ref().ok())
        };
        for line in [
            "{\"workload\":\"gzip\",\"integrity\":true}",
            "{\"workload\":\"gzip\", \"integrity\": true}",
            "{\"workload\":\"nope\",\"integrity\":true}",
            "{\"workload\":\"nope\", \"integrity\": true}",
            "{\"workload\":\"gzip\",\"policy\":\"fastest\",\"integrity\" :true}",
            "{\"verb\":\"verify\",\"workload\":\"gzip\", \"integrity\": true}",
            "{\"integrity\":true,\"workload\":",
        ] {
            assert!(decide(line), "{line}");
        }
        for line in [
            "{\"workload\":\"gzip\"}",
            "{\"workload\":\"gzip\",\"integrity\":false}",
            "{\"workload\":\"nope\", \"integrity\": false}",
            "{\"workload\":\"nope\",\"integrity\":\"true\"}",
            "{\"workload\":\"nope\",\"config\":{\"integrity\":true}}",
            "{\"verb\":\"verify\",\"workload\":\"gzip\"}",
            "ping",
            "stats",
            "not json at all",
        ] {
            assert!(!decide(line), "{line}");
        }
    }

    /// An upload whose pragma asks for more than the served cap is a
    /// typed `bad_request` naming the cap; at the cap it parses, and a
    /// verify of the same program is unchanged.
    #[test]
    fn upload_window_above_the_cap_is_rejected() {
        let program = |window: &str| {
            crate::json::escape(&format!("; window: {window}\nfn main {{\n    halt\n}}\n"))
        };
        let simulate = |window: &str| {
            parse_request(&format!("{{\"program\":\"{}\"}}", program(window)), BUDGET)
        };
        for window in ["10_000_000_000", "2_000_001"] {
            let e = simulate(window).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{e}");
            assert!(e.message.contains("2000000"), "{e}");
        }
        for window in ["2_000_000", "1000"] {
            assert!(matches!(simulate(window), Ok(Request::Simulate(_))));
        }
        let verify = format!(
            "{{\"verb\":\"verify\",\"program\":\"{}\"}}",
            program("10_000_000_000")
        );
        assert!(matches!(
            parse_request(&verify, BUDGET),
            Ok(Request::Verify(_))
        ));
    }

    const KINDS: [ErrorKind; 8] = [
        ErrorKind::BadRequest,
        ErrorKind::UnknownWorkload,
        ErrorKind::UnknownPolicy,
        ErrorKind::Overloaded,
        ErrorKind::DeadlineExceeded,
        ErrorKind::SimFailed,
        ErrorKind::ShuttingDown,
        ErrorKind::Internal,
    ];

    /// The rule the router applied before the byte test: parse the
    /// reply (trailer stripped) and read `ok` and `error.kind`.
    fn parsed_rule(reply: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(reply) else {
            return false;
        };
        let (body, _) = check_integrity_trailer(text);
        let Ok(v) = json::parse(body) else {
            return false;
        };
        v.get("ok").and_then(Json::as_bool) == Some(false)
            && matches!(
                v.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("overloaded") | Some("shutting_down")
            )
    }

    /// The byte classifier is pinned against the renderer: for every
    /// error kind, with and without the integrity trailer, exactly
    /// `overloaded` and `shutting_down` are retryable; success lines,
    /// every truncation of an error line, and garbage are not; and on
    /// all of these inputs it agrees with the parse-based rule.
    #[test]
    fn retryable_classifier_matches_the_renderer() {
        let mut cases: Vec<(Vec<u8>, bool)> = Vec::new();
        for kind in KINDS {
            let want = matches!(kind, ErrorKind::Overloaded | ErrorKind::ShuttingDown);
            for message in [
                "no backend could answer (2 tried); retry",
                "a \"q\"}}\n\t",
                "ends in a backslash \\",
            ] {
                let body = error_response(&ServeError::new(kind, message));
                let framed = with_integrity_trailer(&body);
                cases.push((body.clone().into_bytes(), want));
                cases.push((framed.clone().into_bytes(), want));
                // A line cut short anywhere inside the JSON, or inside
                // the trailer, is not a complete error reply.
                for cut in 0..body.len() {
                    cases.push((body.as_bytes()[..cut].to_vec(), false));
                }
                for cut in body.len() + 2..framed.len() {
                    cases.push((framed.as_bytes()[..cut].to_vec(), false));
                }
            }
        }
        let result = "{\"cycles\":1,\"note\":\"overloaded\"}";
        let ok = ok_response("gzip", "postdoms", result);
        cases.push((with_integrity_trailer(&ok).into_bytes(), false));
        cases.push((ok.into_bytes(), false));
        for garbage in [
            &b""[..],
            b"\xff\xfe",
            b"{\"ok\":false}",
            b"{\"ok\":false,\"error\":{\"kind\":\"overloadedx\",\"message\":\"m\"}}",
            b"{\"ok\":true,\"pong\":true}",
            b"overloaded",
        ] {
            cases.push((garbage.to_vec(), false));
        }
        for (line, want) in &cases {
            let shown = String::from_utf8_lossy(line);
            assert_eq!(is_retryable_reply(line), *want, "classifier on {shown:?}");
            assert_eq!(parsed_rule(line), *want, "parse rule on {shown:?}");
        }
    }

    #[test]
    fn verbs_parse_both_ways() {
        assert!(matches!(parse_request("ping", BUDGET), Ok(Request::Ping)));
        assert!(matches!(
            parse_request(" stats \n", BUDGET),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"shutdown\"}", BUDGET),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn simulate_defaults_and_aliases() {
        let Request::Simulate(r) = parse_request("{\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert_eq!(r.workload_label(), "twolf");
        assert_eq!(r.policy_label(), "postdoms");
        assert_eq!(r.config.max_tasks, MachineConfig::hpca07().max_tasks);

        for alias in ["superscalar", "baseline", "none"] {
            let line = format!("{{\"workload\":\"gzip\",\"policy\":\"{alias}\"}}");
            let Request::Simulate(r) = parse_request(&line, BUDGET).unwrap() else {
                panic!("not a simulate")
            };
            assert_eq!(r.policy_label(), "baseline", "{alias} normalizes");
            assert_eq!(r.config.max_tasks, 1, "baseline is the superscalar");
        }

        let Request::Simulate(r) =
            parse_request("{\"workload\":\"mcf\",\"policy\":\"rec_pred\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert!(matches!(r.cell, Cell::Reconv));
    }

    #[test]
    fn simulate_accepts_an_uploaded_program() {
        let twolf = polyflow_workloads::by_name("twolf").unwrap().program;
        let asm = polyflow_isa::to_asm(&twolf);
        let line = format!(
            "{{\"program\":\"{}\",\"policy\":\"loop\"}}",
            crate::json::escape(&asm)
        );
        let Request::Simulate(up) = parse_request(&line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(up.workload_label(), "twolf", "label from `.program`");
        assert_eq!(up.policy_label(), "loop");

        // The canonical upload shares its cache identity with the
        // bundled name — one entry either way.
        let Request::Simulate(named) = parse_request("{\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert_eq!(up.fingerprint(), named.fingerprint());

        // Sending the same text again reuses the program assembled for
        // the first send, with the same label and fingerprint.
        let SimSource::Uploaded(first) = &up.source else {
            panic!("an upload")
        };
        for _ in 0..3 {
            let Request::Simulate(again) = parse_request(&line, BUDGET).unwrap() else {
                panic!("not a simulate")
            };
            let SimSource::Uploaded(memo) = &again.source else {
                panic!("an upload")
            };
            assert!(Arc::ptr_eq(first, memo), "assembled once");
            assert_eq!(again.workload_label(), "twolf");
            assert_eq!(again.fingerprint(), named.fingerprint());
        }
        assert!(upload_memo_bytes() <= UPLOAD_MEMO_BYTES);

        // A program that does not assemble gets the same typed error on
        // every send and never enters the memo.
        let broken = "fn main {\n    frobnicate r1\n}";
        let line = format!("{{\"program\":\"{}\"}}", crate::json::escape(broken));
        let first_error = parse_request(&line, BUDGET).unwrap_err();
        assert_eq!(first_error.kind, ErrorKind::BadRequest);
        assert!(
            first_error.message.contains("does not assemble"),
            "{first_error}"
        );
        for _ in 0..3 {
            assert_eq!(parse_request(&line, BUDGET).unwrap_err(), first_error);
        }
        assert!(!upload_memo().lock().unwrap().by_text.contains_key(broken));

        // An upload without a `.program` directive falls back to the
        // generic label and a distinct fingerprint.
        let line = "{\"verb\":\"simulate\",\"program\":\"fn main {\\n halt\\n}\"}";
        let Request::Simulate(r) = parse_request(line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.workload_label(), "program");
        assert_ne!(r.fingerprint(), named.fingerprint());
    }

    /// The memo keeps at most its byte bound of program text: past it the
    /// oldest texts go first, a text longer than the whole bound is not
    /// kept, and every text still assembles to the right program.
    #[test]
    fn upload_memo_forgets_the_oldest_texts_past_its_bound() {
        let text = |i: usize| format!("; upload {i:04}\nfn main {{\n    halt\n}}\n");
        let each = text(0).len();
        let mut memo = UploadMemo::new(3 * each);
        for i in 0..10 {
            let asm = text(i);
            let up = Arc::new(Upload::assemble(&asm).unwrap());
            memo.insert(&asm, &up);
            assert!(memo.bytes <= 3 * each, "{} bytes kept", memo.bytes);
            assert_eq!(
                memo.bytes,
                memo.by_text.keys().map(|k| k.len()).sum::<usize>()
            );
            assert_eq!(memo.order.len(), memo.by_text.len());
        }
        let kept: Vec<bool> = (0..10)
            .map(|i| memo.by_text.contains_key(&*text(i)))
            .collect();
        assert_eq!(
            kept,
            [false, false, false, false, false, false, false, true, true, true]
        );
        let halt = Upload::assemble(&text(0)).unwrap();
        for up in memo.by_text.values() {
            assert_eq!(
                up.fingerprint, halt.fingerprint,
                "comments do not change it"
            );
        }

        let long = format!("; {}\nfn main {{\n    halt\n}}\n", "x".repeat(3 * each));
        memo.insert(&long, &Arc::new(Upload::assemble(&long).unwrap()));
        assert!(!memo.by_text.contains_key(&*long), "longer than the bound");
        assert_eq!(memo.by_text.len(), 3);
    }

    #[test]
    fn bare_verbs_reject_unknown_fields() {
        // The JSON form of ping/stats/shutdown is exactly as strict as
        // the bare line: any extra field is a typed rejection.
        let cases = [
            "{\"verb\":\"ping\",\"workload\":\"twolf\"}",
            "{\"verb\":\"stats\",\"detail\":true}",
            "{\"verb\":\"shutdown\",\"force\":1}",
            "{\"verb\":\"ping\",\"verb2\":\"ping\"}",
        ];
        for line in cases {
            let e = parse_request(line, BUDGET).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "`{line}` → {e}");
            assert!(e.message.contains("takes no field"), "`{line}` → {e}");
        }
    }

    #[test]
    fn config_overrides_apply() {
        let line = "{\"workload\":\"twolf\",\"policy\":\"postdoms\",\"config\":{\
                     \"max_cycles\":12345,\"max_tasks\":4,\"store_sets\":true,\
                     \"profitability_feedback\":false}}";
        let Request::Simulate(r) = parse_request(line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.config.max_cycles, 12_345);
        assert_eq!(r.config.max_tasks, 4);
        assert_eq!(r.config.memory_dependence, DependenceMode::StoreSet);
        assert!(!r.config.profitability_feedback);
    }

    #[test]
    fn default_budget_applies_when_unset() {
        let Request::Simulate(r) = parse_request("{\"workload\":\"twolf\"}", 777).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.config.max_cycles, 777);
    }

    #[test]
    fn typed_rejections() {
        let cases: &[(&str, ErrorKind)] = &[
            ("not json at all", ErrorKind::BadRequest),
            ("{\"policy\":\"loop\"}", ErrorKind::BadRequest),
            ("{\"workload\":\"eon\"}", ErrorKind::UnknownWorkload),
            (
                "{\"workload\":\"twolf\",\"policy\":\"fastest\"}",
                ErrorKind::UnknownPolicy,
            ),
            (
                "{\"workload\":\"twolf\",\"frobnicate\":1}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"gshare_index_bits\":20}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"max_tasks\":0}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"max_tasks\":1000}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"max_cycles\":true}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"program\":\"fn main { halt }\"}",
                ErrorKind::BadRequest,
            ),
            ("{\"program\":42}", ErrorKind::BadRequest),
            (
                "{\"program\":\"fn main { frobnicate r1 }\"}",
                ErrorKind::BadRequest,
            ),
        ];
        for (line, kind) in cases {
            let e = parse_request(line, BUDGET).unwrap_err();
            assert_eq!(e.kind, *kind, "`{line}` → {e}");
        }
    }

    #[test]
    fn verify_parses_workload_and_upload() {
        let Request::Verify(r) =
            parse_request("{\"verb\":\"verify\",\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a verify")
        };
        let twolf = polyflow_workloads::by_name("twolf").unwrap().program;
        assert_eq!(r.fingerprint(), crate::verify::fingerprint(&twolf));

        // Uploading the same program (as its canonical assembly) lands on
        // the same fingerprint — one cache entry either way.
        let asm = polyflow_isa::to_asm(&twolf);
        let line = format!(
            "{{\"verb\":\"verify\",\"program\":\"{}\"}}",
            crate::json::escape(&asm)
        );
        let Request::Verify(up) = parse_request(&line, BUDGET).unwrap() else {
            panic!("not a verify")
        };
        assert_eq!(up.fingerprint(), r.fingerprint());
    }

    #[test]
    fn verify_typed_rejections() {
        let cases: &[(&str, ErrorKind)] = &[
            ("{\"verb\":\"verify\"}", ErrorKind::BadRequest),
            (
                "{\"verb\":\"verify\",\"workload\":\"twolf\",\"program\":\"fn main { halt }\"}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"verb\":\"verify\",\"workload\":\"eon\"}",
                ErrorKind::UnknownWorkload,
            ),
            (
                "{\"verb\":\"verify\",\"program\":\"fn main { frobnicate r1 }\"}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"verb\":\"verify\",\"program\":42}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"verb\":\"verify\",\"workload\":\"twolf\",\"policy\":\"loop\"}",
                ErrorKind::BadRequest,
            ),
        ];
        for (line, kind) in cases {
            let e = parse_request(line, BUDGET).unwrap_err();
            assert_eq!(e.kind, *kind, "`{line}` → {e}");
        }
        // The assembler's position lands in the message.
        let e = parse_request(
            "{\"verb\":\"verify\",\"program\":\"fn main { frobnicate r1 }\"}",
            BUDGET,
        )
        .unwrap_err();
        assert!(e.message.contains("does not assemble"), "{}", e.message);
    }

    #[test]
    fn deadline_and_integrity_fields_parse_and_reject() {
        let line = "{\"workload\":\"twolf\",\"deadline_ms\":250,\"integrity\":true}";
        let Request::Simulate(r) = parse_request(line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.deadline_ms, Some(250));
        assert!(r.integrity);

        let Request::Simulate(r) = parse_request("{\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert_eq!(r.deadline_ms, None);
        assert!(!r.integrity);

        for bad_line in [
            "{\"workload\":\"twolf\",\"deadline_ms\":0}",
            "{\"workload\":\"twolf\",\"deadline_ms\":\"soon\"}",
            "{\"workload\":\"twolf\",\"integrity\":1}",
        ] {
            let e = parse_request(bad_line, BUDGET).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "`{bad_line}` → {e}");
        }
    }

    #[test]
    fn integrity_trailer_round_trips_and_catches_corruption() {
        let line = "{\"ok\":true,\"pong\":true}";
        let framed = with_integrity_trailer(line);
        let (body, state) = check_integrity_trailer(&framed);
        assert_eq!(body, line);
        assert_eq!(state, Some(true));

        // Flip one bit anywhere in the framed line: the check fails.
        for i in 0..framed.len() {
            let mut bytes = framed.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(corrupt) = String::from_utf8(bytes) {
                let (_, state) = check_integrity_trailer(&corrupt);
                assert_ne!(state, Some(true), "bit flip at {i} must not verify");
            }
        }

        // No trailer: body passes through, state is None.
        assert_eq!(check_integrity_trailer(line), (line, None));
    }

    #[test]
    fn responses_are_single_line_json() {
        let ok = ok_response("twolf", "postdoms", "{\"cycles\":1}");
        assert_eq!(
            ok,
            "{\"ok\":true,\"workload\":\"twolf\",\"policy\":\"postdoms\",\
             \"result\":{\"cycles\":1}}"
        );
        let err = error_response(&ServeError::new(ErrorKind::Overloaded, "queue full\nline2"));
        assert!(!err.contains('\n'));
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("overloaded")
        );
        assert_eq!(
            v.get("error").unwrap().get("message").unwrap().as_str(),
            Some("queue full\nline2")
        );
    }
}
