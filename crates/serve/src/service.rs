//! The service core: admission control, the simulation workers, and the
//! result cache, independent of any transport.
//!
//! Connection handlers call [`Service::submit`] (or the non-blocking
//! [`Service::enqueue`]) with a simulate or a verify request; both take
//! one path. [`ServiceConfig::jobs`] persistent worker threads each take
//! the oldest admitted job, run it to completion — a simulation cell
//! through [`sweep::run_isolated`], a lint pass through
//! [`crate::verify::lint`] — and answer its waiters the moment it
//! finishes: no job waits for another, and no transport thread runs one.
//! The pipeline per unique job is
//!
//! ```text
//! validate → cache lookup → admission queue → worker → sim or lint → render → cache → journal → reply
//! ```
//!
//! # Admission control
//!
//! The queue of jobs no worker has started is bounded
//! ([`ServiceConfig::queue_capacity`]). A request arriving at a full
//! queue is shed *immediately* with a typed [`ErrorKind::Overloaded`]
//! error — it never blocks the connection handler and never hangs the
//! client. Shedding at admission (rather than deep in a worker) keeps
//! the latency of the rejection path constant no matter how far behind
//! the simulator is.
//!
//! # Deduplication
//!
//! Every admitted job has one entry in the in-flight map, kept under
//! the queue mutex from admission until its reply is sent. A request
//! whose key is already there — queued or running — joins that entry's
//! waiters: it takes no queue slot and is never run again. Every waiter
//! receives a clone of the same `Arc<str>`.
//!
//! # Determinism
//!
//! Which worker runs a cell, and what runs beside it, cannot affect
//! results: every cell runs [`sweep::run_cell_with_config_opts`] on its own
//! validated config with the worker's scratch arena, exactly what an
//! offline caller would run, and the response line is rendered from the
//! result before it is cached — a cache hit replays the very bytes a
//! fresh run would produce.

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::journal::Journal;
use crate::json::{Style, Writer};
use crate::protocol::{ErrorKind, Request, ServeError, SimRequest, SimSource};
use polyflow_bench::sweep::{self, CellOutcome};
use polyflow_bench::{pool, PreparedWorkload};
use polyflow_sim::{Bucket, SimOptions};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tunables for one [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads (0 = [`pool::default_jobs`]).
    pub jobs: usize,
    /// Admission-queue bound on cells no worker has started: requests
    /// beyond this are shed with [`ErrorKind::Overloaded`].
    pub queue_capacity: usize,
    /// Per-request watchdog: the `max_cycles` budget applied to requests
    /// that do not set their own.
    pub default_max_cycles: u64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Persistent cache tier: the journal directory (`--cache-dir`).
    /// `None` keeps the cache purely in memory (the pre-journal
    /// behavior).
    pub cache_dir: Option<PathBuf>,
    /// Journal compaction threshold in bytes (see [`Journal`]).
    pub journal_rotate_bytes: u64,
    /// Upper bound on a request's `deadline_ms` — longer asks are
    /// silently capped here (`--max-deadline`).
    pub max_deadline: Duration,
    /// Slow-client write watchdog: a response write that cannot make
    /// progress for this long forfeits the connection, so one stuck
    /// reader cannot wedge a handler (or the drain).
    pub write_timeout: Duration,
    /// Longest accepted request line in bytes; longer lines get a typed
    /// `bad_request` instead of an unbounded buffer.
    pub max_request_line: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: 0,
            queue_capacity: 64,
            default_max_cycles: 50_000_000,
            cache_capacity: 1024,
            cache_dir: None,
            journal_rotate_bytes: 8 << 20,
            max_deadline: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_request_line: 1 << 20,
        }
    }
}

/// A client's reply: the rendered response line (shared, newline-free)
/// or a typed error.
pub type Reply = Result<Arc<str>, ServeError>;

/// What [`Service::enqueue`] hands back.
#[derive(Debug)]
pub enum Ticket {
    /// Served from the cache; no queueing happened.
    Ready(Arc<str>),
    /// Admitted; the reply arrives on this receiver when the request's
    /// cell finishes.
    Admitted(Receiver<Reply>),
}

/// One request waiting on a cell.
struct Waiter {
    reply: Sender<Reply>,
    /// Absolute expiry, when the request asked for one. A worker answers
    /// the waiters that expired in the queue before it runs their cell,
    /// and skips a cell whose waiters have all expired, so a dead
    /// request never burns simulation time.
    deadline: Option<Instant>,
}

/// A job admitted but not yet taken by a worker: a simulate or a verify
/// request, under its cache key.
struct Queued {
    key: CacheKey,
    req: Request,
}

/// The admission queue and the in-flight map, under one mutex.
#[derive(Default)]
struct Work {
    /// Cells no worker has started, oldest first.
    queue: VecDeque<Queued>,
    /// Every admitted cell, queued or running, with its waiters.
    inflight: HashMap<CacheKey, Vec<Waiter>>,
}

/// A program's preparation slot in the registry: empty until a
/// preparation succeeds.
type Slot = Arc<Mutex<Option<Arc<PreparedWorkload>>>>;

/// Snapshot of the service's observability counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Cells currently queued (admitted, not yet taken by a worker).
    pub queue_depth: u64,
    /// The admission bound.
    pub queue_capacity: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Simulation requests admitted or cache-served.
    pub submitted: u64,
    /// Requests answered successfully (cache hits included).
    pub completed: u64,
    /// Requests answered with a simulation failure.
    pub failed: u64,
    /// Requests that expired before a result could be delivered
    /// (dropped in the queue or timed out while waiting).
    pub deadline_exceeded: u64,
    /// Typed retry-worthy rejections handed out (`overloaded` +
    /// `shutting_down`) — the server-side mirror of client retries.
    pub retry_after: u64,
    /// Cells taken from the queue by a worker (`batches.count`).
    pub batches: u64,
    /// Unique cells simulated (`batches.cells`).
    pub batched_cells: u64,
    /// Milliseconds since the service was built.
    pub uptime_ms: u64,
    /// Cache entries replayed from the journal at boot.
    pub warm_start: u64,
    /// Current on-disk size of the cache journal in bytes (0 when the
    /// persistent tier is disabled).
    pub journal_bytes: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Successful cells contributing to `account_totals`.
    pub account_cells: u64,
    /// Cycle-slot totals summed over every successful cell, by
    /// [`Bucket::ALL`] order — the served counterpart of the figure
    /// binaries' per-run cycle accounts.
    pub account_totals: [u64; Bucket::ALL.len()],
}

impl ServiceStats {
    /// Writes the members of the `stats` object into the open object;
    /// a transport adds its own after them (the reactor's `transport`
    /// object) before the reply closes.
    pub fn write_members(&self, w: &mut Writer) {
        w.key("uptime_ms").u64(self.uptime_ms);
        w.key("queue").object(|w| {
            w.key("depth").u64(self.queue_depth);
            w.key("capacity").u64(self.queue_capacity);
            w.key("shed").u64(self.shed);
        });
        w.key("requests").object(|w| {
            w.key("submitted").u64(self.submitted);
            w.key("completed").u64(self.completed);
            w.key("failed").u64(self.failed);
            w.key("deadline_exceeded").u64(self.deadline_exceeded);
            w.key("retry_after").u64(self.retry_after);
        });
        w.key("batches").object(|w| {
            w.key("count").u64(self.batches);
            w.key("cells").u64(self.batched_cells);
        });
        let cache = &self.cache;
        w.key("cache").object(|w| {
            w.key("hits").u64(cache.hits);
            w.key("misses").u64(cache.misses);
            w.key("evictions").u64(cache.evictions);
            w.key("inserts").u64(cache.inserts);
            w.key("entries").u64(cache.entries);
            w.key("warm_start").u64(self.warm_start);
            w.key("journal_bytes").u64(self.journal_bytes);
        });
        w.key("account").object(|w| {
            w.key("cells").u64(self.account_cells);
            for (b, &total) in Bucket::ALL.iter().zip(&self.account_totals) {
                w.key(b.label()).u64(total);
            }
        });
    }

    /// Renders the stats as the single-line `stats` response body.
    pub fn to_json(&self) -> String {
        stats_reply(|w| self.write_members(w))
    }
}

/// Renders a `stats` reply, `{"ok":true,"stats":{…}}`, whose members
/// `members` writes.
pub fn stats_reply(members: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("ok").bool(true);
        w.key("stats").object(members);
    });
    w.finish()
}

#[derive(Default)]
struct AccountAgg {
    cells: u64,
    totals: [u64; Bucket::ALL.len()],
}

/// The transport-independent simulation service.
pub struct Service {
    config: ServiceConfig,
    jobs: usize,
    cache: ResultCache,
    /// The persistent tier, when `cache_dir` is set and the journal
    /// opened cleanly. A journal that cannot open degrades the service
    /// to memory-only (logged to stderr) rather than refusing to boot:
    /// losing warmth is survivable, refusing traffic is not.
    journal: Option<Journal>,
    started: Instant,
    warm_start: u64,
    /// Program fingerprint → preparation slot. The map lock is held only
    /// to find or add a slot; a preparation holds just its own slot, so
    /// other programs' lookups never wait behind it.
    registry: Mutex<HashMap<String, Slot>>,
    work: Mutex<Work>,
    notify: Condvar,
    shutdown: AtomicBool,
    shed: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    deadlines: AtomicU64,
    retry_after: AtomicU64,
    batches: AtomicU64,
    batched_cells: AtomicU64,
    account: Mutex<AccountAgg>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Transport completion hook: called after every answered cell so a
    /// parked reactor wakes and delivers the replies (see
    /// [`crate::reactor::ReactorThread`]). `None` for transports that block
    /// per-request.
    notifier: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Service {
    /// Builds a service. The workers are **not** running yet — call
    /// [`Service::start`] — so admitted requests queue up but nothing
    /// executes (tests use this to pin down admission behavior).
    pub fn new(config: ServiceConfig) -> Arc<Service> {
        let jobs = match config.jobs {
            // A malformed `POLYFLOW_JOBS` degrades the pool rather than
            // refusing to build the service; the binaries reject it
            // before they get here.
            0 => pool::default_jobs().unwrap_or_else(|e| {
                eprintln!("[serve] {e}; running one worker");
                1
            }),
            n => n,
        };
        let cache = ResultCache::new(config.cache_capacity);
        let mut warm_start = 0u64;
        let journal = match &config.cache_dir {
            None => None,
            Some(dir) => match Journal::open(dir, config.journal_rotate_bytes) {
                Ok((journal, entries, report)) => {
                    for (key, value) in entries {
                        cache.insert(key, Arc::from(value.as_str()));
                        warm_start += 1;
                    }
                    if report.torn_tails > 0 || report.incompatible > 0 {
                        eprintln!(
                            "[serve] cache journal recovered with {} torn tail(s), \
                             {} incompatible segment(s) skipped",
                            report.torn_tails, report.incompatible
                        );
                    }
                    Some(journal)
                }
                Err(e) => {
                    eprintln!(
                        "[serve] cache journal disabled: cannot open {}: {e}",
                        dir.display()
                    );
                    None
                }
            },
        };
        Arc::new(Service {
            jobs,
            cache,
            journal,
            started: Instant::now(),
            warm_start,
            config,
            registry: Mutex::new(HashMap::new()),
            work: Mutex::new(Work::default()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            retry_after: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_cells: AtomicU64::new(0),
            account: Mutex::new(AccountAgg::default()),
            workers: Mutex::new(Vec::new()),
            notifier: Mutex::new(None),
        })
    }

    /// Spawns the `jobs` worker threads. Idempotent.
    pub fn start(self: &Arc<Service>) {
        let mut workers = self.workers.lock().unwrap();
        if workers.is_empty() {
            for i in 0..self.jobs {
                let svc = Arc::clone(self);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-worker-{i}"))
                        .spawn(move || svc.work_loop())
                        .expect("spawn worker"),
                );
            }
        }
    }

    /// Registers the transport completion hook (replacing any previous
    /// one): it runs after every answered cell and when a worker exits,
    /// so an event-driven transport learns "replies may be waiting"
    /// without polling.
    pub fn set_notifier(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.notifier.lock().unwrap() = Some(Box::new(f));
    }

    fn notify_transport(&self) {
        if let Some(f) = &*self.notifier.lock().unwrap_or_else(PoisonError::into_inner) {
            f();
        }
    }

    /// Counts a request whose deadline expired while its reply was in
    /// flight. `submit` counts its own timeouts; transports that wait
    /// via [`Ticket::Admitted`] report theirs here so the
    /// `deadline_exceeded` stat stays complete.
    pub fn record_deadline_exceeded(&self) {
        self.deadlines.fetch_add(1, Ordering::Relaxed);
    }

    /// The per-request default cycle budget (for request parsing).
    pub fn default_max_cycles(&self) -> u64 {
        self.config.default_max_cycles
    }

    /// The tunables this service was built with (transports read the
    /// line bound and write watchdog from here).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The request's effective absolute deadline: a simulate request's
    /// `deadline_ms` capped by the server-side
    /// [`ServiceConfig::max_deadline`]. A transport waiting on a
    /// [`Ticket::Admitted`] reply gives up at it, as
    /// [`submit`](Service::submit) does.
    pub fn deadline_of(&self, req: &Request) -> Option<Instant> {
        let Request::Simulate(r) = req else {
            return None;
        };
        r.deadline_ms.map(|ms| {
            let asked = Duration::from_millis(ms);
            Instant::now() + asked.min(self.config.max_deadline)
        })
    }

    /// Validates admission for one simulate or verify request: cache
    /// first, then the in-flight map, then the bounded queue. Never
    /// blocks on a job. The verbs that run nothing are a `bad_request`.
    pub fn enqueue(&self, req: impl Into<Request>) -> Result<Ticket, ServeError> {
        if self.shutdown.load(Ordering::SeqCst) {
            self.retry_after.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::new(
                ErrorKind::ShuttingDown,
                "server is draining; no new work accepted",
            ));
        }
        let req = req.into();
        let Some(key) = req.key() else {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                "only simulate and verify requests run on the workers",
            ));
        };
        self.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.cache.get(&key) {
            self.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(Ticket::Ready(hit));
        }
        let (tx, rx) = channel();
        let waiter = Waiter {
            reply: tx,
            deadline: self.deadline_of(&req),
        };
        {
            let mut work = self.work.lock().unwrap();
            let Work { queue, inflight } = &mut *work;
            if let Some(waiters) = inflight.get_mut(&key) {
                waiters.push(waiter);
                return Ok(Ticket::Admitted(rx));
            }
            if queue.len() >= self.config.queue_capacity {
                self.shed.fetch_add(1, Ordering::Relaxed);
                self.retry_after.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::new(
                    ErrorKind::Overloaded,
                    format!(
                        "admission queue full ({} pending); retry later",
                        queue.len()
                    ),
                ));
            }
            inflight.insert(key.clone(), vec![waiter]);
            queue.push_back(Queued { key, req });
        }
        self.notify.notify_one();
        Ok(Ticket::Admitted(rx))
    }

    /// [`enqueue`](Service::enqueue) and wait for the reply. A request
    /// carrying a deadline waits at most that long: the caller gets a
    /// typed [`ErrorKind::DeadlineExceeded`] the moment the deadline
    /// passes, even if the cell is still running on a worker (the
    /// result, if it ever lands, still populates the cache — only the
    /// waiter gives up).
    pub fn submit(&self, req: impl Into<Request>) -> Reply {
        let req = req.into();
        let deadline = self.deadline_of(&req);
        match self.enqueue(req)? {
            Ticket::Ready(line) => Ok(line),
            Ticket::Admitted(rx) => {
                let recv = match deadline {
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
                };
                match recv {
                    Ok(reply) => reply,
                    Err(RecvTimeoutError::Timeout) => {
                        self.deadlines.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::new(
                            ErrorKind::DeadlineExceeded,
                            "deadline expired before the result was ready",
                        ))
                    }
                    Err(RecvTimeoutError::Disconnected) => Err(ServeError::new(
                        ErrorKind::Internal,
                        "service stopped before replying",
                    )),
                }
            }
        }
    }

    /// Inserts a rendered response into the cache and, when the
    /// persistent tier is on, appends it to the journal. Journal I/O
    /// errors are counted inside [`Journal`] and never fail the request
    /// — the in-memory cache remains authoritative for this process's
    /// lifetime.
    fn store(&self, key: CacheKey, line: Arc<str>) -> Arc<str> {
        let line = self.cache.insert(key.clone(), line);
        if let Some(j) = &self.journal {
            let _ = j.append(&key, &line);
        }
        line
    }

    /// Compacts the journal once it has grown past its threshold. The
    /// cache is read under the journal lock, so an entry another worker
    /// appended meanwhile is in the snapshot and survives.
    fn compact_if_due(&self) {
        if let Some(j) = &self.journal {
            let _ = j.compact_if_due(|| self.cache.snapshot());
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let queue_depth = self.work.lock().unwrap().queue.len() as u64;
        let account = self.account.lock().unwrap();
        ServiceStats {
            queue_depth,
            queue_capacity: self.config.queue_capacity as u64,
            shed: self.shed.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadlines.load(Ordering::Relaxed),
            retry_after: self.retry_after.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_cells: self.batched_cells.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            warm_start: self.warm_start,
            journal_bytes: self.journal.as_ref().map_or(0, |j| j.size_bytes()),
            cache: self.cache.stats(),
            account_cells: account.cells,
            account_totals: account.totals,
        }
    }

    /// Stops admitting simulation work. Already-queued cells still
    /// drain; each worker exits once the queue is empty.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Pass through the queue lock so a worker that saw the flag
        // unset is already parked on the condvar when the wake lands.
        drop(self.work.lock().unwrap());
        self.notify.notify_all();
    }

    /// True once [`begin_shutdown`](Service::begin_shutdown) was called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// [`begin_shutdown`](Service::begin_shutdown), then wait for the
    /// workers to drain the queue and exit.
    pub fn shutdown_and_join(&self) {
        self.begin_shutdown();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in workers {
            let _ = handle.join();
        }
        // Flush the journal so everything computed during the drain
        // (including the cells running when SIGTERM landed) survives
        // the restart.
        if let Some(j) = &self.journal {
            j.sync();
        }
    }

    fn work_loop(&self) {
        while let Some(job) = self.next_job() {
            // A panic outside the isolated run has already answered the
            // cell's waiters through `Inflight`; the worker lives on.
            let _ = catch_unwind(AssertUnwindSafe(|| self.run(job)));
        }
        // One last wake so a reactor waiting on in-flight replies sees
        // the hangup promptly.
        self.notify_transport();
    }

    /// Blocks until a cell needs simulating and takes it, answering on
    /// the way the waiters that expired in the queue and the cells the
    /// cache filled since admission. `None` once draining with the
    /// queue empty.
    fn next_job(&self) -> Option<Queued> {
        let mut work = self.work.lock().unwrap();
        loop {
            let Some(job) = work.queue.pop_front() else {
                if self.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
                work = self.notify.wait(work).unwrap();
                continue;
            };
            self.batches.fetch_add(1, Ordering::Relaxed);
            let waiters = work
                .inflight
                .get_mut(&job.key)
                .expect("a queued cell has waiters");
            let now = Instant::now();
            waiters.retain(|w| match w.deadline {
                Some(d) if now >= d => {
                    self.deadlines.fetch_add(1, Ordering::Relaxed);
                    let _ = w.reply.send(Err(ServeError::new(
                        ErrorKind::DeadlineExceeded,
                        "deadline expired while queued",
                    )));
                    false
                }
                _ => true,
            });
            if !waiters.is_empty() {
                // A key may have been filled between admission and now.
                let Some(hit) = self.cache.get(&job.key) else {
                    return Some(job);
                };
                self.completed
                    .fetch_add(waiters.len() as u64, Ordering::Relaxed);
                for w in waiters.iter() {
                    let _ = w.reply.send(Ok(Arc::clone(&hit)));
                }
            }
            work.inflight.remove(&job.key);
            self.notify_transport();
        }
    }

    /// Runs one job to completion: simulate or lint, render, cache,
    /// journal, reply — and only then compact, so a compaction never
    /// delays the reply of the job that triggered it. The journal append
    /// still precedes the reply: a client that holds an answer can count
    /// on it surviving a crash.
    fn run(&self, Queued { key, req }: Queued) {
        let inflight = Inflight {
            service: self,
            key: &key,
            answered: false,
        };
        self.batched_cells.fetch_add(1, Ordering::Relaxed);
        let line = match &req {
            Request::Simulate(req) => self.simulate(&key, req),
            Request::Verify(source) => crate::verify::lint(source, &key.workload),
            Request::Stats | Request::Ping | Request::Shutdown => {
                unreachable!("only simulate and verify requests are admitted")
            }
        };
        match line {
            Ok(line) => {
                inflight.finish(Ok(self.store(key.clone(), Arc::from(line))));
                self.compact_if_due();
            }
            Err(e) => inflight.finish(Err(e)),
        }
    }

    /// Simulates one cell and renders its reply line, adding its cycle
    /// account to the service's totals.
    fn simulate(&self, key: &CacheKey, req: &SimRequest) -> Result<String, ServeError> {
        let w = self.prepared_workload(&key.workload, &req.source)?;
        let (cell, cfg) = (req.cell, &req.config);
        let outcome = sweep::run_isolated(&w, &cell.label(), |s| {
            sweep::run_cell_with_config_opts(&w, cell, cfg, s, SimOptions::default())
                .map(|(r, _)| r)
        });
        let result = match outcome {
            CellOutcome::Ok(result) => result,
            CellOutcome::Failed { payload, .. } => {
                return Err(ServeError::new(ErrorKind::SimFailed, payload))
            }
        };
        {
            let mut agg = self.account.lock().unwrap();
            agg.cells += 1;
            for b in Bucket::ALL {
                agg.totals[b.index()] += result.account.bucket(b);
            }
        }
        Ok(crate::protocol::result_response(
            req.workload_label(),
            &req.policy_label(),
            &result,
        ))
    }

    /// Hands `reply` to every waiter of `key` and wakes the transport.
    fn answer(&self, key: &CacheKey, reply: Reply) {
        let waiters = self
            .work
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .inflight
            .remove(key)
            .unwrap_or_default();
        let counter = if reply.is_ok() {
            &self.completed
        } else {
            &self.failed
        };
        counter.fetch_add(waiters.len() as u64, Ordering::Relaxed);
        for w in waiters {
            let _ = w.reply.send(reply.clone()); // receiver may have hung up
        }
        self.notify_transport();
    }

    /// Resolves a request's program to a prepared workload, keyed by the
    /// program fingerprint — so an uploaded copy of a bundled benchmark
    /// reuses the trace and analysis prepared for the name (and vice
    /// versa). Concurrent first touches of one program prepare it once;
    /// a failed preparation is not remembered, so the next request
    /// tries again. An uploaded program that faults or never halts is
    /// the client's mistake ([`ErrorKind::SimFailed`]); a bundled one
    /// that does is ours ([`ErrorKind::Internal`]).
    fn prepared_workload(
        &self,
        fingerprint: &str,
        source: &SimSource,
    ) -> Result<Arc<PreparedWorkload>, ServeError> {
        let slot = Arc::clone(
            self.registry
                .lock()
                .unwrap()
                .entry(fingerprint.to_string())
                .or_default(),
        );
        let mut prepared = slot.lock().unwrap();
        if let Some(w) = &*prepared {
            return Ok(Arc::clone(w));
        }
        let (workload, fail_kind) = match source {
            SimSource::Bundled(name) => (
                polyflow_workloads::by_name(name)
                    .ok_or_else(|| format!("workload `{name}` vanished from the bundle")),
                ErrorKind::Internal,
            ),
            SimSource::Uploaded(up) => (Ok(up.workload().clone()), ErrorKind::SimFailed),
        };
        let outcome = workload.and_then(|w| {
            catch_unwind(AssertUnwindSafe(|| PreparedWorkload::try_prepare(w)))
                .unwrap_or_else(|_| Err("workload panicked during preparation".to_string()))
        });
        match outcome {
            Ok(w) => Ok(Arc::clone(prepared.insert(Arc::new(w)))),
            Err(e) => {
                // Forget the empty slot, unless a newer one replaced it.
                let mut reg = self.registry.lock().unwrap();
                if reg.get(fingerprint).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    reg.remove(fingerprint);
                }
                Err(ServeError::new(fail_kind, e))
            }
        }
    }
}

/// A running cell's obligation to its waiters: [`Inflight::finish`]
/// answers them with the cell's reply; if the worker unwinds first, the
/// drop answers them with a typed `internal` error, so no waiter is
/// ever stranded.
struct Inflight<'a> {
    service: &'a Service,
    key: &'a CacheKey,
    answered: bool,
}

impl Inflight<'_> {
    fn finish(mut self, reply: Reply) {
        self.answered = true;
        self.service.answer(self.key, reply);
    }
}

impl Drop for Inflight<'_> {
    fn drop(&mut self) {
        if !self.answered {
            self.service.answer(
                self.key,
                Err(ServeError::new(
                    ErrorKind::Internal,
                    "the worker running this cell died",
                )),
            );
        }
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("jobs", &self.jobs)
            .field("queue_capacity", &self.config.queue_capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};

    fn sim_request(workload: &str, policy: &str, max_cycles: u64) -> SimRequest {
        let line = format!(
            "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
             \"config\":{{\"max_cycles\":{max_cycles}}}}}"
        );
        match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        }
    }

    /// The K+1-th concurrent request gets a typed `Overloaded` rejection
    /// — no hang, no panic. The workers are deliberately not started,
    /// so the queue cannot drain under us.
    #[test]
    fn overload_sheds_with_typed_error() {
        let svc = Service::new(ServiceConfig {
            queue_capacity: 3,
            ..ServiceConfig::default()
        });
        for i in 0..3 {
            match svc.enqueue(sim_request("gzip", "postdoms", 1000 + i)) {
                Ok(Ticket::Admitted(_)) => {}
                other => panic!("request {i} should be admitted, got {:?}", err_of(other)),
            }
        }
        let e = match svc.enqueue(sim_request("gzip", "postdoms", 9999)) {
            Err(e) => e,
            Ok(_) => panic!("queue is full; the 4th request must be shed"),
        };
        assert_eq!(e.kind, ErrorKind::Overloaded);
        let s = svc.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.queue_depth, 3);
    }

    fn err_of(t: Result<Ticket, ServeError>) -> Option<ServeError> {
        t.err()
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let svc = Service::new(ServiceConfig::default());
        svc.begin_shutdown();
        let e = svc
            .enqueue(sim_request("gzip", "postdoms", 1000))
            .expect_err("draining service takes no new work");
        assert_eq!(e.kind, ErrorKind::ShuttingDown);
    }

    /// An uploaded program that never halts within its window is the
    /// client's mistake: a typed `sim_failed` reply, not a dead worker.
    /// (The tiny `window` pragma keeps the preparation attempt cheap.)
    #[test]
    fn non_halting_upload_is_a_typed_sim_failure() {
        let asm = "; window: 10_000\nfn main {\nspin:\n    j spin\n}";
        let line = format!(
            "{{\"program\":\"{}\",\"config\":{{\"max_cycles\":1000}}}}",
            crate::json::escape(asm)
        );
        let req = match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        };
        let svc = Service::new(ServiceConfig::default());
        svc.start();
        let e = svc.submit(req).expect_err("spin loop cannot prepare");
        assert_eq!(e.kind, ErrorKind::SimFailed);
        assert!(e.message.contains("did not halt"), "{e}");
        svc.shutdown_and_join();
    }

    fn sim_request_with(workload: &str, policy: &str, max_cycles: u64, extra: &str) -> SimRequest {
        let line = format!(
            "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
             \"config\":{{\"max_cycles\":{max_cycles}}}{extra}}}"
        );
        match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        }
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            use std::sync::atomic::AtomicU32;
            static NONCE: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "polyflow-svc-{tag}-{}-{}",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A queued request whose deadline passes before a worker gets to
    /// it is answered with a typed `deadline_exceeded`, and the worker
    /// never burns a cell on it. The workers are started only *after*
    /// the deadline has already expired, so the drop-in-queue path (not
    /// the submit timeout) is what fires first on the worker side.
    #[test]
    fn expired_request_is_dropped_before_the_pool() {
        let svc = Service::new(ServiceConfig::default());
        let req = sim_request_with("gzip", "postdoms", 100_000, ",\"deadline_ms\":1");
        let rx = match svc.enqueue(req).expect("admitted") {
            Ticket::Admitted(rx) => rx,
            Ticket::Ready(_) => panic!("cold cache cannot be ready"),
        };
        std::thread::sleep(Duration::from_millis(20));
        svc.start();
        let reply = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a worker answers expired requests");
        let e = reply.expect_err("expired request gets a typed error");
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded);
        svc.shutdown_and_join();
        let s = svc.stats();
        assert_eq!(s.batched_cells, 0, "no pool time for a dead request");
        assert!(s.deadline_exceeded >= 1);
    }

    /// `submit` with a deadline gives up waiting when the deadline
    /// passes — here the workers are simply never started, the bluntest
    /// possible stall.
    #[test]
    fn submit_times_out_at_its_deadline() {
        let svc = Service::new(ServiceConfig::default());
        let req = sim_request_with("gzip", "postdoms", 100_000, ",\"deadline_ms\":30");
        let t0 = Instant::now();
        let e = svc.submit(req).expect_err("no workers, must time out");
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "timed out promptly, not hung"
        );
        assert!(svc.stats().deadline_exceeded >= 1);
    }

    /// Typed retry-worthy rejections are counted: shedding and draining
    /// both bump `retry_after`.
    #[test]
    fn retry_after_counts_shed_and_draining() {
        let svc = Service::new(ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        assert!(svc.enqueue(sim_request("gzip", "postdoms", 1000)).is_ok());
        let _ = svc.enqueue(sim_request("gzip", "postdoms", 2000));
        svc.begin_shutdown();
        let _ = svc.enqueue(sim_request("gzip", "postdoms", 3000));
        assert_eq!(svc.stats().retry_after, 2);
    }

    /// Populate through one service, reopen a second on the same
    /// `cache_dir`: the second boots warm and serves the very same
    /// bytes without simulating anything.
    #[test]
    fn warm_start_replays_the_journal() {
        let dir = TempDir::new("warm");
        let config = ServiceConfig {
            cache_dir: Some(dir.0.clone()),
            ..ServiceConfig::default()
        };
        let first = Service::new(config.clone());
        first.start();
        let line = first
            .submit(sim_request("gzip", "postdoms", 200_000))
            .expect("cold run succeeds");
        first.shutdown_and_join();
        drop(first);

        let second = Service::new(config);
        assert_eq!(second.stats().warm_start, 1, "one entry replayed");
        assert!(second.stats().journal_bytes > 0);
        // No workers started: only the cache can answer.
        match second
            .enqueue(sim_request("gzip", "postdoms", 200_000))
            .expect("admitted or ready")
        {
            Ticket::Ready(warm) => assert_eq!(&*warm, &*line, "byte-identical"),
            Ticket::Admitted(_) => panic!("warm entry must be served from cache"),
        }
        assert_eq!(second.stats().batched_cells, 0);
    }

    fn admitted(t: Result<Ticket, ServeError>) -> Receiver<Reply> {
        match t {
            Ok(Ticket::Admitted(rx)) => rx,
            Ok(Ticket::Ready(_)) => panic!("expected admission, got a cache hit"),
            Err(e) => panic!("expected admission, got {e}"),
        }
    }

    /// An uploaded program that halts at once: a cell that prepares and
    /// simulates in far less time than any bundled workload.
    fn tiny_upload(max_cycles: u64) -> SimRequest {
        let asm = "fn main {\n    halt\n}";
        let line = format!(
            "{{\"program\":\"{}\",\"config\":{{\"max_cycles\":{max_cycles}}}}}",
            crate::json::escape(asm)
        );
        match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        }
    }

    /// Waits until no admitted cell is left in the queue: every cell
    /// enqueued so far has been taken by a worker.
    fn wait_until_taken(svc: &Service) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while svc.stats().queue_depth > 0 {
            assert!(Instant::now() < deadline, "no worker took the queued cell");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Work conservation: with two workers, a short cell admitted
    /// together with a long one is answered while the long one is still
    /// running — its reply does not wait for its neighbour.
    #[test]
    fn short_cell_is_answered_while_a_long_one_runs() {
        let svc = Service::new(ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        });
        let long = admitted(svc.enqueue(sim_request("mcf", "rec_pred", 1_000_000_000)));
        let short = admitted(svc.enqueue(tiny_upload(1_000_000)));
        svc.start();
        let reply = short
            .recv_timeout(Duration::from_secs(60))
            .expect("the short cell is answered");
        assert!(reply
            .expect("the short cell simulates")
            .starts_with("{\"ok\":true"));
        assert!(
            matches!(long.try_recv(), Err(std::sync::mpsc::TryRecvError::Empty)),
            "the long cell is still running when the short one is answered"
        );
        let long_reply = long.recv().expect("the long cell is answered");
        assert!(long_reply
            .expect("the long cell simulates")
            .starts_with("{\"ok\":true"));
        svc.shutdown_and_join();
        assert_eq!(svc.stats().batched_cells, 2);
    }

    /// A duplicate of a cell already being simulated joins its waiters
    /// instead of taking a queue slot: with room for one queued cell,
    /// both the duplicate and a different cell are admitted, the running
    /// cell is simulated once, and both of its waiters get the same
    /// bytes.
    #[test]
    fn duplicate_of_a_running_cell_takes_no_queue_slot() {
        let svc = Service::new(ServiceConfig {
            jobs: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let first = admitted(svc.enqueue(sim_request("mcf", "rec_pred", 1_000_000_000)));
        svc.start();
        wait_until_taken(&svc);
        let duplicate = admitted(svc.enqueue(sim_request("mcf", "rec_pred", 1_000_000_000)));
        let other = admitted(svc.enqueue(tiny_upload(1_000_000)));
        assert_eq!(svc.stats().shed, 0, "nothing was shed");
        let a = first.recv().unwrap().expect("the cell simulates");
        let b = duplicate.recv().unwrap().expect("the duplicate shares it");
        assert_eq!(a, b, "both waiters get the same bytes");
        assert!(other.recv().unwrap().is_ok());
        svc.shutdown_and_join();
        let s = svc.stats();
        assert_eq!(s.batched_cells, 2, "the running cell was simulated once");
        assert_eq!(s.completed, 3);
    }

    /// A verify request is a job like a simulation: admitted to the
    /// queue rather than answered where it arrives, joined by its
    /// duplicate, linted once by a worker and cached; refused and
    /// counted while draining. A verb that runs nothing is not admitted.
    #[test]
    fn verify_is_admitted_deduplicated_and_cached() {
        let svc = Service::new(ServiceConfig::default());
        let verify = || parse_request("{\"verb\":\"verify\",\"workload\":\"gzip\"}", 1).unwrap();
        let first = admitted(svc.enqueue(verify()));
        let duplicate = admitted(svc.enqueue(verify()));
        assert_eq!(svc.stats().queue_depth, 1, "the duplicate joined the job");
        svc.start();
        let line = first.recv().unwrap().expect("gzip lints");
        assert_eq!(duplicate.recv().unwrap().unwrap(), line);
        let gzip = polyflow_workloads::by_name("gzip").unwrap().program;
        let fingerprint = crate::verify::fingerprint(&gzip);
        assert_eq!(&*line, crate::verify::run(&gzip, &fingerprint));
        assert!(matches!(svc.enqueue(verify()), Ok(Ticket::Ready(hit)) if hit == line));
        let e = svc.enqueue(Request::Ping).expect_err("ping runs nothing");
        assert_eq!(e.kind, ErrorKind::BadRequest);

        svc.shutdown_and_join();
        let e = svc.enqueue(verify()).expect_err("draining");
        assert_eq!(e.kind, ErrorKind::ShuttingDown);
        let s = svc.stats();
        assert_eq!((s.batches, s.batched_cells, s.completed), (1, 1, 3));
        assert_eq!(s.retry_after, 1);
    }

    /// A worker that unwinds outside the isolated run still answers its
    /// cell's waiters, with a typed `internal` error.
    #[test]
    fn unwinding_worker_answers_its_waiters() {
        let svc = Service::new(ServiceConfig::default());
        let rx = admitted(svc.enqueue(sim_request("gzip", "postdoms", 1000)));
        let dup = admitted(svc.enqueue(sim_request("gzip", "postdoms", 1000)));
        let job = svc.next_job().expect("a queued cell");
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _inflight = Inflight {
                service: &svc,
                key: &job.key,
                answered: false,
            };
            panic!("render failed");
        }));
        assert!(unwound.is_err());
        for rx in [rx, dup] {
            let e = rx.try_recv().unwrap().expect_err("typed error");
            assert_eq!(e.kind, ErrorKind::Internal);
        }
        assert_eq!(svc.stats().failed, 2);
    }

    /// Concurrent first touches of one program prepare it once (every
    /// caller gets the same prepared workload), and concurrent cells of
    /// that program get identical bytes.
    #[test]
    fn concurrent_first_touch_prepares_once() {
        let svc = Service::new(ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        });
        let req = sim_request("bzip2", "postdoms", 1_000_000_000);
        let fingerprint = req.fingerprint();
        let barrier = std::sync::Barrier::new(3);
        let prepared: Vec<Arc<PreparedWorkload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        svc.prepared_workload(&fingerprint, &req.source).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(prepared.iter().all(|w| Arc::ptr_eq(w, &prepared[0])));
        assert_eq!(svc.registry.lock().unwrap().len(), 1);

        let a = admitted(svc.enqueue(sim_request("bzip2", "baseline", 1_000_000_001)));
        let b = admitted(svc.enqueue(sim_request("bzip2", "baseline", 1_000_000_002)));
        svc.start();
        let (a, b) = (a.recv().unwrap().unwrap(), b.recv().unwrap().unwrap());
        assert_eq!(a, b, "same cell at different budgets, same bytes");
        svc.shutdown_and_join();
    }

    /// A failed upload preparation is not remembered: the next request
    /// for the same program prepares it again.
    #[test]
    fn failed_upload_preparation_is_retried() {
        let asm = "; window: 10_000\nfn main {\nspin:\n    j spin\n}";
        let line = format!(
            "{{\"program\":\"{}\",\"config\":{{\"max_cycles\":1000}}}}",
            crate::json::escape(asm)
        );
        let Ok(Request::Simulate(req)) = parse_request(&line, u64::MAX) else {
            panic!("valid request");
        };
        let svc = Service::new(ServiceConfig::default());
        let fingerprint = req.fingerprint();
        for attempt in 0..2 {
            let e = svc
                .prepared_workload(&fingerprint, &req.source)
                .expect_err("a spin loop cannot prepare");
            assert_eq!(e.kind, ErrorKind::SimFailed, "attempt {attempt}");
            assert!(e.message.contains("did not halt"), "{e}");
            assert!(
                svc.registry.lock().unwrap().is_empty(),
                "attempt {attempt}: the failure left nothing behind"
            );
        }
    }

    #[test]
    fn stats_json_is_single_line_and_parses() {
        let svc = Service::new(ServiceConfig::default());
        let line = svc.stats().to_json();
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).expect("stats JSON parses");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let stats = v.get("stats").unwrap();
        assert_eq!(
            stats
                .get("queue")
                .unwrap()
                .get("capacity")
                .unwrap()
                .as_u64(),
            Some(64)
        );
        assert!(stats.get("account").unwrap().get("retire").is_some());
    }

    /// The `stats` body keeps the exact bytes (member order included) it
    /// had before it was composed through [`ObjectWriter`].
    #[test]
    fn stats_json_bytes_are_pinned() {
        let s = ServiceStats {
            queue_depth: 1,
            queue_capacity: 2,
            shed: 3,
            submitted: 4,
            completed: 5,
            failed: 6,
            deadline_exceeded: 7,
            retry_after: 8,
            batches: 9,
            batched_cells: 10,
            uptime_ms: 11,
            warm_start: 12,
            journal_bytes: 13,
            cache: CacheStats {
                hits: 14,
                misses: 15,
                evictions: 16,
                inserts: 17,
                entries: 18,
            },
            account_cells: 19,
            account_totals: [20, 21, 22, 23, 24, 25, 26, 27],
        };
        assert_eq!(
            s.to_json(),
            "{\"ok\":true,\"stats\":{\"uptime_ms\":11,\
             \"queue\":{\"depth\":1,\"capacity\":2,\"shed\":3},\
             \"requests\":{\"submitted\":4,\"completed\":5,\"failed\":6,\
             \"deadline_exceeded\":7,\"retry_after\":8},\
             \"batches\":{\"count\":9,\"cells\":10},\
             \"cache\":{\"hits\":14,\"misses\":15,\"evictions\":16,\"inserts\":17,\
             \"entries\":18,\"warm_start\":12,\"journal_bytes\":13},\
             \"account\":{\"cells\":19,\"retire\":20,\"branch_stall\":21,\
             \"icache_stall\":22,\"divert_wait\":23,\"squash_recovery\":24,\
             \"spawn_setup\":25,\"contention\":26,\"idle_context\":27}}}"
        );
    }
}
