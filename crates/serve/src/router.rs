//! The sharding router: a consistent-hash ring over N serve backends,
//! with health checks, automatic ejection/readmission, failover, and
//! graceful draining — all on one reactor thread.
//!
//! ```text
//!   clients ──► reactor ──(hash of cache key)──► backend #k
//!                 │   keep-alive pool per backend  ▲
//!                 ├── health checks (ping) ────────┘
//!                 └── stats: per-backend health + ring ownership
//! ```
//!
//! # Why hash the cache key
//!
//! Each backend keeps its own result cache keyed by
//! `(program fingerprint, policy, config fingerprint)` — see
//! [`crate::cache::CacheKey`]. The router hashes **exactly that key**
//! (built by [`Request::key`], rendered by [`routing_key`]) onto the
//! ring, so a given cell always lands on the shard that already has it
//! cached, no matter which client asks, in which order, or through which
//! router process.
//! Cache affinity is a routing concern only: correctness never depends
//! on it, because every backend computes byte-identical results for the
//! same cell (the standing served ≡ offline invariant). That is what
//! makes failover safe — a request re-routed to a non-owner backend
//! gets the same bytes, just colder.
//!
//! # The ring
//!
//! [`Ring`] places [`Ring::replicas`] virtual points per backend at
//! `fnv1a("{addr}#{i}")` on the u64 circle; a key is owned by the first
//! point clockwise from `fnv1a(key)`. Ejecting a backend removes only
//! its points, so keys owned by healthy backends never move (minimal
//! remapping), and readmission restores exactly the old assignment —
//! the map is a pure function of the live backend set.
//!
//! # Health
//!
//! Every [`RouterConfig::check_interval`] the router pings each backend
//! that has no check in flight; a backend is ejected after
//! [`RouterConfig::eject_after`] consecutive failures and readmitted
//! after [`RouterConfig::readmit_after`] consecutive successes.
//! Forwarding failures also count toward ejection (passive detection),
//! so a SIGKILLed backend stops receiving traffic after at most a couple
//! of failed forwards, not a full check cycle.
//!
//! # Forwarding
//!
//! The router runs on the same [`ReactorThread`] loop as `serve`; its
//! [`Handler`] owns the ring, the health table, and a pool of keep-alive
//! nonblocking connections per backend, which the loop polls next to
//! the clients. Each backend connection carries one request at a time —
//! serve runs one simulation per connection, so a cold cell must never
//! wait behind another — and goes back to its pool when the reply ends.
//! Connects happen on one connector thread per backend, never on the
//! loop. A pooled connection the backend closed while it sat idle (a
//! restart, a drain) fails before any reply byte; such a forward is
//! retried once on a new connection, and that retry is neither a
//! failure nor a failover. [`RouterConfig::io_timeout`] is a deadline on
//! each attempt, enforced by the loop.
//!
//! Replies are relayed **verbatim** — the router never parses or
//! re-renders a backend's bytes, so the byte-identity invariant survives
//! the extra hop (integrity trailers included): the buffer a reply was
//! read into becomes the client's output. Each newly read run of bytes
//! is scanned once for the newline, at `memchr` speed; a backend that
//! sends bytes after it has only its first line relayed, and that link
//! is closed rather than pooled. Whether a reply is worth
//! failing over for is read from its first bytes
//! ([`protocol::is_retryable_reply`]). A forward that fails (connection
//! error, deadline, or a retryable `overloaded`/`shutting_down` answer)
//! fails over around the ring to the next live backend; only when every
//! backend has been tried does the client get a router-local typed
//! `overloaded` error, which retrying clients handle.

use crate::json::{self, Json, Style, Writer};
use crate::protocol::{self, ErrorKind, Request, ServeError};
use crate::reactor::{Handler, Out, ReactorThread, Step, TransportSnapshot, TransportStats, Waker};
use polyflow_isa::fnv1a;
use std::ffi::{c_int, c_void};
use std::io::{self, ErrorKind as IoKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Most idle keep-alive connections kept per backend; a connection
/// released beyond this is closed.
const IDLE_MAX: usize = 64;

/// Tunables for one [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses, `host:port` each.
    pub backends: Vec<String>,
    /// Virtual points per backend on the ring.
    pub replicas: usize,
    /// Health-check cadence.
    pub check_interval: Duration,
    /// Consecutive failures (checks or forwards) before ejection.
    pub eject_after: u32,
    /// Consecutive successful checks before readmission.
    pub readmit_after: u32,
    /// Deadline of one forward attempt or health check, connect
    /// included; also the client write-stall watchdog.
    pub io_timeout: Duration,
    /// Must match the backends' `--max-cycles` default: the router
    /// parses requests with it to derive the same config fingerprint
    /// the backend will cache under.
    pub default_max_cycles: u64,
    /// Longest accepted request line (mirrors serve's `--max-line`).
    pub max_request_line: usize,
}

impl RouterConfig {
    /// Default policy over `backends`.
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            backends,
            replicas: 100,
            check_interval: Duration::from_millis(250),
            eject_after: 2,
            readmit_after: 2,
            io_timeout: Duration::from_secs(30),
            default_max_cycles: 50_000_000,
            max_request_line: 1 << 20,
        }
    }
}

/// A consistent-hash ring: virtual points for each backend on the u64
/// circle. Construction is a pure function of the backend list, so
/// every router process (and every restart) builds the same map.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, backend index)` sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
    /// Virtual points per backend.
    pub replicas: usize,
}

/// Disperses an FNV-1a hash across the circle (the SplitMix64
/// finalizer). FNV alone has weak avalanche on near-identical inputs —
/// `host:7199#0` vs `host:7200#0` land close together, which skews
/// ownership badly at small replica counts.
fn spread(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Ring {
    /// Places `replicas` points per backend.
    pub fn new(backends: &[String], replicas: usize) -> Ring {
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(backends.len() * replicas);
        for (idx, addr) in backends.iter().enumerate() {
            for r in 0..replicas {
                points.push((spread(fnv1a(format!("{addr}#{r}").as_bytes())), idx));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            backends: backends.len(),
            replicas,
        }
    }

    /// The backend owning `key` among those with `alive[idx]` true:
    /// the first live point clockwise from the key's hash. `None` when
    /// nothing is alive.
    pub fn shard_of(&self, key: &str, alive: &[bool]) -> Option<usize> {
        self.walk(key, alive).next()
    }

    /// Failover order for `key`: every live backend, starting at the
    /// owner and continuing clockwise, each backend once.
    pub fn walk<'a>(&'a self, key: &str, alive: &'a [bool]) -> impl Iterator<Item = usize> + 'a {
        let h = spread(fnv1a(key.as_bytes()));
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        let mut seen = vec![false; self.backends];
        (0..n).filter_map(move |off| {
            let (_, idx) = self.points[(start + off) % n];
            if alive.get(idx).copied().unwrap_or(false) && !seen[idx] {
                seen[idx] = true;
                Some(idx)
            } else {
                None
            }
        })
    }

    /// Share of the hash space each live backend owns, in permille
    /// (sums to ~1000). Ejected backends own zero; their arcs accrue
    /// to their clockwise successors.
    pub fn ownership_permille(&self, alive: &[bool]) -> Vec<u64> {
        let mut owned = vec![0u128; self.backends];
        let live: Vec<&(u64, usize)> = self
            .points
            .iter()
            .filter(|&&(_, idx)| alive.get(idx).copied().unwrap_or(false))
            .collect();
        if live.is_empty() {
            return vec![0; self.backends];
        }
        // Each point owns the arc from its predecessor (exclusive) to
        // itself (inclusive); the first point also owns the wrap.
        for (i, &&(p, idx)) in live.iter().enumerate() {
            let prev = if i == 0 {
                live[live.len() - 1].0
            } else {
                live[i - 1].0
            };
            let arc = p.wrapping_sub(prev);
            // A single live backend owns the whole circle (arc == 0
            // only in the one-point degenerate case).
            let arc = if live.len() == 1 { u64::MAX } else { arc };
            owned[idx] += arc as u128;
        }
        owned
            .into_iter()
            .map(|o| ((o * 1000) / (u64::MAX as u128)) as u64)
            .collect()
    }
}

/// The routing key of a parsed request: the key the backend caches its
/// reply under ([`Request::key`]), rendered as
/// `"{workload fingerprint}|{policy}|{config fingerprint}"`. `None` for
/// the verbs the router answers itself.
pub fn routing_key(req: &Request) -> Option<String> {
    req.key().map(|key| key.to_string())
}

/// Live state the router keeps per backend.
#[derive(Debug, Default)]
struct BackendState {
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    consecutive_successes: AtomicU32,
    forwarded: AtomicU64,
    failures: AtomicU64,
}

/// Router-wide counters.
#[derive(Debug, Default)]
struct RouterCounters {
    requests: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    exhausted: AtomicU64,
    local_errors: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    /// Backend connections dialed (pool misses and stale retries).
    connects: AtomicU64,
    /// Pooled connections found closed and retried on a new one.
    stale_retries: AtomicU64,
}

/// The routing core: ring, health table, counters. The reactor thread
/// updates it; [`Router::core`] lets other threads read it.
pub struct Core {
    config: RouterConfig,
    ring: Ring,
    backends: Vec<BackendState>,
    counters: RouterCounters,
    started: Instant,
}

impl Core {
    /// Builds the core; all backends start healthy (the first check
    /// cycle corrects optimism within one interval).
    pub fn new(config: RouterConfig) -> Arc<Core> {
        let ring = Ring::new(&config.backends, config.replicas);
        let backends = config
            .backends
            .iter()
            .map(|_| {
                let b = BackendState::default();
                b.healthy.store(true, Ordering::SeqCst);
                b
            })
            .collect();
        Arc::new(Core {
            ring,
            backends,
            counters: RouterCounters::default(),
            started: Instant::now(),
            config,
        })
    }

    fn alive(&self) -> Vec<bool> {
        self.backends
            .iter()
            .map(|b| b.healthy.load(Ordering::SeqCst))
            .collect()
    }

    /// Times the router ejected a backend (CI asserts this moves when
    /// a backend is killed mid-run).
    pub fn ejections(&self) -> u64 {
        self.counters.ejections.load(Ordering::Relaxed)
    }

    fn record_failure(&self, idx: usize) {
        let b = &self.backends[idx];
        b.failures.fetch_add(1, Ordering::Relaxed);
        b.consecutive_successes.store(0, Ordering::SeqCst);
        let fails = b.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if fails >= self.config.eject_after && b.healthy.swap(false, Ordering::SeqCst) {
            self.counters.ejections.fetch_add(1, Ordering::Relaxed);
            eprintln!("[router] ejected {}", self.config.backends[idx]);
        }
    }

    fn record_success(&self, idx: usize) {
        let b = &self.backends[idx];
        b.consecutive_failures.store(0, Ordering::SeqCst);
        let okays = b.consecutive_successes.fetch_add(1, Ordering::SeqCst) + 1;
        if !b.healthy.load(Ordering::SeqCst)
            && okays >= self.config.readmit_after
            && !b.healthy.swap(true, Ordering::SeqCst)
        {
            self.counters.readmissions.fetch_add(1, Ordering::Relaxed);
            eprintln!("[router] readmitted {}", self.config.backends[idx]);
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The router's `stats` reply: router counters, per-backend health,
/// ring ownership and each live backend's own `stats` object
/// (`stats[idx]`, `null` when it could not be fetched), cross-backend
/// totals, the connection pool's counters, and the router's own
/// transport.
fn stats_reply(
    core: &Core,
    alive: &[bool],
    stats: &[Json],
    transport: TransportSnapshot,
) -> String {
    let ownership = core.ring.ownership_permille(alive);
    let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let total = |path: [&str; 2]| -> u64 {
        stats
            .iter()
            .filter_map(|s| s.get(path[0])?.get(path[1])?.as_u64())
            .sum()
    };
    let c = &core.counters;
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("ok").bool(true);
        w.key("router").object(|w| {
            w.key("uptime_ms")
                .u64(core.started.elapsed().as_millis() as u64);
            w.key("requests").u64(counter(&c.requests));
            w.key("forwarded").u64(counter(&c.forwarded));
            w.key("failovers").u64(counter(&c.failovers));
            w.key("exhausted").u64(counter(&c.exhausted));
            w.key("local_errors").u64(counter(&c.local_errors));
            w.key("ejections").u64(counter(&c.ejections));
            w.key("readmissions").u64(counter(&c.readmissions));
            w.key("backends").array(|w| {
                for (idx, addr) in core.config.backends.iter().enumerate() {
                    let b = &core.backends[idx];
                    w.object(|w| {
                        w.key("addr").str(addr);
                        w.key("healthy").bool(alive[idx]);
                        w.key("ownership_permille").u64(ownership[idx]);
                        w.key("forwarded").u64(counter(&b.forwarded));
                        w.key("failures").u64(counter(&b.failures));
                        w.key("stats").value(&stats[idx]);
                    });
                }
            });
            w.key("totals").object(|w| {
                w.key("healthy")
                    .u64(alive.iter().filter(|&&a| a).count() as u64);
                w.key("completed").u64(total(["requests", "completed"]));
                w.key("cache_hits").u64(total(["cache", "hits"]));
            });
            w.key("pool").object(|w| {
                w.key("connects").u64(counter(&c.connects));
                w.key("stale_retries").u64(counter(&c.stale_retries));
            });
            transport.write_json(w.key("transport"));
        });
    });
    w.finish()
}

/// A backend's `stats` object, read from its `stats` reply (newline
/// included); `null` when the reply is not one.
fn backend_stats(reply: &[u8]) -> Json {
    std::str::from_utf8(reply)
        .ok()
        .and_then(|text| json::parse(text.trim_end()).ok())
        .and_then(|v| v.get("stats").cloned())
        .unwrap_or(Json::Null)
}

/// Offset of the first `\n` in `bytes`, found by the C library's
/// `memchr`: a relayed reply runs to hundreds of kilobytes, and a
/// portable byte loop scans it several times slower.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    extern "C" {
        fn memchr(s: *const c_void, c: c_int, n: usize) -> *mut c_void;
    }
    // C leaves `memchr` on an invalid pointer undefined even for zero
    // bytes, and an empty slice's pointer may dangle.
    if bytes.is_empty() {
        return None;
    }
    // SAFETY: `bytes` is a live, non-empty slice, so its pointer is valid
    // for reads of `bytes.len()` bytes; `memchr` reads at most that many
    // and returns null or a pointer into the same range.
    let hit = unsafe { memchr(bytes.as_ptr().cast(), c_int::from(b'\n'), bytes.len()) };
    (!hit.is_null()).then(|| hit as usize - bytes.as_ptr() as usize)
}

/// Indices into a `Vec`, reusing freed slots.
struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.items[i] = Some(item);
                i
            }
            None => {
                self.items.push(Some(item));
                self.items.len() - 1
            }
        }
    }

    fn remove(&mut self, i: usize) -> Option<T> {
        let item = self.items.get_mut(i)?.take();
        if item.is_some() {
            self.free.push(i);
        }
        item
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.items.get_mut(i)?.as_mut()
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, item)| Some((i, item.as_ref()?)))
    }
}

/// What an exchange's outcome feeds.
#[derive(Debug, Clone, Copy)]
enum Owner {
    /// An attempt of the forward job in this slot.
    Forward(usize),
    /// One backend's share of the stats job in this slot.
    Stats(usize),
    /// A health check.
    Check,
}

/// One request/reply round trip with one backend.
struct Exchange {
    owner: Owner,
    backend: usize,
    /// Matches this exchange to the connect its connector reports.
    serial: u64,
    /// The request line, newline included.
    request: Arc<Vec<u8>>,
    sent: usize,
    /// `None` while a connector dials.
    link: Option<TcpStream>,
    /// The link came from the idle pool.
    reused: bool,
    /// Reply bytes so far.
    reply: Vec<u8>,
    deadline: Instant,
}

/// How an exchange ended.
enum End {
    /// A whole reply line; the link may serve another request when
    /// the backend sent nothing after the newline and left it open.
    Replied { reusable: bool },
    /// The link failed (connect, write, read, or EOF before the
    /// newline).
    Broken,
    /// The deadline passed first.
    TimedOut,
}

impl Exchange {
    /// Moves bytes as far as the link allows: the rest of the request,
    /// then whatever reply has arrived. `None` while more is to come.
    fn advance(&mut self) -> Option<End> {
        let link = self.link.as_mut()?;
        while self.sent < self.request.len() {
            match link.write(&self.request[self.sent..]) {
                Ok(0) => return Some(End::Broken),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == IoKind::WouldBlock => return None,
                Err(e) if e.kind() == IoKind::Interrupted => {}
                Err(_) => return Some(End::Broken),
            }
        }
        let start = self.reply.len();
        let read = link.read_to_end(&mut self.reply);
        let open = matches!(&read, Err(e) if e.kind() == IoKind::WouldBlock);
        match find_newline(&self.reply[start..]) {
            Some(nl) => {
                let end = start + nl + 1;
                let reusable = open && end == self.reply.len();
                self.reply.truncate(end);
                Some(End::Replied { reusable })
            }
            None if open => None,
            None => Some(End::Broken),
        }
    }
}

/// The in-flight work behind a client's pending request.
enum Job {
    /// A routed simulate or verify line walking its failover order.
    Forward {
        request: Arc<Vec<u8>>,
        order: Vec<usize>,
        tried: usize,
        integrity: bool,
    },
    /// A `stats` fan-out waiting on the live backends.
    Stats {
        alive: Vec<bool>,
        stats: Vec<Json>,
        waiting: usize,
    },
}

struct JobSlot {
    job: Job,
    done: Option<Out>,
    /// The client left; free the slot when the job ends.
    abandoned: bool,
}

/// A connect result from a connector thread.
struct Dialed {
    backend: usize,
    slot: usize,
    serial: u64,
    link: io::Result<TcpStream>,
}

/// One backend's connector thread: dials on request, off the loop.
struct Connector {
    requests: Option<Sender<(usize, u64)>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Connector {
    fn spawn(
        backend: usize,
        addr: String,
        timeout: Duration,
        results: Sender<Dialed>,
        waker: Waker,
    ) -> io::Result<Connector> {
        let (tx, rx) = channel::<(usize, u64)>();
        let handle = thread::Builder::new()
            .name("router-connect".into())
            .spawn(move || {
                for (slot, serial) in rx {
                    let link = connect(&addr, timeout);
                    let dialed = Dialed {
                        backend,
                        slot,
                        serial,
                        link,
                    };
                    if results.send(dialed).is_err() {
                        return;
                    }
                    waker.wake();
                }
            })?;
        Ok(Connector {
            requests: Some(tx),
            handle: Some(handle),
        })
    }
}

/// Connects to `addr` within `timeout` and readies the link for the
/// loop (nonblocking, no Nagle delay).
fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(IoKind::NotFound, format!("{addr} resolved to nothing"));
    for target in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&target, timeout) {
            Ok(link) => {
                link.set_nodelay(true)?;
                link.set_nonblocking(true)?;
                return Ok(link);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// The router's [`Handler`]: parses each line once for its routing key,
/// then forwards it over a pooled backend connection.
struct RouterHandler {
    core: Arc<Core>,
    transport: Arc<TransportStats>,
    /// Idle keep-alive connections per backend, most recent last.
    idle: Vec<Vec<TcpStream>>,
    exchanges: Slab<Exchange>,
    jobs: Slab<JobSlot>,
    connectors: Vec<Connector>,
    dialed: Receiver<Dialed>,
    serial: u64,
    next_check: Instant,
    checking: Vec<bool>,
    ping: Arc<Vec<u8>>,
    stats_request: Arc<Vec<u8>>,
}

impl RouterHandler {
    fn new(
        core: Arc<Core>,
        transport: Arc<TransportStats>,
        waker: &Waker,
    ) -> io::Result<RouterHandler> {
        let (results, dialed) = channel();
        let n = core.config.backends.len();
        let connectors = core
            .config
            .backends
            .iter()
            .enumerate()
            .map(|(idx, addr)| {
                Connector::spawn(
                    idx,
                    addr.clone(),
                    core.config.io_timeout,
                    results.clone(),
                    waker.clone(),
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(RouterHandler {
            core,
            transport,
            idle: (0..n).map(|_| Vec::new()).collect(),
            exchanges: Slab::new(),
            jobs: Slab::new(),
            connectors,
            dialed,
            serial: 0,
            next_check: Instant::now(),
            checking: vec![false; n],
            ping: Arc::new(b"{\"verb\":\"ping\"}\n".to_vec()),
            stats_request: Arc::new(b"{\"verb\":\"stats\"}\n".to_vec()),
        })
    }

    fn start_forward(&mut self, line: String, key: &str, integrity: bool) -> Step<usize> {
        let mut request = line.into_bytes();
        request.push(b'\n');
        let order = self.core.ring.walk(key, &self.core.alive()).collect();
        let job = self.jobs.insert(JobSlot {
            job: Job::Forward {
                request: Arc::new(request),
                order,
                tried: 0,
                integrity,
            },
            done: None,
            abandoned: false,
        });
        self.advance_forward(job);
        self.reply_or_pending(job)
    }

    /// The next attempt of a forward: the next backend in its failover
    /// order, or the router's own `overloaded` once all were tried.
    fn advance_forward(&mut self, job: usize) {
        let Some(slot) = self.jobs.get_mut(job) else {
            return;
        };
        if slot.abandoned {
            self.jobs.remove(job);
            return;
        }
        let Job::Forward {
            request,
            order,
            tried,
            integrity,
        } = &mut slot.job
        else {
            unreachable!("forward exchanges belong to forward jobs");
        };
        let Some(&backend) = order.get(*tried) else {
            bump(&self.core.counters.exhausted);
            let e = ServeError::new(
                ErrorKind::Overloaded,
                format!("no backend could answer ({tried} tried); retry"),
            );
            slot.done = Some(Out::Line(protocol::error_line(&e, *integrity)));
            return;
        };
        if *tried > 0 {
            bump(&self.core.counters.failovers);
        }
        *tried += 1;
        let request = Arc::clone(request);
        self.start_exchange(Owner::Forward(job), backend, request);
    }

    fn start_stats(&mut self) -> Step<usize> {
        let alive = self.core.alive();
        let live: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
        let job = self.jobs.insert(JobSlot {
            job: Job::Stats {
                stats: vec![Json::Null; alive.len()],
                alive,
                waiting: live.len(),
            },
            done: None,
            abandoned: false,
        });
        if live.is_empty() {
            self.complete_stats(job);
        }
        for backend in live {
            let request = Arc::clone(&self.stats_request);
            self.start_exchange(Owner::Stats(job), backend, request);
        }
        self.reply_or_pending(job)
    }

    fn complete_stats(&mut self, job: usize) {
        let transport = self.transport.snapshot();
        let Some(slot) = self.jobs.get_mut(job) else {
            return;
        };
        if let Job::Stats { alive, stats, .. } = &slot.job {
            let reply = stats_reply(&self.core, alive, stats, transport);
            self.finish_job(job, Out::Line(reply));
        }
    }

    /// A job's reply now if it already finished, else its slot.
    fn reply_or_pending(&mut self, job: usize) -> Step<usize> {
        match self.jobs.get_mut(job).and_then(|s| s.done.take()) {
            Some(out) => {
                self.jobs.remove(job);
                Step::Reply(out)
            }
            None => Step::Pending(job),
        }
    }

    fn finish_job(&mut self, job: usize, out: Out) {
        if let Some(slot) = self.jobs.get_mut(job) {
            if slot.abandoned {
                self.jobs.remove(job);
            } else {
                slot.done = Some(out);
            }
        }
    }

    /// Starts one round trip: over an idle pooled connection when the
    /// backend has one, else over a new one from its connector.
    fn start_exchange(&mut self, owner: Owner, backend: usize, request: Arc<Vec<u8>>) {
        let link = self.idle[backend].pop();
        let slot = self.exchanges.insert(Exchange {
            owner,
            backend,
            serial: 0,
            request,
            sent: 0,
            reused: link.is_some(),
            link,
            reply: Vec::new(),
            deadline: Instant::now() + self.core.config.io_timeout,
        });
        if self.exchanges.get_mut(slot).is_some_and(|ex| ex.reused) {
            self.pump(slot);
        } else {
            self.dial(slot);
        }
    }

    fn dial(&mut self, slot: usize) {
        self.serial += 1;
        let serial = self.serial;
        let Some(ex) = self.exchanges.get_mut(slot) else {
            return;
        };
        ex.serial = serial;
        let queued = self.connectors[ex.backend]
            .requests
            .as_ref()
            .is_some_and(|tx| tx.send((slot, serial)).is_ok());
        bump(&self.core.counters.connects);
        if !queued {
            self.end_exchange(slot, End::Broken);
        }
    }

    fn on_dialed(&mut self, d: Dialed) {
        match self.exchanges.get_mut(d.slot) {
            Some(ex) if ex.serial == d.serial && ex.link.is_none() => match d.link {
                Ok(link) => {
                    ex.link = Some(link);
                    self.pump(d.slot);
                }
                Err(_) => self.end_exchange(d.slot, End::Broken),
            },
            // Its exchange gave up first: keep a good link for the next.
            _ => {
                if let Ok(link) = d.link {
                    self.release(d.backend, link);
                }
            }
        }
    }

    fn pump(&mut self, slot: usize) {
        if let Some(end) = self.exchanges.get_mut(slot).and_then(Exchange::advance) {
            self.end_exchange(slot, end);
        }
    }

    fn release(&mut self, backend: usize, link: TcpStream) {
        if self.idle[backend].len() < IDLE_MAX {
            self.idle[backend].push(link);
        }
    }

    fn end_exchange(&mut self, slot: usize, end: End) {
        let Some(mut ex) = self.exchanges.remove(slot) else {
            return;
        };
        let outcome = match end {
            End::Replied { reusable } => {
                if let (true, Some(link)) = (reusable, ex.link.take()) {
                    self.release(ex.backend, link);
                }
                Ok(std::mem::take(&mut ex.reply))
            }
            // The backend closed this pooled connection (a restart, a
            // drain) and answered nothing on it. Requests are
            // deterministic, so one retry on a new connection is safe;
            // it is not counted against the backend.
            End::Broken if ex.reused && ex.reply.is_empty() => {
                bump(&self.core.counters.stale_retries);
                ex.link = None;
                ex.reused = false;
                ex.sent = 0;
                let slot = self.exchanges.insert(ex);
                self.dial(slot);
                return;
            }
            End::Broken | End::TimedOut => Err(()),
        };
        self.settle(ex.owner, ex.backend, outcome);
    }

    /// Hands an exchange's outcome to its owner.
    fn settle(&mut self, owner: Owner, backend: usize, outcome: Result<Vec<u8>, ()>) {
        match owner {
            Owner::Check => {
                self.checking[backend] = false;
                match outcome {
                    Ok(reply) if reply.starts_with(b"{\"ok\":true") => {
                        self.core.record_success(backend)
                    }
                    _ => self.core.record_failure(backend),
                }
            }
            Owner::Stats(job) => {
                let stats = outcome.map_or(Json::Null, |r| backend_stats(&r));
                let Some(slot) = self.jobs.get_mut(job) else {
                    return;
                };
                if let Job::Stats {
                    stats: all,
                    waiting,
                    ..
                } = &mut slot.job
                {
                    all[backend] = stats;
                    *waiting -= 1;
                    if *waiting == 0 {
                        self.complete_stats(job);
                    }
                }
            }
            Owner::Forward(job) => match outcome {
                // Shedding or draining is not sickness: try the next
                // shard without marking this one down.
                Ok(reply) if protocol::is_retryable_reply(&reply[..reply.len() - 1]) => {
                    self.advance_forward(job)
                }
                Ok(reply) => {
                    self.core.record_success(backend);
                    bump(&self.core.counters.forwarded);
                    bump(&self.core.backends[backend].forwarded);
                    self.finish_job(job, Out::Framed(reply));
                }
                Err(()) => {
                    self.core.record_failure(backend);
                    self.advance_forward(job);
                }
            },
        }
    }

    fn start_checks(&mut self) {
        for backend in 0..self.checking.len() {
            if !self.checking[backend] {
                self.checking[backend] = true;
                let ping = Arc::clone(&self.ping);
                self.start_exchange(Owner::Check, backend, ping);
            }
        }
    }
}

/// True while an idle pooled connection is still usable: it has nothing
/// to say, so any event is the backend hanging up (or breaking
/// protocol).
fn idle_link_alive(link: &mut TcpStream) -> bool {
    match link.read(&mut [0u8; 1]) {
        Err(e) => matches!(e.kind(), IoKind::WouldBlock | IoKind::Interrupted),
        // EOF, or bytes no request asked for.
        Ok(0 | 1..) => false,
    }
}

/// Stops and joins the connector threads once the loop has drained
/// (each finishes the dial it is in, bounded by the I/O timeout).
impl Drop for RouterHandler {
    fn drop(&mut self) {
        for c in &mut self.connectors {
            c.requests = None;
        }
        for c in &mut self.connectors {
            if let Some(h) = c.handle.take() {
                let _ = h.join();
            }
        }
    }
}

impl Handler for RouterHandler {
    /// The job slot holding the reply.
    type Pending = usize;

    fn max_request_line(&self) -> usize {
        self.core.config.max_request_line
    }

    fn write_timeout(&self) -> Duration {
        self.core.config.io_timeout
    }

    fn execute(&mut self, line: String) -> Step<usize> {
        let parsed = protocol::parse_request(&line, self.core.config.default_max_cycles);
        // `shutdown` drains the *router* (backends keep serving other
        // routers); it is not a routed request.
        if matches!(parsed, Ok(Request::Shutdown)) {
            return Step::Shutdown;
        }
        bump(&self.core.counters.requests);
        let integrity = protocol::wants_integrity(&line, parsed.as_ref().ok());
        match parsed {
            Ok(Request::Ping) => Step::Reply(Out::Line("{\"ok\":true,\"pong\":true}".to_string())),
            Ok(Request::Stats) => self.start_stats(),
            Ok(req) => {
                let key = routing_key(&req).expect("simulate/verify requests always have a key");
                self.start_forward(line, &key, integrity)
            }
            Err(e) => {
                bump(&self.core.counters.local_errors);
                Step::Reply(Out::Line(protocol::error_line(&e, integrity)))
            }
        }
    }

    fn poll(&mut self, job: &mut usize, _now: Instant) -> Option<Out> {
        let out = self.jobs.get_mut(*job)?.done.take()?;
        self.jobs.remove(*job);
        Some(out)
    }

    fn abandon(&mut self, job: usize) {
        if let Some(slot) = self.jobs.get_mut(job) {
            if slot.done.is_some() {
                self.jobs.remove(job);
            } else {
                slot.abandoned = true;
            }
        }
    }

    fn sockets(&self, register: &mut dyn FnMut(&TcpStream, bool, bool)) {
        for (_, ex) in self.exchanges.iter() {
            if let Some(link) = &ex.link {
                let writing = ex.sent < ex.request.len();
                register(link, !writing, writing);
            }
        }
        for link in self.idle.iter().flatten() {
            register(link, true, false);
        }
    }

    fn drive(&mut self, ready: &[bool], now: Instant) {
        // Map the flags onto the registration order before anything
        // moves.
        let mut flags = ready.iter().copied();
        let ready_busy: Vec<usize> = self
            .exchanges
            .iter()
            .filter(|(_, ex)| ex.link.is_some())
            .filter(|_| flags.next().unwrap_or(true))
            .map(|(slot, _)| slot)
            .collect();
        let mut ready_idle: Vec<(usize, usize)> = Vec::new();
        for (backend, links) in self.idle.iter().enumerate() {
            for k in 0..links.len() {
                if flags.next().unwrap_or(true) {
                    ready_idle.push((backend, k));
                }
            }
        }
        // Highest index first, so removals keep the rest in place.
        for &(backend, k) in ready_idle.iter().rev() {
            if !idle_link_alive(&mut self.idle[backend][k]) {
                self.idle[backend].remove(k);
            }
        }

        while let Ok(d) = self.dialed.try_recv() {
            self.on_dialed(d);
        }
        for slot in ready_busy {
            self.pump(slot);
        }
        let expired: Vec<usize> = self
            .exchanges
            .iter()
            .filter(|(_, ex)| now >= ex.deadline)
            .map(|(slot, _)| slot)
            .collect();
        for slot in expired {
            self.end_exchange(slot, End::TimedOut);
        }
        if now >= self.next_check {
            self.next_check = now + self.core.config.check_interval;
            self.start_checks();
        }
    }

    fn deadline(&self) -> Option<Instant> {
        self.exchanges
            .iter()
            .map(|(_, ex)| ex.deadline)
            .chain([self.next_check])
            .min()
    }
}

/// A running router: the routing core on its own reactor thread.
pub struct Router {
    core: Arc<Core>,
    reactor: ReactorThread,
}

impl Router {
    /// Binds `addr` and starts the reactor (and one connector thread
    /// per backend).
    pub fn spawn(addr: &str, config: RouterConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                IoKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let core = Core::new(config);
        let transport = Arc::new(TransportStats::default());
        let reactor =
            ReactorThread::spawn(addr, "router-reactor", Arc::clone(&transport), |waker| {
                RouterHandler::new(Arc::clone(&core), transport, waker)
            })?;
        Ok(Router { core, reactor })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// The routing core (tests inspect ejection counters directly).
    pub fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// True once a drain was requested.
    pub fn draining(&self) -> bool {
        self.reactor.draining()
    }

    /// Graceful drain: stop accepting, let connections deliver their
    /// queued and in-flight requests, then stop. Idempotent.
    pub fn shutdown(&mut self) {
        self.reactor.stop();
    }

    /// Blocks until a drain is requested (SIGTERM/SIGINT or the
    /// `shutdown` verb), then drains. The `router` binary parks here.
    pub fn wait_for_shutdown(&mut self) {
        self.reactor.wait_for_drain(|| false);
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{}:7199", i + 1)).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        // Shaped like real routing keys: fingerprint|policy|config.
        (0..n)
            .map(|i| {
                let i = i as u64;
                format!(
                    "prog{:04x}|postdoms|cfg{:02x}",
                    i * 2654435761 % 65536,
                    i % 7
                )
            })
            .collect()
    }

    /// Key→shard share stays bounded across 2, 3, and 8 backends: no
    /// backend owns more than 2× its fair share, none less than a
    /// third of it.
    #[test]
    fn distribution_is_balanced() {
        for n in [2usize, 3, 8] {
            let backends = addrs(n);
            let ring = Ring::new(&backends, 100);
            let alive = vec![true; n];
            let mut counts = vec![0u64; n];
            let keys = keys(4000);
            for k in &keys {
                counts[ring.shard_of(k, &alive).unwrap()] += 1;
            }
            let fair = keys.len() as u64 / n as u64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    c <= fair * 2 && c >= fair / 3,
                    "{n} backends: backend {i} holds {c} of {} keys (fair {fair})",
                    keys.len()
                );
            }
        }
    }

    /// Ejecting one backend moves only that backend's keys; everything
    /// owned by a survivor keeps its shard.
    #[test]
    fn ejection_remaps_minimally() {
        let backends = addrs(5);
        let ring = Ring::new(&backends, 100);
        let all = vec![true; 5];
        let mut without2 = all.clone();
        without2[2] = false;
        let keys = keys(3000);
        let mut moved_from_survivor = 0;
        let mut reassigned = 0;
        for k in &keys {
            let before = ring.shard_of(k, &all).unwrap();
            let after = ring.shard_of(k, &without2).unwrap();
            if before == 2 {
                reassigned += 1;
                assert_ne!(after, 2, "ejected backend must not receive keys");
            } else if before != after {
                moved_from_survivor += 1;
            }
        }
        assert_eq!(
            moved_from_survivor, 0,
            "keys owned by live backends must not move on ejection"
        );
        assert!(reassigned > 0, "the ejected backend owned something");
        // Readmission restores the exact original map.
        for k in &keys {
            assert_eq!(
                ring.shard_of(k, &all),
                Ring::new(&backends, 100).shard_of(k, &all)
            );
        }
    }

    /// The key→shard map is a pure function of the backend list: a
    /// rebuilt ring (a restarted router) assigns every key the same
    /// shard, and an independently built ring from the same list too.
    #[test]
    fn assignment_is_deterministic_across_restarts() {
        let backends = addrs(4);
        let a = Ring::new(&backends, 100);
        let b = Ring::new(&backends, 100);
        let alive = vec![true; 4];
        for k in keys(2000) {
            assert_eq!(a.shard_of(&k, &alive), b.shard_of(&k, &alive), "key {k}");
        }
    }

    /// The failover walk visits every live backend exactly once,
    /// starting at the owner.
    #[test]
    fn walk_covers_all_live_backends_once() {
        let backends = addrs(4);
        let ring = Ring::new(&backends, 50);
        let mut alive = vec![true; 4];
        alive[1] = false;
        let order: Vec<usize> = ring.walk("somekey|postdoms|cfg", &alive).collect();
        assert_eq!(order.len(), 3, "every live backend appears");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "no backend repeats");
        assert!(!order.contains(&1), "dead backend is skipped");
        assert_eq!(
            order[0],
            ring.shard_of("somekey|postdoms|cfg", &alive).unwrap(),
            "walk starts at the owner"
        );
    }

    /// Ownership shares sum to the whole circle and track liveness.
    #[test]
    fn ownership_shares_are_sane() {
        let backends = addrs(3);
        let ring = Ring::new(&backends, 100);
        let shares = ring.ownership_permille(&[true, true, true]);
        let total: u64 = shares.iter().sum();
        assert!(
            (995..=1001).contains(&total),
            "shares sum to ~1000: {shares:?}"
        );
        for (i, &s) in shares.iter().enumerate() {
            assert!(s > 100, "backend {i} owns a visible share: {shares:?}");
        }
        let one_down = ring.ownership_permille(&[true, false, true]);
        assert_eq!(one_down[1], 0, "ejected backend owns nothing");
        let total: u64 = one_down.iter().sum();
        assert!((995..=1001).contains(&total), "survivors absorb the arc");
    }

    /// Router-local errors honor the request's integrity flag.
    #[test]
    fn local_errors_carry_the_trailer_when_asked() {
        let e = ServeError::new(ErrorKind::Overloaded, "no backend");
        let plain = protocol::error_line(&e, false);
        assert!(!plain.contains('\t'));
        let trailered = protocol::error_line(&e, true);
        let (body, ok) = protocol::check_integrity_trailer(&trailered);
        assert_eq!(ok, Some(true));
        assert_eq!(body, plain);
    }

    /// The router's `stats` nests each backend's own `stats` object —
    /// read from a real service reply — whole, reports `null` for a
    /// backend it could not ask, and sums the totals from the nested
    /// objects.
    #[test]
    fn stats_reply_nests_backend_stats_and_sums_totals() {
        let svc = crate::service::Service::new(crate::service::ServiceConfig::default());
        let reply = format!("{}\n", svc.stats().to_json());
        let nested = backend_stats(reply.as_bytes());
        assert!(nested.get("queue").is_some(), "{nested}");
        assert_eq!(backend_stats(b"{\"ok\":false}\n"), Json::Null);
        assert_eq!(backend_stats(b"not json\n"), Json::Null);

        let core = Core::new(RouterConfig::new(addrs(2)));
        let hits = json::parse("{\"cache\":{\"hits\":5},\"requests\":{\"completed\":7}}").unwrap();
        let text = stats_reply(
            &core,
            &[true, false],
            &[nested.clone(), Json::Null],
            TransportSnapshot::default(),
        );
        let v = json::parse(&text).expect("router stats parse");
        let router = v.get("router").unwrap();
        let backends = router.get("backends").and_then(Json::as_arr).unwrap();
        assert_eq!(backends[0].get("stats"), Some(&nested));
        assert_eq!(backends[1].get("stats"), Some(&Json::Null));
        assert_eq!(
            backends[1].get("healthy").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            backends[1].get("ownership_permille").and_then(Json::as_u64),
            Some(0)
        );
        for field in ["forwarded", "failovers", "ejections", "exhausted"] {
            assert_eq!(router.get(field).and_then(Json::as_u64), Some(0), "{field}");
        }
        assert!(router
            .get("transport")
            .and_then(|t| t.get("accepted"))
            .is_some());

        let summed = stats_reply(
            &core,
            &[true, true],
            &[hits.clone(), hits],
            TransportSnapshot::default(),
        );
        let totals = json::parse(&summed).unwrap();
        let totals = totals.get("router").and_then(|r| r.get("totals")).unwrap();
        assert_eq!(totals.get("healthy").and_then(Json::as_u64), Some(2));
        assert_eq!(totals.get("cache_hits").and_then(Json::as_u64), Some(10));
        assert_eq!(totals.get("completed").and_then(Json::as_u64), Some(14));
    }

    /// Simulate and verify lines route by the strings they always have,
    /// so ring placement does not move: `{fp}|{policy}|{config}` and
    /// `{fp}|verify|`, for bundled names and uploads alike.
    #[test]
    fn routing_keys_are_pinned() {
        const CONFIG: &str = "ftc2 mt8 rob512 sch64 dv128 fu8 mp8 dec4 fq32 gi13 gh8 ras32 \
                              l1i8192/2/128 l1d16384/4/64 l2524288/8/128 lat1/10/100 mul3 \
                              sd4-320 drd6 soh3 pftrue/4 mem:oracle reg:oracle hrs4 ssi12 sq8 \
                              anyfalse rrfalse/16 mc1000000000 lw500000";
        let cases = [
            (
                r#"{"workload":"gzip"}"#,
                format!("1a3544126aadf587|postdoms|w8 {CONFIG}"),
            ),
            (
                r#"{"verb":"simulate","workload":"twolf","policy":"loop","config":{"max_tasks":4}}"#,
                format!("fe8402a61d391f62|loop|w8 {}", CONFIG.replace("mt8", "mt4")),
            ),
            (
                r#"{"program":"fn main {\n    halt\n}\n","policy":"superscalar"}"#,
                format!(
                    "e3b1f9862f2535e1|baseline|w8 {}",
                    CONFIG.replace("ftc2 mt8", "ftc1 mt1")
                ),
            ),
            (
                r#"{"verb":"verify","workload":"gzip"}"#,
                "1a3544126aadf587|verify|".to_string(),
            ),
            (
                r#"{"verb":"verify","program":"fn main {\n    halt\n}\n"}"#,
                "e3b1f9862f2535e1|verify|".to_string(),
            ),
        ];
        for (line, key) in cases {
            let req = protocol::parse_request(line, 1_000_000_000).unwrap();
            assert_eq!(routing_key(&req), Some(key), "{line}");
        }
        for verb in ["ping", "stats", "shutdown"] {
            let req = protocol::parse_request(verb, 1_000_000_000).unwrap();
            assert_eq!(routing_key(&req), None, "{verb}");
        }
    }

    #[test]
    fn newline_scan_finds_the_first_newline_at_any_offset() {
        for len in [0usize, 1, 63, 64, 65, 200, 4096] {
            let mut bytes = vec![b'x'; len];
            assert_eq!(find_newline(&bytes), None, "len {len}");
            for at in (0..len).step_by(7).chain(len.checked_sub(1)) {
                bytes[at] = b'\n';
                assert_eq!(find_newline(&bytes), Some(at), "len {len} at {at}");
                if at + 3 < len {
                    bytes[at + 3] = b'\n';
                    assert_eq!(find_newline(&bytes), Some(at), "first of two");
                    bytes[at + 3] = b'x';
                }
                bytes[at] = b'x';
            }
        }
    }
}
