//! The readiness-based connection core: one thread, `poll(2)`, and a
//! per-connection state machine, shared by `serve` and `router`.
//!
//! The original transports spawned one thread per connection, which made
//! connection count the scaling ceiling: N open connections cost N
//! stacks plus N wakeups per read-timeout tick, and the process thread
//! limit becomes the shed point long before the work does. This module
//! replaces that with a single reactor thread driving every connection
//! through nonblocking sockets. What a request line *means* is the
//! [`Handler`]'s business: serve's handler runs it against the
//! [`Service`](crate::service::Service), the router's forwards it to a
//! backend. The loop owns everything else:
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!              │                 reactor loop               │
//!              │  poll(listener, waker, conns…, handler…)   │
//!              │    ├─ accept  → new Conn (nonblocking)     │
//!              │    ├─ handler → drive its own sockets      │
//!              │    ├─ readable→ read → split lines → inbox │
//!              │    ├─ pending → Handler::poll → queue reply│
//!              │    ├─ inbox   → Handler::execute           │
//!              │    │     reply now, or in flight (pending) │
//!              │    └─ writable→ flush out (partial-write   │
//!              │                 aware, stall watchdog)     │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! # The per-connection state machine
//!
//! Each connection (`Conn`) moves bytes through four stages. **Read**: nonblocking
//! reads accumulate into a line buffer, bounded by the handler's
//! `max_request_line` with typed-reject-then-discard behavior (an
//! oversized line costs one `bad_request`, never the connection).
//! **Execute**: complete lines go to [`Handler::execute`], which answers
//! at once or returns in-flight state, so the loop never blocks on the
//! work. **Pending**: at most one in-flight request per connection —
//! pipelined lines wait in the connection's inbox so replies stay in
//! request order. **Write**: a queue of output chunks flushed as far as
//! the socket allows, several chunks to one `writev`; a cached response
//! is written straight from the shared `Arc<str>` bytes, in the same
//! write as its newline, and a relayed reply from the buffer it was
//! read into, with no copy.
//!
//! # Why the loop can sleep
//!
//! `poll(2)` wakes the loop for socket readiness — the clients' and the
//! sockets the handler registers — but some completions happen on other
//! threads (serve's workers, the router's connectors). Those write one
//! byte into a self-pipe (a `UnixStream` pair) registered with `poll`
//! through a [`Waker`], so a finished cell or connect wakes the reactor
//! immediately — the loop needs no short tick to deliver replies, and an
//! idle server parks in the kernel.
//!
//! # Bounds
//!
//! A connection may hold at most `PIPELINE_MAX` parsed-but-unexecuted
//! lines and `OUT_HIGH_WATER` bytes of unflushed output; beyond
//! either, the reactor stops reading from (or executing for) that
//! connection, which backpressures through TCP. A peer that stops
//! reading forfeits the connection after the handler's `write_timeout`
//! without write progress — one stuck reader cannot wedge the drain.

use crate::json::Writer;
use crate::protocol;
use crate::signal;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Most parsed lines a connection may hold waiting for execution; past
/// this the reactor stops reading the socket (TCP backpressure).
const PIPELINE_MAX: usize = 32;

/// Most unflushed output bytes per connection before the reactor stops
/// executing new requests for it.
const OUT_HIGH_WATER: usize = 4 << 20;

/// Poll timeout when nothing else bounds the sleep: the cadence at
/// which the loop re-checks the drain flag.
const IDLE_TICK: Duration = Duration::from_millis(25);

/// Most queued output chunks gathered into one `writev`.
const WRITE_CHUNKS_MAX: usize = 16;

/// How often [`ReactorThread::wait_for_drain`] re-checks for a drain.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

/// What one server does with request lines. The reactor calls every
/// method on its own thread, so an implementation needs no locking for
/// state only the loop touches.
pub trait Handler {
    /// A request in flight for one connection (at most one at a time).
    type Pending;

    /// Longest accepted request line in bytes.
    fn max_request_line(&self) -> usize;

    /// How long a connection's queued output may make no progress
    /// before the connection is dropped (the slow-reader watchdog).
    fn write_timeout(&self) -> Duration;

    /// Handles one request line: valid UTF-8, not blank, no newline.
    fn execute(&mut self, line: String) -> Step<Self::Pending>;

    /// Checks an in-flight request; `Some` once its reply is ready.
    fn poll(&mut self, pending: &mut Self::Pending, now: Instant) -> Option<Out>;

    /// When `pending` must be polled even if nothing wakes the loop.
    fn pending_deadline(&self, _pending: &Self::Pending) -> Option<Instant> {
        None
    }

    /// The connection holding `pending` went away before its reply.
    fn abandon(&mut self, _pending: Self::Pending) {}

    /// Registers the sockets the handler owns, with the interest
    /// `(read, write)` of each. Registration order is the order of the
    /// flags [`Handler::drive`] receives next.
    fn sockets(&self, _register: &mut dyn FnMut(&TcpStream, bool, bool)) {}

    /// Advances the handler's own I/O and timers after a wakeup.
    /// `ready[i]` is true when the i-th socket of the last
    /// [`Handler::sockets`] call has an event; the loop does not call
    /// the handler in between, so the list is still current.
    fn drive(&mut self, _ready: &[bool], _now: Instant) {}

    /// The handler's next timer (a forward deadline, a health check).
    fn deadline(&self) -> Option<Instant> {
        None
    }
}

/// What [`Handler::execute`] made of a line.
pub enum Step<P> {
    /// The reply is ready now.
    Reply(Out),
    /// The reply comes later, through [`Handler::poll`].
    Pending(P),
    /// The `shutdown` verb: acknowledge, then drain this reactor.
    Shutdown,
}

/// One reply line for a client.
pub enum Out {
    /// A rendered line, without its newline.
    Line(String),
    /// A shared (cached) line, without its newline, written without a
    /// copy.
    Shared(Arc<str>),
    /// Bytes that already end in their newline (a relayed reply).
    Framed(Vec<u8>),
}

/// Counters the reactor keeps about itself, surfaced as the `transport`
/// object of the `stats` verb.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Currently open connections (gauge).
    pub open_connections: AtomicU64,
    /// Connections accepted since boot.
    pub accepted: AtomicU64,
    /// Times the poll loop woke (readiness, waker, or tick).
    pub reactor_wakeups: AtomicU64,
    /// Nonblocking reads that found the socket dry (`EWOULDBLOCK`).
    pub read_stalls: AtomicU64,
}

/// Point-in-time copy of [`TransportStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Currently open connections.
    pub open_connections: u64,
    /// Connections accepted since boot.
    pub accepted: u64,
    /// Poll-loop wakeups.
    pub reactor_wakeups: u64,
    /// Reads that returned would-block.
    pub read_stalls: u64,
}

impl TransportStats {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            open_connections: self.open_connections.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            read_stalls: self.read_stalls.load(Ordering::Relaxed),
        }
    }
}

impl TransportSnapshot {
    /// Writes the `transport` object of a `stats` reply.
    pub fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("open_connections").u64(self.open_connections);
            w.key("accepted").u64(self.accepted);
            w.key("reactor_wakeups").u64(self.reactor_wakeups);
            w.key("read_stalls").u64(self.read_stalls);
        });
    }
}

/// One chunk of queued output. Cached responses are written straight
/// from the shared `Arc<str>` (zero-copy); everything else is owned.
enum Chunk {
    Shared(Arc<str>),
    Owned(Vec<u8>),
    Newline,
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Shared(s) => s.as_bytes(),
            Chunk::Owned(v) => v,
            Chunk::Newline => b"\n",
        }
    }
}

/// Per-connection state machine.
struct Conn<P> {
    stream: TcpStream,
    /// Partial request line under accumulation.
    buf: Vec<u8>,
    /// Discarding the tail of an already-rejected oversized line.
    skipping: bool,
    /// Complete lines parsed off the socket, waiting for execution
    /// (kept in arrival order — replies must match request order).
    inbox: VecDeque<Vec<u8>>,
    /// Queued output chunks; `out_pos` indexes into the front chunk.
    out: VecDeque<Chunk>,
    out_pos: usize,
    out_bytes: usize,
    /// The in-flight request, if any (at most one per connection).
    pending: Option<P>,
    /// When the current write stall began (output queued, socket full).
    write_stall_since: Option<Instant>,
    /// Peer half-closed its read side (EOF seen).
    read_closed: bool,
    /// Close once the output queue drains (`shutdown` verb ack).
    close_after_flush: bool,
}

impl<P> Conn<P> {
    fn new(stream: TcpStream) -> Conn<P> {
        Conn {
            stream,
            buf: Vec::new(),
            skipping: false,
            inbox: VecDeque::new(),
            out: VecDeque::new(),
            out_pos: 0,
            out_bytes: 0,
            pending: None,
            write_stall_since: None,
            read_closed: false,
            close_after_flush: false,
        }
    }

    fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.close_after_flush
            && self.inbox.len() < PIPELINE_MAX
            && self.out_bytes < OUT_HIGH_WATER
    }

    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// True while the connection still owes someone bytes: queued
    /// lines, an in-flight request, or unflushed output. A drain waits
    /// for busy connections and hangs up on the rest (a partial line in
    /// `buf` does not count).
    fn busy(&self) -> bool {
        !self.inbox.is_empty() || !self.out.is_empty() || self.pending.is_some()
    }

    /// True when the connection has delivered everything it owes.
    fn finished(&self) -> bool {
        (self.close_after_flush && self.out.is_empty())
            || (self.read_closed && !self.busy() && self.buf.is_empty())
    }

    /// Drops `n` written bytes from the front of the output queue:
    /// every chunk they cover pops, and `out_pos` lands inside the first
    /// chunk they do not finish.
    fn consume(&mut self, mut n: usize) {
        self.out_bytes -= n;
        while let Some(chunk) = self.out.front() {
            let left = chunk.bytes().len() - self.out_pos;
            if n < left {
                self.out_pos += n;
                return;
            }
            n -= left;
            self.out.pop_front();
            self.out_pos = 0;
        }
    }

    fn push(&mut self, out: Out) {
        match out {
            Out::Line(line) => {
                let mut bytes = line.into_bytes();
                bytes.push(b'\n');
                self.out_bytes += bytes.len();
                self.out.push_back(Chunk::Owned(bytes));
            }
            Out::Shared(line) => {
                self.out_bytes += line.len() + 1;
                self.out.push_back(Chunk::Shared(line));
                self.out.push_back(Chunk::Newline);
            }
            Out::Framed(bytes) => {
                self.out_bytes += bytes.len();
                self.out.push_back(Chunk::Owned(bytes));
            }
        }
    }
}

/// The handle the reactor leaves behind for wakeups: writing one byte
/// interrupts a parked `poll`. Cheap to clone; safe to call from any
/// thread (serve's workers call it as each cell is answered, the router's
/// connectors on a finished connect, the server wrappers to begin a
/// drain).
#[cfg(unix)]
#[derive(Clone)]
pub struct Waker(Arc<std::os::unix::net::UnixStream>);

#[cfg(unix)]
impl Waker {
    /// A waker and the end of its pipe the loop polls.
    fn pair() -> io::Result<(Waker, std::os::unix::net::UnixStream)> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker(Arc::new(tx)), rx))
    }

    /// Wakes the reactor. Best-effort: a full pipe already guarantees a
    /// pending wakeup, so the would-block case needs no handling.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// No-op waker for the portable fallback loop (which ticks on a short
/// sleep instead of parking in `poll`).
#[cfg(not(unix))]
#[derive(Clone)]
pub struct Waker;

#[cfg(not(unix))]
impl Waker {
    /// No-op: the fallback loop wakes itself.
    pub fn wake(&self) {}
}

/// A reactor running its loop on a thread of its own, as `serve` and
/// `router` hold it: the bound address, the stop flag, the waker and the
/// join handle. Dropping it drains the loop.
pub struct ReactorThread {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    handle: Option<thread::JoinHandle<()>>,
}

impl ReactorThread {
    /// Binds `addr`, builds the handler with the new loop's waker (its
    /// workers or connectors wake the loop through it), and runs the loop
    /// on a thread named `name` until a drain completes: stop accepting,
    /// let every connection with queued or in-flight work deliver it,
    /// hang up on the idle rest, then drop the handler.
    pub fn spawn<H: Handler + Send + 'static>(
        addr: &str,
        name: &str,
        stats: Arc<TransportStats>,
        handler: impl FnOnce(&Waker) -> io::Result<H>,
    ) -> io::Result<ReactorThread> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        #[cfg(unix)]
        let (waker, waker_rx) = Waker::pair()?;
        #[cfg(not(unix))]
        let waker = Waker;
        let handler = handler(&waker)?;
        let loop_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                Loop {
                    listener,
                    stats,
                    stop: loop_stop,
                    #[cfg(unix)]
                    waker_rx,
                    handler,
                    conns: Vec::new(),
                }
                .run()
            })?;
        Ok(ReactorThread {
            addr,
            stop,
            waker,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain was requested: [`stop`](ReactorThread::stop),
    /// the `shutdown` verb, or SIGTERM/SIGINT.
    pub fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested()
    }

    /// Drains the loop — stop accepting, let connections deliver their
    /// queued and in-flight requests, hang up on the rest — and joins
    /// its thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Blocks until a drain is requested, or until `also` holds.
    pub fn wait_for_drain(&self, also: impl Fn() -> bool) {
        while !self.draining() && !also() {
            thread::sleep(SHUTDOWN_POLL);
        }
    }
}

impl Drop for ReactorThread {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One running loop: the listener, the drain flag, the waker's pipe,
/// the handler, and every connection.
struct Loop<H: Handler> {
    listener: TcpListener,
    stats: Arc<TransportStats>,
    /// Tripping it (then waking the loop) begins a drain.
    stop: Arc<AtomicBool>,
    #[cfg(unix)]
    waker_rx: std::os::unix::net::UnixStream,
    handler: H,
    conns: Vec<Conn<H::Pending>>,
}

impl<H: Handler> Loop<H> {
    fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested()
    }

    fn run(mut self) {
        loop {
            let draining = self.draining();
            if draining {
                let before = self.conns.len();
                self.conns.retain(Conn::busy);
                let dropped = (before - self.conns.len()) as u64;
                self.stats
                    .open_connections
                    .fetch_sub(dropped, Ordering::Relaxed);
                if self.conns.is_empty() {
                    return;
                }
            }

            let (conn_ready, handler_ready) = self.wait_for_readiness(draining);
            self.stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);

            if !draining {
                self.accept_new();
            }
            // Handler I/O first, so work it completed is delivered in
            // this same pass.
            self.handler.drive(&handler_ready, Instant::now());

            // Drive every connection through its stages. Order matters
            // only within a connection, so index order is fine.
            let mut closed: Vec<usize> = Vec::new();
            for i in 0..self.conns.len() {
                // Connections accepted this very pass have no readiness
                // entry yet; probe them optimistically (a dry read is
                // one cheap would-block).
                let readable = conn_ready.get(i).copied().unwrap_or(true);
                if self.step_conn(i, readable).is_err() || self.conns[i].finished() {
                    closed.push(i);
                }
            }
            for &i in closed.iter().rev() {
                let conn = self.conns.swap_remove(i);
                if let Some(p) = conn.pending {
                    self.handler.abandon(p);
                }
                self.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Parks in `poll(2)` until a socket is ready, the waker fires, or
    /// the nearest timer is due. Registers the listener (accepts), the
    /// waker pipe, every connection, and the handler's own sockets.
    /// Returns one readable flag per connection (index-aligned with
    /// `conns`) and one ready flag per handler socket.
    #[cfg(unix)]
    fn wait_for_readiness(&mut self, draining: bool) -> (Vec<bool>, Vec<bool>) {
        use std::os::unix::io::AsRawFd;

        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(self.conns.len() + 2);
        if !draining {
            fds.push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
        }
        fds.push(sys::PollFd::new(self.waker_rx.as_raw_fd(), sys::POLLIN));
        let base = fds.len();
        for c in &self.conns {
            // Register even with no interest: errors and hangups
            // surface in `revents` regardless of `events`.
            fds.push(sys::PollFd::new(
                c.stream.as_raw_fd(),
                sys::interest(c.wants_read(), c.wants_write()),
            ));
        }
        let handler_base = fds.len();
        self.handler.sockets(&mut |s, read, write| {
            fds.push(sys::PollFd::new(s.as_raw_fd(), sys::interest(read, write)));
        });

        // Sleep no longer than the nearest deadline among in-flight
        // requests and handler timers; a write-stalled connection keeps
        // a short tick so its watchdog fires on time.
        let now = Instant::now();
        let mut timeout = IDLE_TICK;
        let mut bound = |d: Option<Instant>| {
            if let Some(d) = d {
                timeout = timeout.min(d.saturating_duration_since(now));
            }
        };
        bound(self.handler.deadline());
        for c in &self.conns {
            bound(
                c.pending
                    .as_ref()
                    .and_then(|p| self.handler.pending_deadline(p)),
            );
            if c.write_stall_since.is_some() {
                bound(Some(now + Duration::from_millis(10)));
            }
        }
        sys::poll(&mut fds, timeout);

        // Drain the waker pipe (it is level-triggered: leftover bytes
        // would spin the loop).
        let mut sink = [0u8; 64];
        while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}

        (
            fds[base..handler_base]
                .iter()
                .map(sys::PollFd::readable)
                .collect(),
            fds[handler_base..].iter().map(sys::PollFd::ready).collect(),
        )
    }

    /// Portable fallback: a short sleep, then optimistic progress on
    /// every socket (a dry read just reports would-block).
    #[cfg(not(unix))]
    fn wait_for_readiness(&mut self, _draining: bool) -> (Vec<bool>, Vec<bool>) {
        std::thread::sleep(Duration::from_millis(2));
        let mut handler_sockets = 0;
        self.handler.sockets(&mut |_, _, _| handler_sockets += 1);
        (vec![true; self.conns.len()], vec![true; handler_sockets])
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(Conn::new(stream));
                    let stats = &self.stats;
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    stats.open_connections.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// One pass over a connection's state machine; `Err(())` closes it.
    fn step_conn(&mut self, i: usize, readable: bool) -> Result<(), ()> {
        if readable {
            self.read_conn(i)?;
        }
        self.deliver_pending(i);
        self.execute_inbox(i);
        // Always attempt the flush when output is queued (not just on
        // POLLOUT): fresh output this pass flushes immediately, and the
        // write-stall watchdog re-arms even when the socket never
        // becomes writable again.
        if self.conns[i].wants_write() {
            self.flush_conn(i)?;
        }
        Ok(())
    }

    /// Nonblocking read: accumulate bytes, split complete lines into
    /// the inbox, enforce the line-length bound.
    fn read_conn(&mut self, i: usize) -> Result<(), ()> {
        let max_line = self.handler.max_request_line();
        let mut scratch = [0u8; 16 * 1024];
        while self.conns[i].wants_read() {
            match self.conns[i].stream.read(&mut scratch) {
                Ok(0) => {
                    let conn = &mut self.conns[i];
                    conn.read_closed = true;
                    // Answer a final unterminated line.
                    if !conn.buf.is_empty() && !conn.skipping {
                        let line = std::mem::take(&mut conn.buf);
                        conn.inbox.push_back(line);
                    }
                    conn.buf.clear();
                    return Ok(());
                }
                Ok(n) => self.ingest(i, &scratch[..n], max_line),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stats.read_stalls.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// Splits freshly read bytes into lines, applying the
    /// oversized-line protocol: one typed `bad_request`, then discard
    /// through the eventual newline, connection intact.
    fn ingest(&mut self, i: usize, mut bytes: &[u8], max_line: usize) {
        while !bytes.is_empty() {
            let conn = &mut self.conns[i];
            match bytes.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    if conn.skipping {
                        conn.skipping = false; // oversized tail discarded
                    } else {
                        let mut line = std::mem::take(&mut conn.buf);
                        line.extend_from_slice(&bytes[..nl]);
                        if line.len() > max_line {
                            self.reject_oversized(i, max_line, false);
                        } else {
                            self.conns[i].inbox.push_back(line);
                        }
                    }
                    bytes = &bytes[nl + 1..];
                }
                None => {
                    if conn.skipping {
                        return; // keep discarding
                    }
                    conn.buf.extend_from_slice(bytes);
                    if conn.buf.len() > max_line {
                        self.reject_oversized(i, max_line, true);
                    }
                    return;
                }
            }
        }
    }

    fn reject_oversized(&mut self, i: usize, max_line: usize, keep_skipping: bool) {
        let e = protocol::ServeError::new(
            protocol::ErrorKind::BadRequest,
            format!("request line exceeds {max_line} bytes"),
        );
        let conn = &mut self.conns[i];
        conn.buf.clear();
        conn.skipping = keep_skipping;
        conn.push(Out::Line(protocol::error_response(&e)));
    }

    /// Queues the connection's in-flight reply once the handler has it.
    fn deliver_pending(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        let Some(p) = conn.pending.as_mut() else {
            return;
        };
        if let Some(out) = self.handler.poll(p, Instant::now()) {
            conn.pending = None;
            conn.push(out);
        }
    }

    /// Executes queued lines until one goes in-flight (replies must
    /// stay in request order, so one pending request parks the rest)
    /// or the output queue is over its high-water mark.
    fn execute_inbox(&mut self, i: usize) {
        while self.conns[i].pending.is_none()
            && !self.conns[i].close_after_flush
            && self.conns[i].out_bytes < OUT_HIGH_WATER
        {
            let Some(raw) = self.conns[i].inbox.pop_front() else {
                return;
            };
            self.execute_line(i, raw);
        }
    }

    /// Screens one request line (UTF-8, blank keep-alive) and hands it
    /// to the handler.
    fn execute_line(&mut self, i: usize, raw: Vec<u8>) {
        let line = match String::from_utf8(raw) {
            Ok(s) => s,
            Err(_) => {
                let e = protocol::ServeError::new(
                    protocol::ErrorKind::BadRequest,
                    "request is not valid UTF-8",
                );
                self.conns[i].push(Out::Line(protocol::error_response(&e)));
                return;
            }
        };
        if line.trim().is_empty() {
            return; // blank keep-alive line
        }
        let conn_step = self.handler.execute(line);
        let conn = &mut self.conns[i];
        match conn_step {
            Step::Reply(out) => conn.push(out),
            Step::Pending(p) => conn.pending = Some(p),
            Step::Shutdown => {
                // Acknowledge, then trip this reactor's stop flag (not
                // the process-global signal flag — in-process test
                // servers must not drain each other).
                conn.push(Out::Line("{\"ok\":true,\"draining\":true}".to_string()));
                conn.close_after_flush = true;
                self.stop.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Flushes queued output as far as the socket allows, gathering up
    /// to `WRITE_CHUNKS_MAX` queued chunks into each `writev` (a shared
    /// reply and its newline leave in one write); a partial write leaves
    /// `out_pos` mid-chunk. A stall longer than the handler's write
    /// timeout forfeits the connection.
    fn flush_conn(&mut self, i: usize) -> Result<(), ()> {
        let write_timeout = self.handler.write_timeout();
        let conn = &mut self.conns[i];
        while !conn.out.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITE_CHUNKS_MAX];
            let gathered = conn.out.len().min(WRITE_CHUNKS_MAX);
            for (k, (slice, chunk)) in slices.iter_mut().zip(&conn.out).enumerate() {
                let skip = if k == 0 { conn.out_pos } else { 0 };
                *slice = IoSlice::new(&chunk.bytes()[skip..]);
            }
            match (&conn.stream).write_vectored(&slices[..gathered]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    conn.consume(n);
                    conn.write_stall_since = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    match conn.write_stall_since {
                        None => conn.write_stall_since = Some(Instant::now()),
                        Some(t0) if t0.elapsed() >= write_timeout => return Err(()),
                        Some(_) => {}
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        conn.write_stall_since = None;
        Ok(())
    }
}

/// Raw `poll(2)` plumbing, declared directly against libc — the
/// workspace takes no external crates, the same approach
/// [`crate::signal`] uses for `signal(2)`.
#[cfg(unix)]
mod sys {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// POSIX `nfds_t`: `unsigned long` on Linux, `unsigned int` on the
    /// BSDs and macOS.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = u64;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = u32;

    /// The `events` mask for a read and/or write interest.
    pub fn interest(read: bool, write: bool) -> i16 {
        (if read { POLLIN } else { 0 }) | (if write { POLLOUT } else { 0 })
    }

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub fn new(fd: i32, events: i16) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// Data waiting, or an error/hangup the next read will surface.
        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLERR | POLLHUP) != 0
        }

        /// Any event at all: readable, writable, error or hangup.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    extern "C" {
        #[link_name = "poll"]
        fn c_poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// Polls `fds` for at most `timeout` (clamped to i32 millis). The
    /// caller re-derives progress from nonblocking I/O, so an error
    /// return (e.g. `EINTR`) just means "check everything again".
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> i32 {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs and `nfds` is its exact length, so
        // the kernel reads and writes only within it.
        unsafe { c_poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve `stats` reply nests the transport object inside the
    /// service's `stats` object; every pre-existing member survives.
    #[test]
    fn transport_object_nests_in_service_stats() {
        let svc = crate::service::Service::new(crate::service::ServiceConfig::default());
        let transport = TransportSnapshot {
            open_connections: 3,
            accepted: 9,
            reactor_wakeups: 120,
            read_stalls: 7,
        };
        let reply = crate::service::stats_reply(|w| {
            svc.stats().write_members(w);
            transport.write_json(w.key("transport"));
        });
        assert!(!reply.contains('\n'));
        let v = crate::json::parse(&reply).expect("stats JSON parses");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let stats = v.get("stats").unwrap();
        let t = stats.get("transport").unwrap();
        assert_eq!(t.get("open_connections").unwrap().as_u64(), Some(3));
        assert_eq!(t.get("accepted").unwrap().as_u64(), Some(9));
        assert_eq!(t.get("reactor_wakeups").unwrap().as_u64(), Some(120));
        assert_eq!(t.get("read_stalls").unwrap().as_u64(), Some(7));
        assert!(stats.get("queue").is_some());
        assert!(stats.get("account").is_some());
    }
}
