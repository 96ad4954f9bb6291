//! A seeded fault-injection TCP proxy.
//!
//! Sits between a client and the server and corrupts the conversation
//! with a distribution-controlled, [`SplitMix64`]-seeded schedule of
//! fault operators — the network-layer sibling of the simulator's
//! trace-corruption operators from the fault-injection harness. The
//! operators cover the failure modes a deployed service actually sees:
//!
//! | operator | what the client observes |
//! |---|---|
//! | [`Fault::Clean`] | the exchange passes through untouched |
//! | [`Fault::Delay`] | the response arrives late (deadline pressure) |
//! | [`Fault::Reset`] | connection reset mid-response |
//! | [`Fault::Truncate`] | a byte-truncated response, then EOF |
//! | [`Fault::BitFlip`] | a corrupted payload that still *looks* like a response — must be caught by the integrity trailer or the parse, never accepted |
//! | [`Fault::BlackHole`] | the connection accepts but never answers (timeout pressure) |
//!
//! Faults are decided **per exchange** (per request/response pair), not
//! per connection: a long-lived connection keeps rolling the dice on
//! every request, so operators keep firing no matter how clients pool
//! connections. The schedule depends only on the seed and the order of
//! exchanges within a connection — each connection handler derives its
//! own RNG from the proxy seed and a connection counter, so concurrent
//! connections do not perturb each other's schedules.
//!
//! The proxy is std-only and transparent to the protocol: it never
//! parses JSON, only newline framing (it must know where a response
//! ends to truncate or flip it).
//!
//! [`SplitMix64`]: polyflow_isa::rng::SplitMix64

use polyflow_isa::rng::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One fault operator, drawn per exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Pass the exchange through untouched.
    Clean,
    /// Hold the response for the configured delay, then deliver it.
    Delay,
    /// Forward a prefix of the response, then reset the connection.
    Reset,
    /// Forward a prefix of the response (no newline), then close.
    Truncate,
    /// Flip one payload bit (never creating a newline), then deliver.
    BitFlip,
    /// Never answer; discard the request and hold the socket open.
    BlackHole,
}

/// Fault mix in percent; the remainder is [`Fault::Clean`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Upstream (real server) address.
    pub upstream: String,
    /// RNG seed for the fault schedule.
    pub seed: u64,
    /// Percent of exchanges delayed.
    pub delay_pct: u32,
    /// Percent of exchanges reset mid-response.
    pub reset_pct: u32,
    /// Percent of exchanges truncated.
    pub truncate_pct: u32,
    /// Percent of exchanges bit-flipped.
    pub bitflip_pct: u32,
    /// Percent of exchanges black-holed.
    pub blackhole_pct: u32,
    /// How long a delayed exchange is held (and how long a black-holed
    /// connection is parked before being dropped).
    pub delay: Duration,
}

impl ChaosConfig {
    /// A proxy for `upstream` with every operator disabled.
    pub fn clean(upstream: impl Into<String>, seed: u64) -> ChaosConfig {
        ChaosConfig {
            upstream: upstream.into(),
            seed,
            delay_pct: 0,
            reset_pct: 0,
            truncate_pct: 0,
            bitflip_pct: 0,
            blackhole_pct: 0,
            delay: Duration::from_millis(20),
        }
    }

    fn validate(&self) {
        let pcts = [
            self.delay_pct,
            self.reset_pct,
            self.truncate_pct,
            self.bitflip_pct,
            self.blackhole_pct,
        ];
        // Summed wide: five `u32`s cannot wrap a `u64`.
        let total: u64 = pcts.into_iter().map(u64::from).sum();
        assert!(total <= 100, "fault percentages exceed 100 ({total})");
    }

    /// Draws the fault for the next exchange.
    fn draw(&self, rng: &mut SplitMix64) -> Fault {
        let roll = rng.below(100) as u32;
        let mut edge = self.delay_pct;
        if roll < edge {
            return Fault::Delay;
        }
        edge += self.reset_pct;
        if roll < edge {
            return Fault::Reset;
        }
        edge += self.truncate_pct;
        if roll < edge {
            return Fault::Truncate;
        }
        edge += self.bitflip_pct;
        if roll < edge {
            return Fault::BitFlip;
        }
        edge += self.blackhole_pct;
        if roll < edge {
            return Fault::BlackHole;
        }
        Fault::Clean
    }
}

/// How many exchanges each operator has corrupted.
#[derive(Debug, Default)]
pub struct FaultCounts {
    /// Untouched exchanges.
    pub clean: AtomicU64,
    /// Delayed exchanges.
    pub delay: AtomicU64,
    /// Mid-response resets.
    pub reset: AtomicU64,
    /// Truncated responses.
    pub truncate: AtomicU64,
    /// Bit-flipped responses.
    pub bitflip: AtomicU64,
    /// Black-holed exchanges.
    pub blackhole: AtomicU64,
}

impl FaultCounts {
    fn bump(&self, fault: Fault) {
        let c = match fault {
            Fault::Clean => &self.clean,
            Fault::Delay => &self.delay,
            Fault::Reset => &self.reset,
            Fault::Truncate => &self.truncate,
            Fault::BitFlip => &self.bitflip,
            Fault::BlackHole => &self.blackhole,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// `(clean, delay, reset, truncate, bitflip, blackhole)` snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.clean.load(Ordering::Relaxed),
            self.delay.load(Ordering::Relaxed),
            self.reset.load(Ordering::Relaxed),
            self.truncate.load(Ordering::Relaxed),
            self.bitflip.load(Ordering::Relaxed),
            self.blackhole.load(Ordering::Relaxed),
        )
    }

    /// True once every *enabled* operator has fired at least once.
    pub fn all_enabled_fired(&self, config: &ChaosConfig) -> bool {
        let (_, delay, reset, truncate, bitflip, blackhole) = self.snapshot();
        (config.delay_pct == 0 || delay > 0)
            && (config.reset_pct == 0 || reset > 0)
            && (config.truncate_pct == 0 || truncate > 0)
            && (config.bitflip_pct == 0 || bitflip > 0)
            && (config.blackhole_pct == 0 || blackhole > 0)
    }
}

/// The running proxy: a listener thread plus per-connection handlers.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: std::net::SocketAddr,
    counts: Arc<FaultCounts>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen_addr` (use port 0 for an ephemeral port) and starts
    /// proxying to `config.upstream`.
    pub fn spawn(listen_addr: &str, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        config.validate();
        let listener = TcpListener::bind(listen_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let counts = Arc::new(FaultCounts::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let counts = Arc::clone(&counts);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || accept_loop(listener, config, counts, stop))
                .expect("spawn chaos accept loop")
        };
        Ok(ChaosProxy {
            addr,
            counts,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address (point clients here).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared fault counters.
    pub fn counts(&self) -> Arc<FaultCounts> {
        Arc::clone(&self.counts)
    }

    /// Stops accepting and joins the accept thread. In-flight handler
    /// threads see the stop flag at their next read timeout and exit.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    config: ChaosConfig,
    counts: Arc<FaultCounts>,
    stop: Arc<AtomicBool>,
) {
    let mut conn_index = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                // Each connection gets an RNG derived from (seed, index)
                // so its fault schedule is independent of accept-order
                // races between other connections.
                let mut rng =
                    SplitMix64::new(config.seed ^ conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // Burn one draw to decorrelate low indices.
                let _ = rng.next_u64();
                conn_index += 1;
                let config = config.clone();
                let counts = Arc::clone(&counts);
                let stop = Arc::clone(&stop);
                let _ = std::thread::Builder::new()
                    .name("chaos-conn".into())
                    .spawn(move || handle_connection(client, config, rng, counts, stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Proxies one client connection, one request/response exchange at a
/// time, applying a freshly drawn fault to each exchange.
fn handle_connection(
    client: TcpStream,
    config: ChaosConfig,
    mut rng: SplitMix64,
    counts: Arc<FaultCounts>,
    stop: Arc<AtomicBool>,
) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = client.set_nodelay(true);
    let mut client_writer = match client.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut client_reader = BufReader::new(client);

    // One upstream connection per client connection, opened lazily so a
    // black-holed exchange never even touches the server.
    let mut upstream: Option<(BufReader<TcpStream>, TcpStream)> = None;

    loop {
        // Read one request line from the client.
        let mut request = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match client_reader.read_until(b'\n', &mut request) {
                Ok(0) => return, // client went away
                Ok(_) if request.ends_with(b"\n") => break,
                Ok(_) => continue, // partial line before timeout
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => return,
            }
        }

        let fault = config.draw(&mut rng);
        counts.bump(fault);

        if fault == Fault::BlackHole {
            // Swallow the request; never answer. Park briefly so the
            // client's read times out on its own schedule, then drop the
            // connection without a byte.
            std::thread::sleep(config.delay);
            return;
        }

        // Forward the request and collect the full response line.
        let response = match forward(&mut upstream, &config, &request, &stop) {
            Some(r) => r,
            None => return, // upstream unreachable: looks like a reset
        };

        let deliver: Option<Vec<u8>> = match fault {
            Fault::Clean => Some(response),
            Fault::Delay => {
                std::thread::sleep(config.delay);
                Some(response)
            }
            Fault::Reset | Fault::Truncate => {
                // Send a strict prefix with the newline gone, then kill
                // the connection — Reset aborts hard (RST via SO_LINGER
                // 0 where available; a plain close after partial write
                // is observationally a truncated reply, which is the
                // invariant we test either way).
                let cut = 1 + rng.index(response.len().saturating_sub(1).max(1));
                let _ = client_writer.write_all(&response[..cut.min(response.len() - 1)]);
                let _ = client_writer.flush();
                return;
            }
            Fault::BitFlip => {
                let mut bytes = response;
                // Flip one bit somewhere in the payload, avoiding the
                // terminating newline and never *creating* a newline
                // (that would re-frame the stream instead of corrupting
                // the payload).
                if bytes.len() > 1 {
                    loop {
                        let i = rng.index(bytes.len() - 1);
                        let bit = 1u8 << rng.index(8);
                        let flipped = bytes[i] ^ bit;
                        if flipped != b'\n' {
                            bytes[i] = flipped;
                            break;
                        }
                    }
                }
                Some(bytes)
            }
            Fault::BlackHole => unreachable!("handled above"),
        };

        if let Some(bytes) = deliver {
            if client_writer.write_all(&bytes).is_err() || client_writer.flush().is_err() {
                return;
            }
        }
    }
}

/// Sends `request` upstream (connecting on first use) and reads one
/// newline-terminated response. `None` means the upstream conversation
/// failed — the caller drops the client connection, which the client
/// sees as a transport error.
fn forward(
    upstream: &mut Option<(BufReader<TcpStream>, TcpStream)>,
    config: &ChaosConfig,
    request: &[u8],
    stop: &AtomicBool,
) -> Option<Vec<u8>> {
    if upstream.is_none() {
        let stream = TcpStream::connect(&config.upstream).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_millis(250)))
            .ok()?;
        let writer = stream.try_clone().ok()?;
        *upstream = Some((BufReader::new(stream), writer));
    }
    let (reader, writer) = upstream.as_mut()?;
    writer.write_all(request).ok()?;
    writer.flush().ok()?;
    let mut response = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match reader.read_until(b'\n', &mut response) {
            Ok(0) => return None,
            Ok(_) if response.ends_with(b"\n") => return Some(response),
            Ok(_) => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An upstream that echoes each request line back with a prefix.
    fn echo_upstream() -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            if stop2.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let stop3 = Arc::clone(&stop2);
                    std::thread::spawn(move || {
                        stream
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .unwrap();
                        let mut writer = stream.try_clone().unwrap();
                        let mut reader = BufReader::new(stream);
                        loop {
                            if stop3.load(Ordering::SeqCst) {
                                return;
                            }
                            let mut line = String::new();
                            match reader.read_line(&mut line) {
                                Ok(0) => return,
                                Ok(_) if line.ends_with('\n') => {
                                    let reply = format!("echo:{}", line.trim_end());
                                    if writeln!(writer, "{reply}").is_err() {
                                        return;
                                    }
                                }
                                Ok(_) => continue,
                                Err(e)
                                    if e.kind() == std::io::ErrorKind::WouldBlock
                                        || e.kind() == std::io::ErrorKind::TimedOut =>
                                {
                                    continue
                                }
                                Err(_) => return,
                            }
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        });
        (addr, stop, handle)
    }

    fn exchange(addr: std::net::SocketAddr, line: &str) -> std::io::Result<String> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(1)))?;
        let mut writer = stream.try_clone()?;
        writeln!(writer, "{line}")?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply)?;
        if reply.ends_with('\n') {
            reply.pop();
            Ok(reply)
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "truncated",
            ))
        }
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let (upstream, stop, h) = echo_upstream();
        let mut proxy = ChaosProxy::spawn("127.0.0.1:0", ChaosConfig::clean(upstream, 1)).unwrap();
        for i in 0..5 {
            let msg = format!("hello-{i}");
            assert_eq!(exchange(proxy.addr(), &msg).unwrap(), format!("echo:{msg}"));
        }
        assert_eq!(proxy.counts().snapshot().0, 5, "five clean exchanges");
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
    }

    /// Percentages whose `u32` sum wraps past zero are still refused.
    #[test]
    #[should_panic(expected = "fault percentages exceed 100 (4294967296)")]
    fn validate_refuses_a_sum_that_wraps_a_u32() {
        ChaosConfig {
            reset_pct: u32::MAX,
            delay_pct: 1,
            ..ChaosConfig::clean("127.0.0.1:1", 1)
        }
        .validate();
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        let config = ChaosConfig {
            delay_pct: 10,
            reset_pct: 15,
            truncate_pct: 15,
            bitflip_pct: 10,
            blackhole_pct: 5,
            ..ChaosConfig::clean("unused:0", 0xC0FFEE)
        };
        let draw_seq = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (0..64).map(|_| config.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw_seq(7), draw_seq(7));
        assert_ne!(draw_seq(7), draw_seq(8));
        // The mix is honest: every operator appears in a long run.
        let mut rng = SplitMix64::new(0xC0FFEE);
        let seq: Vec<Fault> = (0..2000).map(|_| config.draw(&mut rng)).collect();
        for f in [
            Fault::Clean,
            Fault::Delay,
            Fault::Reset,
            Fault::Truncate,
            Fault::BitFlip,
            Fault::BlackHole,
        ] {
            assert!(seq.contains(&f), "{f:?} never drawn in 2000 exchanges");
        }
    }

    #[test]
    fn all_operators_observable_through_the_wire() {
        let (upstream, stop, h) = echo_upstream();
        let config = ChaosConfig {
            delay_pct: 10,
            reset_pct: 12,
            truncate_pct: 12,
            bitflip_pct: 12,
            blackhole_pct: 6,
            delay: Duration::from_millis(5),
            ..ChaosConfig::clean(upstream, 0xFACE)
        };
        let check = config.clone();
        let mut proxy = ChaosProxy::spawn("127.0.0.1:0", config).unwrap();
        let mut corrupted = 0u64;
        let mut failed = 0u64;
        let mut ok = 0u64;
        for i in 0..160 {
            let msg = format!("m{i}");
            match exchange(proxy.addr(), &msg) {
                Ok(reply) if reply == format!("echo:{msg}") => ok += 1,
                Ok(_) => corrupted += 1, // bit-flipped but framed
                Err(_) => failed += 1,   // reset/truncate/blackhole
            }
        }
        let counts = proxy.counts();
        assert!(
            counts.all_enabled_fired(&check),
            "some operator never fired: {:?}",
            counts.snapshot()
        );
        assert!(ok > 0 && failed > 0 && corrupted > 0);
        // No silent wrong answers that *parse back to the wrong echo*:
        // every corrupted reply differs from the expected bytes, which
        // is exactly what the integrity trailer catches at the protocol
        // layer.
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
    }
}
