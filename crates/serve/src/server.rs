//! The TCP front end: a thin wrapper that binds, starts the service,
//! and runs the readiness-based [`ReactorThread`] with serve's
//! [`Handler`].
//!
//! Each connection speaks the newline-delimited protocol of
//! [`crate::protocol`]. All connections are driven by one reactor
//! thread (see [`crate::reactor`] for the state machine); simulate and
//! verify requests execute on the service's workers, so the reactor
//! never blocks on one. Malformed input gets a typed error response — a protocol
//! mistake never costs the client its connection, and never kills the
//! server.
//!
//! Shutdown (a signal, the `shutdown` verb, or [`Server::shutdown`])
//! proceeds in order: stop accepting, let connections with queued or
//! in-flight work deliver it and hang up on the idle rest, then drain
//! the admission queue and join the workers. Clients that were admitted
//! before the drain began still receive their replies.

use crate::protocol::{self, ErrorKind, Request, ServeError};
use crate::reactor::{Handler, Out, ReactorThread, Step, TransportSnapshot, TransportStats};
use crate::service::{self, Reply, Service, ServiceConfig, Ticket};
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running server: the service plus its TCP front end.
pub struct Server {
    service: Arc<Service>,
    stats: Arc<TransportStats>,
    reactor: ReactorThread,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`), starts the service workers
    /// and the reactor thread, and returns. Use [`Server::addr`] to
    /// learn the bound port when asking for an ephemeral one.
    pub fn spawn(addr: &str, config: ServiceConfig) -> io::Result<Server> {
        let service = Service::new(config);
        let server = Server::with_service(addr, Arc::clone(&service))?;
        service.start();
        Ok(server)
    }

    /// Binds `addr` and runs the reactor in front of `service`, which
    /// the caller starts (or not) with [`Service::start`]: until then
    /// admitted requests wait in its queue, which lets tests hold work
    /// there deterministically.
    pub fn with_service(addr: &str, service: Arc<Service>) -> io::Result<Server> {
        let stats = Arc::new(TransportStats::default());
        let reactor = ReactorThread::spawn(addr, "serve-reactor", Arc::clone(&stats), |waker| {
            // Answered jobs wake the loop to deliver their replies.
            let hook = waker.clone();
            service.set_notifier(move || hook.wake());
            Ok(ServeHandler {
                service: Arc::clone(&service),
                transport: Arc::clone(&stats),
            })
        })?;
        Ok(Server {
            service,
            stats,
            reactor,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// The underlying service (tests inspect its stats directly).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Snapshot of the reactor's transport counters.
    pub fn transport(&self) -> TransportSnapshot {
        self.stats.snapshot()
    }

    /// Graceful drain: stop accepting, let connections finish their
    /// queued and in-flight work and hang up, drain the admission
    /// queue, join the workers. Idempotent; called by `Drop` as a
    /// backstop.
    pub fn shutdown(&mut self) {
        self.service.begin_shutdown();
        self.reactor.stop();
        self.service.shutdown_and_join();
    }

    /// Blocks until a drain is requested (a signal, the `shutdown` verb,
    /// or [`Service::begin_shutdown`]), then drains. The `serve` binary
    /// parks its main thread here.
    pub fn wait_for_shutdown(&mut self) {
        self.reactor
            .wait_for_drain(|| self.service.is_shutting_down());
        self.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A simulate or verify request whose reply the reactor is waiting on.
struct PendingReply {
    rx: Receiver<Reply>,
    integrity: bool,
    deadline: Option<Instant>,
}

/// Serve's [`Handler`]: `ping`, `stats` and `shutdown` answer inline;
/// simulate and verify requests go through [`Service::enqueue`] and wait
/// on a worker, so the loop only parses and routes.
struct ServeHandler {
    service: Arc<Service>,
    transport: Arc<TransportStats>,
}

impl ServeHandler {
    fn reply(reply: Reply, integrity: bool) -> Out {
        match reply {
            Ok(line) if integrity => Out::Line(protocol::with_integrity_trailer(&line)),
            Ok(line) => Out::Shared(line),
            Err(e) => Out::Line(protocol::error_line(&e, integrity)),
        }
    }
}

impl Handler for ServeHandler {
    type Pending = PendingReply;

    fn max_request_line(&self) -> usize {
        self.service.config().max_request_line
    }

    fn write_timeout(&self) -> Duration {
        self.service.config().write_timeout
    }

    fn execute(&mut self, line: String) -> Step<PendingReply> {
        let parsed = protocol::parse_request(&line, self.service.default_max_cycles());
        let integrity = protocol::wants_integrity(&line, parsed.as_ref().ok());
        match parsed {
            Ok(Request::Ping) => Step::Reply(Out::Line("{\"ok\":true,\"pong\":true}".to_string())),
            Ok(Request::Stats) => {
                let (stats, transport) = (self.service.stats(), self.transport.snapshot());
                Step::Reply(Out::Line(service::stats_reply(|w| {
                    stats.write_members(w);
                    transport.write_json(w.key("transport"));
                })))
            }
            Ok(Request::Shutdown) => {
                self.service.begin_shutdown();
                Step::Shutdown
            }
            Ok(req) => {
                let deadline = self.service.deadline_of(&req);
                match self.service.enqueue(req) {
                    Ok(Ticket::Ready(hit)) => Step::Reply(Self::reply(Ok(hit), integrity)),
                    Ok(Ticket::Admitted(rx)) => Step::Pending(PendingReply {
                        rx,
                        integrity,
                        deadline,
                    }),
                    Err(e) => Step::Reply(Self::reply(Err(e), integrity)),
                }
            }
            Err(e) => Step::Reply(Self::reply(Err(e), integrity)),
        }
    }

    /// Delivers a landed reply, or times the request out at its deadline
    /// (the reactor-side mirror of `Service::submit`'s `recv_timeout`).
    fn poll(&mut self, p: &mut PendingReply, now: Instant) -> Option<Out> {
        let reply = match p.rx.try_recv() {
            Ok(reply) => reply,
            Err(TryRecvError::Empty) => match p.deadline {
                Some(d) if now >= d => {
                    self.service.record_deadline_exceeded();
                    Err(ServeError::new(
                        ErrorKind::DeadlineExceeded,
                        "deadline expired before the result was ready",
                    ))
                }
                _ => return None,
            },
            Err(TryRecvError::Disconnected) => Err(ServeError::new(
                ErrorKind::Internal,
                "service stopped before replying",
            )),
        };
        Some(Self::reply(reply, p.integrity))
    }

    fn pending_deadline(&self, p: &PendingReply) -> Option<Instant> {
        p.deadline
    }
}
