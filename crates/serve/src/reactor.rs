//! The serve front ends: every connection on one event loop.
//!
//! One state machine serves every connection, built from the
//! [`viz_fetch::reactor`] substrate. It is driven two ways:
//!
//! - [`TcpServer`] — localhost TCP: `poll(2)` for socket readiness, the
//!   wall clock for demand deadlines, and the engine's completion hook
//!   for "a parked fetch may be done". One loop thread serves every
//!   connection, so threads stay constant as sessions scale. A
//!   connection whose reply backs up is neither read nor dispatched
//!   until it drains, so a client that stops reading is held back by
//!   TCP flow control.
//! - [`InProcServer`] — in-process frame pipes: a [`ReadySet`] stands in
//!   for socket readability and a caller-advanced virtual clock for the
//!   wall, with a `workers = 0` engine stepped inline. Tests and the soak
//!   suite drive thousands of virtual connections through exactly the
//!   code the TCP loop runs, deterministically.
//!
//! ## Per-connection state machine
//!
//! **dispatch → park → unpark/expire → reap.** A connection is either
//! **idle** (buffered requests decode and go to the front end's
//! [`RequestDispatch`] at once) or **parked** on one in-flight `Fetch`,
//! or on a [`Deferred`] reply a dispatcher computes on its own thread
//! rather than block the loop. While parked, later requests stay
//! buffered, so replies leave in request order. A parked fetch unparks
//! when its demand tickets resolve ([`PendingFetch::poll`]) or when its
//! deadline timer fires; then unresolved keys report `TimedOut` and
//! their reads stay in flight for a later frame — degraded, not dropped.
//! A connection whose peer went away is reaped: its timer is cancelled
//! and the sessions it opened close.

use crate::inproc_pair;
use crate::proto::{self, frame_body_len, Response};
use crate::registry::SessionId;
use crate::server::{
    DefaultDispatch, Deferred, DrainReport, Outcome, PendingFetch, RequestDispatch, Server,
};
use crate::transport::{InProcTransport, Transport};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use viz_fetch::reactor::{POLL_ERR, POLL_HUP, POLL_IN, POLL_OUT};
use viz_fetch::{poll_fds, FetchEngine, PollFd, ReadySet, TimerId, TimerWheel};
use viz_telemetry::EventKind as Ev;

/// What the state machine needs from one connection's transport.
trait Pipe {
    /// The next whole request frame; `Ok(None)` when none is buffered,
    /// `Err` when the connection is unusable (peer gone, or a header the
    /// stream cannot resynchronize past).
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ()>;

    /// Send, or queue, one encoded reply frame; `false` once the peer is
    /// gone.
    fn send(&mut self, frame: Vec<u8>) -> bool;

    /// Replies are queued that the peer has not taken yet; dispatch waits
    /// until they drain.
    fn backlogged(&self) -> bool;
}

/// What a parked connection waits on.
enum Wait {
    Fetch(PendingFetch),
    Deferred(Deferred),
}

/// One parked request and its (optional) deadline timer.
struct Parked {
    wait: Wait,
    timer: Option<TimerId>,
}

impl Parked {
    fn ready(&mut self) -> bool {
        match &mut self.wait {
            Wait::Fetch(f) => f.poll(),
            Wait::Deferred(d) => d.poll(),
        }
    }
}

/// One connection: its transport, the sessions opened on it (closed when
/// it is reaped), and the park slot.
struct Conn<P> {
    pipe: P,
    owned: Vec<SessionId>,
    parked: Option<Parked>,
    dead: bool,
}

impl<P: Pipe> Conn<P> {
    /// Send one reply, tracking session ownership from it.
    fn reply(&mut self, resp: &Response) {
        match resp {
            Response::OpenAck { session } => self.owned.push(SessionId(*session)),
            Response::CloseAck { session } => self.owned.retain(|s| s.0 != *session),
            _ => {}
        }
        if !self.pipe.send(proto::encode_response(resp)) {
            self.dead = true;
        }
    }
}

/// The state machine shared by both drivers.
struct Reactor<P> {
    server: Arc<Server>,
    dispatch: Arc<dyn RequestDispatch>,
    wheel: TimerWheel,
    /// Connection slots; a connection's token is its index, so every
    /// pass visits connections in the same order. Reaped slots are
    /// reused.
    conns: Vec<Option<Conn<P>>>,
    free: Vec<usize>,
    ticks: u64,
}

impl<P: Pipe> Reactor<P> {
    fn new(server: Arc<Server>, dispatch: Arc<dyn RequestDispatch>) -> Self {
        Reactor {
            server,
            dispatch,
            wheel: TimerWheel::for_serving(),
            conns: Vec::new(),
            free: Vec::new(),
            ticks: 0,
        }
    }

    /// Register a connection; returns its token.
    fn add(&mut self, pipe: P) -> u64 {
        let conn = Some(Conn { pipe, owned: Vec::new(), parked: None, dead: false });
        match self.free.pop() {
            Some(i) => {
                self.conns[i] = conn;
                i as u64
            }
            None => {
                self.conns.push(conn);
                self.conns.len() as u64 - 1
            }
        }
    }

    fn conn(&mut self, token: u64) -> Option<&mut Conn<P>> {
        self.conns.get_mut(token as usize)?.as_mut()
    }

    /// Live connections with their tokens, in token order.
    fn live(&self) -> impl Iterator<Item = (u64, &Conn<P>)> {
        self.conns.iter().enumerate().filter_map(|(i, c)| Some((i as u64, c.as_ref()?)))
    }

    fn open_conns(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    /// Dispatch buffered requests on one connection until it parks, runs
    /// dry, backs up, or dies. Returns requests taken.
    fn service(&mut self, token: u64, now_ns: u64) -> usize {
        let Some(c) = self.conns.get_mut(token as usize).and_then(Option::as_mut) else {
            return 0;
        };
        let mut n = 0;
        while !c.dead && c.parked.is_none() && !c.pipe.backlogged() {
            let frame = match c.pipe.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(()) => {
                    c.dead = true;
                    break;
                }
            };
            n += 1;
            let resp = match proto::decode_request(&frame) {
                Ok(req) => match self.dispatch.dispatch(&self.server, req) {
                    Outcome::Ready(r) => r,
                    Outcome::Fetch(fetch) => {
                        // Issue the demand now so the engine starts on it
                        // at once; the reply waits for the tickets or the
                        // deadline.
                        self.server.pump();
                        let timer = self
                            .server
                            .config()
                            .demand_deadline
                            .map(|d| self.wheel.schedule(now_ns + d.as_nanos() as u64, token));
                        c.parked = Some(Parked { wait: Wait::Fetch(fetch), timer });
                        break;
                    }
                    Outcome::Deferred(d) => {
                        c.parked = Some(Parked { wait: Wait::Deferred(d), timer: None });
                        break;
                    }
                },
                Err(pe) => Response::Error { code: pe.code(), message: pe.to_string() },
            };
            c.reply(&resp);
        }
        n
    }

    /// Reply to every parked request whose demand or deferred work
    /// resolved. Returns units of work done (replies plus requests
    /// dispatched behind them).
    fn unpark(&mut self, now_ns: u64) -> usize {
        let done: Vec<u64> = self
            .conns
            .iter_mut()
            .enumerate()
            .filter_map(|(i, c)| c.as_mut()?.parked.as_mut()?.ready().then_some(i as u64))
            .collect();
        done.into_iter().map(|t| self.resolve(t, now_ns, false)).sum()
    }

    /// Answer every parked fetch whose deadline the clock passed.
    fn expire(&mut self, now_ns: u64) -> usize {
        let fired = self.wheel.expire(now_ns);
        fired.into_iter().map(|(_, t)| self.resolve(t, now_ns, true)).sum()
    }

    /// Send a connection's parked reply, then dispatch the requests it
    /// buffered behind it. Returns 0 when nothing was parked.
    fn resolve(&mut self, token: u64, now_ns: u64, timed_out: bool) -> usize {
        let Some(c) = self.conns.get_mut(token as usize).and_then(Option::as_mut) else {
            return 0;
        };
        let Some(p) = c.parked.take() else { return 0 };
        if let (false, Some(t)) = (timed_out, p.timer) {
            self.wheel.cancel(t);
        }
        let resp = match p.wait {
            Wait::Fetch(f) if timed_out => f.resolve_timed_out(&self.server),
            Wait::Fetch(f) => f.resolve_now(&self.server),
            Wait::Deferred(d) => d.wait(),
        };
        c.reply(&resp);
        1 + self.service(token, now_ns)
    }

    /// Drop dead connections: cancel their deadline and close the
    /// sessions they opened.
    fn reap(&mut self) {
        for (i, slot) in self.conns.iter_mut().enumerate() {
            if !slot.as_ref().is_some_and(|c| c.dead) {
                continue;
            }
            let mut c = slot.take().expect("checked live");
            if let Some(t) = c.parked.take().and_then(|p| p.timer) {
                self.wheel.cancel(t);
            }
            for id in c.owned.drain(..) {
                self.server.close_session(id);
            }
            self.free.push(i);
        }
    }

    /// One `ReactorTick` span: `work` in the high half of the arg, open
    /// connections in the low half.
    fn tick_span(&mut self, t0: Option<Instant>, work: usize) {
        if viz_telemetry::enabled() {
            self.ticks += 1;
            let arg = ((work as u64) << 32) | self.open_conns() as u64;
            viz_telemetry::span(Ev::ReactorTick, self.ticks, arg, t0);
        }
    }
}

// ---------------------------------------------------------------------
// TCP driver
// ---------------------------------------------------------------------

/// A nonblocking socket and its buffers. Replies queue as whole encoded
/// frames and are written from there, so a multi-MB `FetchReply` is
/// never copied into a staging buffer or shifted after a partial write.
///
/// Both buffers are bounded the way a blocking connection is bounded by
/// TCP flow control: the socket is read only while no reply is queued
/// and no whole request is buffered, and nothing is dispatched while a
/// reply is queued. A client that pipelines requests without reading
/// replies therefore stalls in its own send buffer, holding at most one
/// request frame and one reply frame of server memory.
struct TcpPipe {
    stream: TcpStream,
    rbuf: Vec<u8>,
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written.
    sent: usize,
}

impl TcpPipe {
    /// A whole request frame is buffered (or a header the stream cannot
    /// resynchronize past, which `next_frame` reports).
    fn has_frame(&self) -> bool {
        self.rbuf.len() >= 8
            && frame_body_len(self.rbuf[..8].try_into().expect("8-byte slice"))
                .map_or(true, |n| self.rbuf.len() >= 8 + n)
    }

    /// Read interest: see the type docs.
    fn wants_read(&self) -> bool {
        self.out.is_empty() && !self.has_frame()
    }

    /// Read the socket into `rbuf` until it would block or a whole frame
    /// is buffered; `false` on EOF or a hard error.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        while !self.has_frame() {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Write queued replies until the socket would block; `false` on a
    /// hard error.
    fn flush(&mut self) -> bool {
        while let Some(front) = self.out.front() {
            match self.stream.write(&front[self.sent..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.sent += n;
                    if self.sent == front.len() {
                        self.out.pop_front();
                        self.sent = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

impl Pipe for TcpPipe {
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ()> {
        if self.rbuf.len() < 8 {
            return Ok(None);
        }
        let header: &[u8; 8] = self.rbuf[..8].try_into().expect("8-byte slice");
        let total = 8 + frame_body_len(header).map_err(|_| ())?;
        if self.rbuf.len() < total {
            return Ok(None);
        }
        Ok(Some(self.rbuf.drain(..total).collect()))
    }

    fn send(&mut self, frame: Vec<u8>) -> bool {
        self.out.push_back(frame);
        self.flush()
    }

    fn backlogged(&self) -> bool {
        !self.out.is_empty()
    }
}

/// Engine-completion wake: a self-connected loopback UDP socket in the
/// poll set. The engine's completion hook sends it a byte, so a loop
/// asleep in `poll(2)` learns about finished reads at once.
struct Wake {
    sock: UdpSocket,
}

impl Wake {
    fn install(engine: &FetchEngine) -> io::Result<Wake> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_nonblocking(true)?;
        sock.connect(sock.local_addr()?)?;
        let tx = sock.try_clone()?;
        engine.set_completion_hook(Some(Arc::new(move || {
            let _ = tx.send(&[1]);
        })));
        Ok(Wake { sock })
    }

    fn drain(&self) {
        let mut sink = [0u8; 64];
        while self.sock.recv(&mut sink).is_ok() {}
    }
}

/// A localhost TCP front end running every connection on one poll loop;
/// see the module docs for the model.
pub struct TcpServer {
    server: Arc<Server>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind and start the event loop. Use `"127.0.0.1:0"` for an
    /// OS-assigned port, read back via [`TcpServer::local_addr`].
    pub fn bind(server: Arc<Server>, addr: &str) -> io::Result<TcpServer> {
        TcpServer::bind_with(server, Arc::new(DefaultDispatch), addr)
    }

    /// [`TcpServer::bind`] with a custom [`RequestDispatch`] for every
    /// connection — how a cluster node exposes its ownership routing
    /// over TCP.
    pub fn bind_with(
        server: Arc<Server>,
        dispatch: Arc<dyn RequestDispatch>,
        addr: &str,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = Reactor::new(server.clone(), dispatch);
        let wake = Wake::install(server.engine())?;
        let event_loop = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("viz-serve-reactor".into())
                .spawn(move || run_tcp_loop(reactor, &listener, &wake, &stop))?
        };
        Ok(TcpServer { server, addr: local, stop, event_loop: Some(event_loop) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Stop the loop, close remaining connections, and drain.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the loop out of its poll with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        self.server.drain()
    }
}

fn run_tcp_loop(mut r: Reactor<TcpPipe>, listener: &TcpListener, wake: &Wake, stop: &AtomicBool) {
    use std::os::unix::io::AsRawFd;
    const CONN_BASE: usize = 2;
    let epoch = Instant::now();
    let mut tokens: Vec<u64> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let tt = viz_telemetry::start();
        let now_ns = epoch.elapsed().as_nanos() as u64;
        // Poll interest: the listener, the wake socket, and every
        // connection: write interest while replies are queued, read
        // interest per `TcpPipe::wants_read`. Errors and hangups are
        // reported either way.
        tokens.clear();
        fds.clear();
        fds.push(PollFd::new(listener.as_raw_fd(), POLL_IN));
        fds.push(PollFd::new(wake.sock.as_raw_fd(), POLL_IN));
        for (t, c) in r.live() {
            let ev = if !c.pipe.out.is_empty() {
                POLL_OUT
            } else if c.pipe.wants_read() {
                POLL_IN
            } else {
                0
            };
            tokens.push(t);
            fds.push(PollFd::new(c.pipe.stream.as_raw_fd(), ev));
        }
        // Parked fetches resolve on engine-worker time; the wake socket
        // reports that as readiness, so the loop sleeps to the next timer
        // deadline (bounded so shutdown and accept recover within a beat
        // even if a wake races the poll).
        let timeout_ms = match r.wheel.next_deadline_ns() {
            Some(d) => ((d.saturating_sub(now_ns)) / 1_000_000).clamp(1, 25) as i32,
            None => 25,
        };
        let events = poll_fds(&mut fds, timeout_ms).unwrap_or(0);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if fds[1].readable() {
            wake.drain();
        }
        if fds[0].readable() {
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                r.add(TcpPipe { stream, rbuf: Vec::new(), out: VecDeque::new(), sent: 0 });
            }
        }
        for (i, &token) in tokens.iter().enumerate() {
            let fd = fds[i + CONN_BASE];
            if let Some(c) = r.conn(token) {
                if fd.revents & (POLL_ERR | POLL_HUP) != 0
                    || (fd.readable() && !c.pipe.fill())
                    || (fd.writable() && !c.pipe.flush())
                {
                    c.dead = true;
                }
            }
            r.service(token, now_ns);
        }
        // Move queued work into the engine; its workers resolve tickets.
        r.server.pump();
        r.unpark(now_ns);
        r.expire(now_ns);
        r.reap();
        r.tick_span(tt, events);
    }
    // Loop stopped: close whatever is still connected.
    r.server.engine().set_completion_hook(None);
    for c in r.conns.iter_mut().flatten() {
        c.dead = true;
    }
    r.reap();
}

// ---------------------------------------------------------------------
// In-process driver
// ---------------------------------------------------------------------

impl Pipe for InProcTransport {
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ()> {
        self.try_recv().map_err(|_| ())
    }

    fn send(&mut self, frame: Vec<u8>) -> bool {
        Transport::send(self, &frame).is_ok()
    }

    fn backlogged(&self) -> bool {
        false
    }
}

/// The reactor over in-process frame pipes and a virtual clock.
/// [`InProcServer::connect`] hands back a client pipe whose sends mark a
/// [`ReadySet`] token — the stand-in for socket readability — and
/// [`InProcServer::tick`] runs the dispatch/park/unpark/expire cycle to
/// quiescence, stepping the engine inline
/// ([`viz_fetch::FetchEngine::run_batch`], so batched source reads are
/// exercised too). Deadlines come off the caller-advanced clock
/// ([`InProcServer::advance`]), never the wall.
pub struct InProcServer {
    reactor: Reactor<InProcTransport>,
    ready: Arc<ReadySet>,
    now_ns: u64,
}

impl InProcServer {
    /// Wrap a server (typically over a `workers = 0` engine).
    pub fn new(server: Arc<Server>) -> InProcServer {
        InProcServer {
            reactor: Reactor::new(server, Arc::new(DefaultDispatch)),
            ready: ReadySet::new(),
            now_ns: 0,
        }
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.reactor.server
    }

    /// The virtual clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Live connections.
    pub fn open_conns(&self) -> usize {
        self.reactor.open_conns()
    }

    /// Open a connection; the returned client end's sends wake the loop.
    pub fn connect(&mut self) -> InProcTransport {
        let (mut client, server_end) = inproc_pair();
        let h = self.ready.handle(self.reactor.add(server_end));
        client.set_notify(Arc::new(move || h.mark()));
        client
    }

    /// Advance the virtual clock; deadlines crossed fire on the next
    /// [`InProcServer::tick`].
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Probe every live connection on the next tick — the virtual
    /// counterpart of `POLLHUP`: a client end that was dropped without a
    /// `Close` is only observable by polling its pipe, so churn tests
    /// sweep periodically the way the TCP loop's `poll` reports hangups.
    pub fn sweep(&mut self) {
        for (t, _) in self.reactor.live() {
            self.ready.mark(t);
        }
    }

    /// Run the reactor cycle to quiescence: dispatch on ready
    /// connections, pump, step the engine (batched), unpark completed
    /// fetches, expire deadlines — until a full round makes no progress.
    /// Returns units of work done (requests + engine jobs + replies).
    pub fn tick(&mut self) -> usize {
        let tt = viz_telemetry::start();
        let r = &mut self.reactor;
        let mut total = 0;
        loop {
            let mut progress = 0;
            for token in self.ready.take_ready() {
                progress += r.service(token, self.now_ns);
            }
            r.server.pump();
            loop {
                let done = r.server.engine().run_batch();
                if done.is_empty() {
                    break;
                }
                progress += done.len();
            }
            progress += r.unpark(self.now_ns);
            progress += r.expire(self.now_ns);
            if progress == 0 {
                break;
            }
            total += progress;
        }
        r.reap();
        r.tick_span(tt, total);
        total
    }
}
