//! Node-to-node fetch over the VSRV protocol: a [`PeerLink`] is one
//! framed round trip to a peer, a [`PeerClient`] wraps it with session
//! lifecycle, bounded retry, and a per-peer circuit breaker reusing the
//! viz-fetch fault machinery.
//!
//! The client is deliberately pessimistic: any transport error drops the
//! link (the next attempt redials through the factory), an
//! `ERR_UNKNOWN_SESSION` reply drops only the session (the peer
//! restarted or drained us), and consecutive failures open the breaker
//! so a dead peer costs one probe per recovery window instead of a
//! timeout per key. Callers treat every [`PeerClient::fetch`] error as
//! "read it locally instead" — shared storage makes the fallback always
//! correct, so peer failure degrades locality, never availability.

use crate::shard::NodeId;
use std::io;
use std::net::TcpStream;
use std::time::Instant;
use viz_fetch::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use viz_serve::proto::{
    decode_response, encode_request, ERR_DRAINING, ERR_NO_MAP, ERR_UNKNOWN_SESSION,
};
use viz_serve::{BlockReply, Request, Response, TcpTransport, TraceCtx, Transport, WireTelemetry};
use viz_telemetry::{instant, span, EventKind as Ev};
use viz_volume::BlockKey;

/// One framed request→response round trip to a peer node. Implementations
/// are a live connection; errors mean the connection is unusable and the
/// owner should redial.
pub trait PeerLink: Send {
    /// Send `req`, block for the reply.
    fn round_trip(&mut self, req: &Request) -> io::Result<Response>;
}

/// Dials a fresh link to one peer; called on first use and after any
/// transport error.
pub type LinkFactory = Box<dyn Fn() -> io::Result<Box<dyn PeerLink>> + Send + Sync>;

/// Dials a fresh link to the named peer (shared by every [`PeerClient`]
/// of a node and by the router).
pub type Connector = dyn Fn(NodeId) -> io::Result<Box<dyn PeerLink>> + Send + Sync;

/// A [`PeerLink`] over localhost/LAN TCP.
pub struct TcpPeerLink {
    t: TcpTransport,
}

impl TcpPeerLink {
    /// Connect to a peer's VSRV listener.
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpPeerLink> {
        Ok(TcpPeerLink { t: TcpTransport::new(TcpStream::connect(addr)?) })
    }
}

impl PeerLink for TcpPeerLink {
    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        self.t.send(&encode_request(req))?;
        let frame = self.t.recv()?;
        Ok(decode_response(&frame)?)
    }
}

/// Peer-fetch tuning.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Retry policy for transient failures (transport drop, peer timeout).
    /// Deterministic clusters use [`RetryPolicy::none`] or `immediate`.
    pub retry: RetryPolicy,
    /// Per-peer circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Hop count stamped on outgoing `PeerFetch` frames. A node forwards
    /// at 1; receivers past the cap answer from local storage instead of
    /// forwarding again, bounding cycles under shard-map skew.
    pub hops: u8,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig { retry: RetryPolicy::default(), breaker: BreakerConfig::default(), hops: 1 }
    }
}

/// A resilient client for one peer node (see module docs).
pub struct PeerClient {
    self_id: NodeId,
    peer: NodeId,
    /// Session name on the peer; the `peer/` prefix tags the session as
    /// cluster traffic in the peer's registry and stats.
    name: String,
    factory: LinkFactory,
    cfg: PeerConfig,
    breaker: CircuitBreaker,
    link: Option<Box<dyn PeerLink>>,
    session: Option<u32>,
}

impl PeerClient {
    /// A client for `peer`, identifying itself as `self_id`.
    pub fn new(self_id: NodeId, peer: NodeId, factory: LinkFactory, cfg: PeerConfig) -> PeerClient {
        PeerClient {
            self_id,
            peer,
            name: format!("peer/{self_id}"),
            factory,
            cfg,
            breaker: CircuitBreaker::new(),
            link: None,
            session: None,
        }
    }

    /// The peer this client dials.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// The breaker's current state (tests and diagnostics).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Breaker transition counters: `(opens, half_opens, closes,
    /// rejected)`.
    pub fn breaker_counters(&self) -> (u64, u64, u64, u64) {
        self.breaker.counters()
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        if self.link.is_none() {
            self.link = Some((self.factory)()?);
            self.session = None;
        }
        let link = self.link.as_mut().expect("link just ensured");
        match link.round_trip(req) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                // Any transport failure poisons the connection; redial on
                // the next attempt.
                self.link = None;
                self.session = None;
                Err(e)
            }
        }
    }

    fn ensure_session(&mut self) -> io::Result<u32> {
        if let Some(s) = self.session {
            return Ok(s);
        }
        match self.call(&Request::Open { name: self.name.clone() })? {
            Response::OpenAck { session } => {
                self.session = Some(session);
                Ok(session)
            }
            Response::Error { code, message } if code == ERR_DRAINING => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, message))
            }
            Response::Error { message, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected OpenAck")),
        }
    }

    fn try_fetch(&mut self, demand: &[BlockKey]) -> io::Result<Vec<BlockReply>> {
        let session = self.ensure_session()?;
        // Forwarded demand keeps the originating client's trace id so the
        // owner's spans join the same cross-node tree.
        let trace = TraceCtx { trace: viz_telemetry::current_trace(), span: 0 };
        let req =
            Request::PeerFetch { session, hops: self.cfg.hops, demand: demand.to_vec(), trace };
        match self.call(&req)? {
            Response::FetchReply { blocks, .. } => Ok(blocks),
            Response::Error { code, message } if code == ERR_UNKNOWN_SESSION => {
                // Peer restarted or drained our session: transient —
                // the next attempt reopens.
                self.session = None;
                Err(io::Error::new(io::ErrorKind::Interrupted, message))
            }
            Response::Error { code, message } if code == ERR_DRAINING => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, message))
            }
            Response::Error { message, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected FetchReply")),
        }
    }

    /// Resolve `demand` on the peer: one `PeerFetch` round trip, with
    /// bounded retry on transient failures and the breaker gating
    /// attempts while the peer is presumed down. Returns one reply per
    /// key in request order.
    pub fn fetch(&mut self, demand: &[BlockKey]) -> io::Result<Vec<BlockReply>> {
        match self.breaker.state() {
            BreakerState::Closed => {}
            // We become the probe: the CAS flips Open → HalfOpen and
            // emits the BreakerHalfOpen transition.
            BreakerState::Open => self.breaker.on_demand_dispatch(),
            // Someone else's probe is in flight; fail fast so demand
            // falls back to local storage instead of queueing on a
            // presumed-dead peer.
            BreakerState::HalfOpen => {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "peer breaker probing"));
            }
        }
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.try_fetch(demand) {
                Ok(blocks) => {
                    self.breaker.on_success();
                    span(
                        Ev::PeerFetch,
                        u64::from(self.peer.0),
                        (demand.len() as u64) << 1 | 1,
                        Some(t0),
                    );
                    return Ok(blocks);
                }
                Err(e) => {
                    if self.cfg.retry.should_retry(e.kind(), attempt) {
                        let backoff = self.cfg.retry.backoff(attempt, u64::from(self.peer.0));
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        attempt += 1;
                        continue;
                    }
                    self.breaker.on_failure(self.cfg.breaker.failure_threshold);
                    span(
                        Ev::PeerFetch,
                        u64::from(self.peer.0),
                        (demand.len() as u64) << 1,
                        Some(t0),
                    );
                    return Err(e);
                }
            }
        }
    }

    /// One membership heartbeat: send `Ping` carrying our `map_version`,
    /// return the peer's `(node, map_version)` from its `Pong`.
    /// Sessionless and not breaker-gated — the heartbeat *is* the probe
    /// that detects recovery, so it must keep flowing while the breaker
    /// holds fetches back. Emits [`Ev::HeartbeatSent`] per attempt.
    pub fn ping(&mut self, map_version: u64) -> io::Result<(u32, u64)> {
        self.ping_timed(map_version).map(|(node, ver, _)| (node, ver))
    }

    /// [`PeerClient::ping`] that also returns the peer's telemetry clock
    /// (`now_ns`) — paired with the local send/receive instants it yields
    /// an RTT-midpoint clock-offset estimate for cross-node trace
    /// alignment.
    pub fn ping_timed(&mut self, map_version: u64) -> io::Result<(u32, u64, u64)> {
        instant(Ev::HeartbeatSent, u64::from(self.peer.0), map_version);
        let from = self.self_id.0;
        match self.call(&Request::Ping { from, map_version })? {
            Response::Pong { node, map_version, now_ns } => Ok((node, map_version, now_ns)),
            Response::Error { message, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected Pong")),
        }
    }

    /// Drain the peer's telemetry plane (events, histograms, counters) —
    /// the scrape collector's per-node round trip. Sessionless and not
    /// breaker-gated: observability must keep working while fetches are
    /// held back, or the trace of the outage loses exactly the node that
    /// matters.
    pub fn telemetry_get(&mut self) -> io::Result<WireTelemetry> {
        match self.call(&Request::TelemetryGet)? {
            Response::TelemetryReply(t) => Ok(t),
            Response::Error { message, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected TelemetryReply")),
        }
    }

    /// Fetch the peer's shard map: `(version, map_bytes)`. No session
    /// needed; not breaker-gated (map refresh is how recovery learns the
    /// cluster healed).
    pub fn map_get(&mut self) -> io::Result<(u64, Vec<u8>)> {
        match self.call(&Request::MapGet)? {
            Response::MapReply { version, map_bytes } => Ok((version, map_bytes)),
            Response::Error { code, message } if code == ERR_NO_MAP => {
                Err(io::Error::new(io::ErrorKind::NotFound, message))
            }
            Response::Error { message, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected MapReply")),
        }
    }

    /// Snapshot the peer's wire counters (the router's load probe).
    pub fn stats(&mut self) -> io::Result<Vec<(String, u64)>> {
        match self.call(&Request::Stats)? {
            Response::StatsReply { counters } => Ok(counters),
            Response::Error { message, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected StatsReply")),
        }
    }
}

/// Record a peer-fetch failure that fell back to the local path.
pub(crate) fn note_fallback(peer: NodeId, kind: io::ErrorKind) {
    instant(Ev::PeerFallback, u64::from(peer.0), u64::from(viz_serve::proto::errkind_code(kind)));
}
