//! A typed client over any [`Transport`]: encodes requests, decodes
//! replies, tracks the open session.
//!
//! The blocking calls (`open`, `fetch`, …) suit a client thread talking
//! to a [`crate::TcpServer`]. The split `send_*` / `recv_*` halves let a
//! caller put requests on the wire *before* anything serves them: the
//! deterministic tests send, step the [`crate::InProcServer`] with
//! `tick`, and only then read the replies, and a TCP client can pipeline
//! several requests on one connection.

use crate::proto::{
    decode_response, encode_request, BlockReply, ProtoError, Request, Response, TraceCtx,
    WireTelemetry,
};
use crate::transport::Transport;
use std::io;
use viz_volume::BlockKey;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (peer gone, socket error).
    Io(io::Error),
    /// The reply frame did not decode.
    Proto(ProtoError),
    /// The server answered with a typed error.
    Server {
        /// One of the wire `ERR_*` codes.
        code: u16,
        /// Server-provided context.
        message: String,
    },
    /// The server answered with the wrong response kind.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response, wanted {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One `fetch` round trip's result.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// One entry per demand key, in request order.
    pub blocks: Vec<BlockReply>,
    /// Prefetches the server shed.
    pub shed: u32,
    /// Prefetches admitted at reduced priority.
    pub downgraded: u32,
}

/// A connected client (see module docs).
pub struct ServeClient<T: Transport> {
    t: T,
    session: Option<u32>,
    trace: TraceCtx,
}

impl<T: Transport> ServeClient<T> {
    /// Wrap a connected transport.
    pub fn new(t: T) -> Self {
        ServeClient { t, session: None, trace: TraceCtx::NONE }
    }

    /// The open session id, once [`ServeClient::open`] succeeded.
    pub fn session(&self) -> Option<u32> {
        self.session
    }

    /// Set the trace context stamped on subsequent `Fetch` / `Advance` /
    /// `PeerFetch` frames (the Router mints one per client request).
    /// Returns the previous context.
    pub fn set_trace_ctx(&mut self, trace: TraceCtx) -> TraceCtx {
        std::mem::replace(&mut self.trace, trace)
    }

    /// The trace context currently stamped on traced requests.
    pub fn trace_ctx(&self) -> TraceCtx {
        self.trace
    }

    fn sid(&self) -> Result<u32, ClientError> {
        self.session.ok_or(ClientError::Unexpected("an open session"))
    }

    // ---- blocking round trips -------------------------------------

    /// Open a session under `name`.
    pub fn open(&mut self, name: &str) -> Result<u32, ClientError> {
        self.send_open(name)?;
        self.recv_open()
    }

    /// One frame's wants: demand keys plus `(key, priority)` prefetch.
    pub fn fetch(
        &mut self,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<FetchOutcome, ClientError> {
        self.send_fetch(0, demand, prefetch)?;
        self.recv_fetch()
    }

    /// Fetch under an explicit generation (stale generations shed).
    pub fn fetch_at(
        &mut self,
        generation: u64,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<FetchOutcome, ClientError> {
        self.send_fetch(generation, demand, prefetch)?;
        self.recv_fetch()
    }

    /// Advance the frame generation; returns the new generation.
    pub fn advance(&mut self) -> Result<u64, ClientError> {
        self.send_advance()?;
        match self.recv_response()? {
            Response::AdvanceAck { generation, .. } => Ok(generation),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("AdvanceAck")),
        }
    }

    /// Snapshot the server's counters.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        self.send_stats()?;
        match self.recv_response()? {
            Response::StatsReply { counters } => Ok(counters),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("StatsReply")),
        }
    }

    /// Fetch the server's shard map (cluster nodes answer; a plain
    /// server replies `ERR_NO_MAP`). Returns `(version, map_bytes)`.
    pub fn map_get(&mut self) -> Result<(u64, Vec<u8>), ClientError> {
        self.send(&Request::MapGet)?;
        match self.recv_response()? {
            Response::MapReply { version, map_bytes } => Ok((version, map_bytes)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("MapReply")),
        }
    }

    /// Membership heartbeat: probe the server's liveness and shard-map
    /// version. `from` is the caller's node id, or
    /// [`crate::proto::PING_FROM_CLIENT`] for a plain client probe.
    /// Returns the responder's `(node, map_version)`.
    pub fn ping(&mut self, from: u32, map_version: u64) -> Result<(u32, u64), ClientError> {
        self.ping_timed(from, map_version).map(|(node, ver, _)| (node, ver))
    }

    /// [`ServeClient::ping`] that also returns the responder's telemetry
    /// clock (`now_ns`) — the raw material for an RTT-midpoint clock
    /// offset estimate.
    pub fn ping_timed(
        &mut self,
        from: u32,
        map_version: u64,
    ) -> Result<(u32, u64, u64), ClientError> {
        self.send(&Request::Ping { from, map_version })?;
        match self.recv_response()? {
            Response::Pong { node, map_version, now_ns } => Ok((node, map_version, now_ns)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("Pong")),
        }
    }

    /// Drain the server's telemetry plane: events, span histograms, and
    /// counters in one round trip.
    pub fn telemetry_get(&mut self) -> Result<WireTelemetry, ClientError> {
        self.send(&Request::TelemetryGet)?;
        match self.recv_response()? {
            Response::TelemetryReply(t) => Ok(t),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("TelemetryReply")),
        }
    }

    /// Node-to-node demand forward: resolve `demand` on this server as
    /// the owner. Requires an open (peer) session.
    pub fn peer_fetch(
        &mut self,
        hops: u8,
        demand: Vec<BlockKey>,
    ) -> Result<FetchOutcome, ClientError> {
        let session = self.sid()?;
        let trace = self.trace;
        self.send(&Request::PeerFetch { session, hops, demand, trace })?;
        self.recv_fetch()
    }

    /// Close the open session.
    pub fn close(&mut self) -> Result<(), ClientError> {
        self.send_close()?;
        match self.recv_response()? {
            Response::CloseAck { .. } => {
                self.session = None;
                Ok(())
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("CloseAck")),
        }
    }

    // ---- split halves (deterministic stepping) --------------------

    /// Put an `Open` on the wire without waiting for the ack.
    pub fn send_open(&mut self, name: &str) -> Result<(), ClientError> {
        self.send(&Request::Open { name: name.to_string() })
    }

    /// Put a `Fetch` on the wire without waiting for the reply.
    pub fn send_fetch(
        &mut self,
        generation: u64,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<(), ClientError> {
        let session = self.sid()?;
        let trace = self.trace;
        self.send(&Request::Fetch { session, generation, demand, prefetch, trace })
    }

    /// Put an `Advance` on the wire without waiting for the ack.
    pub fn send_advance(&mut self) -> Result<(), ClientError> {
        let session = self.sid()?;
        let trace = self.trace;
        self.send(&Request::Advance { session, trace })
    }

    /// Put a `Stats` on the wire without waiting for the reply.
    pub fn send_stats(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Stats)
    }

    /// Put a `Close` on the wire without waiting for the ack.
    pub fn send_close(&mut self) -> Result<(), ClientError> {
        let session = self.sid()?;
        self.send(&Request::Close { session })
    }

    /// Send a raw request frame (corruption tests build their own).
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), ClientError> {
        Ok(self.t.send(frame)?)
    }

    /// Receive and decode the next response frame.
    pub fn recv_response(&mut self) -> Result<Response, ClientError> {
        let frame = self.t.recv()?;
        Ok(decode_response(&frame)?)
    }

    /// Receive an `OpenAck`, recording the session id.
    pub fn recv_open(&mut self) -> Result<u32, ClientError> {
        match self.recv_response()? {
            Response::OpenAck { session } => {
                self.session = Some(session);
                Ok(session)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("OpenAck")),
        }
    }

    /// Receive a `FetchReply`.
    pub fn recv_fetch(&mut self) -> Result<FetchOutcome, ClientError> {
        match self.recv_response()? {
            Response::FetchReply { blocks, shed, downgraded, .. } => {
                Ok(FetchOutcome { blocks, shed, downgraded })
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("FetchReply")),
        }
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        Ok(self.t.send(&encode_request(req))?)
    }
}
