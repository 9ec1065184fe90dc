//! # viz-serve — multi-client block/frame server
//!
//! One shared [`viz_fetch::FetchEngine`] + [`viz_fetch::BlockPool`]
//! serving many visualization clients at once. The paper's replacement
//! policy and fetch overlap assume a single viewer; this crate is the
//! layer that lets N viewers share the machinery without sharing fate:
//!
//! - [`proto`] — a length-prefixed, CRC-framed, versioned binary wire
//!   protocol (Open / Close / Fetch / Advance / Stats request–response
//!   pairs). Corruption decodes to typed [`proto::ProtoError`]s, never
//!   panics, mirroring the persist codecs' contract.
//! - [`transport`] — frame pipes: an in-process pair for deterministic
//!   tests, localhost TCP for real connections.
//! - [`registry`] — per-session identity: generation counter, optional
//!   server-side [`viz_core::ClientFlight`], accounting.
//! - [`server`] — the tenant layer: deficit-round-robin fairness across
//!   sessions within each priority class, per-client quotas, a load-shed
//!   ladder that rejects or downgrades prefetch (never demand) under
//!   pressure, graceful drain, and per-client telemetry through the
//!   `viz_telemetry` rings. Duplicate keys across *different* clients
//!   coalesce into one source read inside the shared engine.
//! - [`reactor`] — the front end: one event loop runs every connection's
//!   dispatch → park → unpark/expire → reap cycle, with demand deadlines
//!   on a timer wheel and no thread per client. [`TcpServer`] drives it
//!   with `poll(2)` and the wall clock; [`InProcServer`] drives the same
//!   state machine over in-process pipes on a virtual clock, for
//!   deterministic tests and the thousand-session soak suite.
//! - [`client`] — a typed client over any transport, with split
//!   send/recv halves for deterministic ticking and pipelining.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use viz_fetch::{BlockPool, FetchEngine};
//! use viz_serve::{InProcServer, ServeClient, ServeConfig, Server};
//! use viz_volume::{BlockId, BlockKey, MemBlockStore};
//!
//! let store = MemBlockStore::new();
//! store.insert(BlockKey::scalar(BlockId(7)), vec![1.5; 8]);
//! let engine = FetchEngine::deterministic(Arc::new(store), Arc::new(BlockPool::new()));
//! let server = Server::new(Arc::new(engine), ServeConfig::default());
//!
//! let mut inproc = InProcServer::new(server);
//! let mut client = ServeClient::new(inproc.connect());
//! client.send_open("viewer").unwrap();
//! inproc.tick();
//! client.recv_open().unwrap();
//!
//! client.send_fetch(0, vec![BlockKey::scalar(BlockId(7))], vec![]).unwrap();
//! inproc.tick();
//! let got = client.recv_fetch().unwrap();
//! assert_eq!(got.blocks[0].result.as_ref().unwrap()[0], 1.5);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod reactor;
pub mod registry;
mod sched;
pub mod server;
pub mod transport;

pub use client::{ClientError, FetchOutcome, ServeClient};
pub use proto::{
    BlockReply, HistSnapshot, ProtoError, Request, Response, TraceCtx, WireTelemetry,
    MAX_FRAME_BYTES, PROTO_VERSION,
};
pub use reactor::{InProcServer, TcpServer};
pub use registry::{SessionId, SessionView};
pub use server::{
    handle_request, DefaultDispatch, Deferred, DrainReport, LadderConfig, Outcome, PendingFetch,
    RequestDispatch, ServeConfig, ServeError, ServeMetrics, Server, ShedReason, Submission,
};
pub use transport::{inproc_pair, InProcTransport, TcpTransport, Transport};
