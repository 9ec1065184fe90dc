//! One cluster node: a viz-serve [`Server`] whose engine reads through a
//! [`RoutedSource`] — keys this node owns read local storage, keys owned
//! elsewhere forward to their owner over VSRV ([`crate::peer`]).
//!
//! ## Why the source is the routing seam
//!
//! Putting the forward *inside* the node's fetch engine (rather than in
//! front of it) means every piece of single-node machinery applies to
//! remote keys for free: N local clients demanding one remote key
//! coalesce in the engine into **one** peer round trip (the same
//! cross-session coalescing that dedupes local reads), the block lands in
//! this node's pool so the next frame is a pool hit, and prefetch
//! admission/shedding treat remote keys like any other.
//!
//! ## Cycle safety
//!
//! A forward can only cycle if two nodes disagree about ownership (map
//! skew mid-reassignment). Three fences bound it: the node's dispatcher
//! answers a `PeerFetch` through its engine only when it owns *every*
//! key under its own map (otherwise it reads local storage directly —
//! shared storage makes that always correct); forwarded frames carry a
//! hop count that receivers refuse to extend past
//! [`ClusterConfig::max_hops`]; and any peer failure — including a
//! refused forward — falls back to a local read. Demand therefore never
//! errors because of cluster topology; skew costs locality, not
//! availability.

use crate::membership::{Membership, MembershipConfig};
use crate::peer::{note_fallback, Connector, PeerClient, PeerConfig};
use crate::shard::{NodeId, ShardMap};
use std::collections::HashMap;
use std::io;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_serve::proto::errkind_code;
use viz_serve::{
    handle_request, BlockReply, Deferred, Outcome, Request, RequestDispatch, Response, ServeConfig,
    Server,
};
use viz_telemetry::{instant, EventKind as Ev};
use viz_volume::{BlockKey, BlockSource};

/// Cluster-layer tuning for one node.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Peer-fetch behaviour (retry, breaker, outgoing hop stamp).
    pub peer: PeerConfig,
    /// Refuse to re-forward a `PeerFetch` whose hop count reaches this;
    /// answer from local storage instead.
    pub max_hops: u8,
    /// `true` resolves peer-forwarded fetches by stepping the `workers =
    /// 0` engine inline (the deterministic test cluster); `false` blocks
    /// on worker threads (real deployments).
    pub deterministic: bool,
    /// Replica candidates a demand read considers: the key's owner plus
    /// `read_replicas - 1` ring successors. The read goes to the first
    /// candidate the failure detector calls healthy, so a suspected
    /// owner costs nothing — the read routes around it up front.
    pub read_replicas: usize,
    /// When set, a remote demand read that has not answered within this
    /// wall-clock threshold triggers a hedged second read (the next
    /// replica — under shared storage, the local copy) and the first
    /// result wins. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Failure-detector tuning (heartbeat suspicion deadline).
    pub membership: MembershipConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            peer: PeerConfig::default(),
            max_hops: 2,
            deterministic: false,
            read_replicas: 2,
            hedge_after: None,
            membership: MembershipConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Tuning for the in-process deterministic cluster: inline engine
    /// stepping, no retry sleeps.
    pub fn deterministic() -> Self {
        ClusterConfig {
            peer: PeerConfig { retry: viz_fetch::RetryPolicy::none(), ..PeerConfig::default() },
            deterministic: true,
            ..ClusterConfig::default()
        }
    }
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Shard map + peer clients shared between the node and its engine's
/// [`RoutedSource`].
struct ClusterShared {
    self_id: NodeId,
    map: RwLock<Arc<ShardMap>>,
    connect: Arc<Connector>,
    peer_cfg: PeerConfig,
    /// One lazily-dialed client per peer, each behind its own lock so
    /// concurrent fetches to *different* peers proceed in parallel while
    /// fetches to the same peer serialize on its one connection.
    peers: Mutex<HashMap<u32, Arc<Mutex<PeerClient>>>>,
    /// The failure detector. Only the heartbeat path records evidence
    /// (note_ok / note_fail / sweep); the demand read path *consults* it
    /// ([`Membership::is_suspect`]) but never writes, so per-peer fetch
    /// fault handling (retry, breaker) keeps its own semantics.
    membership: Mutex<Membership>,
    read_replicas: usize,
    hedge_after: Option<Duration>,
}

impl ClusterShared {
    fn map(&self) -> Arc<ShardMap> {
        self.map.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Pick the node that serves a demand read of `key`: the first
    /// replica candidate (owner, then ring successors) that is either us
    /// or not currently suspect. Falls back to local — shared storage
    /// makes a local read always correct — when every candidate is
    /// suspect.
    fn route(&self, map: &ShardMap, key: BlockKey) -> NodeId {
        let candidates = map.owners(key, self.read_replicas.max(1));
        if candidates.is_empty() {
            return self.self_id;
        }
        let mem = relock(&self.membership);
        candidates
            .iter()
            .copied()
            .find(|&n| n == self.self_id || !mem.is_suspect(n))
            .unwrap_or(self.self_id)
    }

    fn peer(&self, id: NodeId) -> Arc<Mutex<PeerClient>> {
        let mut peers = relock(&self.peers);
        peers
            .entry(id.0)
            .or_insert_with(|| {
                let connect = self.connect.clone();
                Arc::new(Mutex::new(PeerClient::new(
                    self.self_id,
                    id,
                    Box::new(move || connect(id)),
                    self.peer_cfg.clone(),
                )))
            })
            .clone()
    }

    /// Race a peer fetch against a local read: the primary runs on a
    /// detached thread (a scoped join would block on the slow peer —
    /// exactly what hedging exists to avoid); if it has not answered
    /// within `threshold`, the calling thread reads locally and the
    /// first result wins. `Ok` is the primary's outcome (possibly late
    /// but preferred once it landed); `Err` carries local results that
    /// already resolved the read. The detached thread holds that peer's
    /// client lock until the slow fetch returns, so later fetches to the
    /// same peer serialize behind it — the price of not abandoning the
    /// connection.
    fn hedged_fetch(
        &self,
        owner: NodeId,
        keys: &[BlockKey],
        threshold: Duration,
        local: &Arc<dyn BlockSource>,
    ) -> Result<io::Result<Vec<BlockReply>>, Vec<io::Result<Vec<f32>>>> {
        let (tx, rx) = mpsc::channel();
        let peer = self.peer(owner);
        let keys_owned = keys.to_vec();
        std::thread::spawn(move || {
            let mut peer = relock(&peer);
            // The receiver gives up after its own local read; ignore a
            // closed channel.
            let _ = tx.send(peer.fetch(&keys_owned));
        });
        match rx.recv_timeout(threshold) {
            Ok(fetched) => Ok(fetched),
            Err(_) => {
                let local_results = local.read_blocks(keys);
                // Prefer a primary that landed while we were reading —
                // it came from the owner's warm pool.
                match rx.try_recv() {
                    Ok(Ok(blocks)) => {
                        instant(Ev::HedgedRead, u64::from(owner.0), 0);
                        Ok(Ok(blocks))
                    }
                    _ => {
                        instant(Ev::HedgedRead, u64::from(owner.0), 1);
                        Err(local_results)
                    }
                }
            }
        }
    }

    /// Fetch `keys` from `owner`, falling back to `local` per key (or
    /// whole-batch) on any peer failure. Results land in `out` at the
    /// positions named by `idxs`. Records no membership evidence: the
    /// heartbeat path owns suspicion, the read path only routes by it.
    fn peer_or_local(
        &self,
        owner: NodeId,
        keys: &[BlockKey],
        idxs: &[usize],
        local: &Arc<dyn BlockSource>,
        out: &mut [Option<io::Result<Vec<f32>>>],
    ) {
        let fetched = match self.hedge_after {
            Some(threshold) => match self.hedged_fetch(owner, keys, threshold, local) {
                Ok(f) => f,
                Err(local_results) => {
                    for (slot, r) in idxs.iter().zip(local_results) {
                        out[*slot] = Some(r);
                    }
                    return;
                }
            },
            None => {
                let peer = self.peer(owner);
                let mut peer = relock(&peer);
                peer.fetch(keys)
            }
        };
        match fetched {
            Ok(blocks) if blocks.len() == keys.len() => {
                for (slot, reply) in idxs.iter().zip(blocks) {
                    out[*slot] = Some(match reply.result {
                        Ok(data) => Ok(Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone())),
                        Err(code) => {
                            // The owner failed this one key; shared
                            // storage lets us retry locally.
                            note_fallback(owner, viz_serve::proto::errkind_from_code(code));
                            local.read_block(reply.key)
                        }
                    });
                }
            }
            Ok(_) | Err(_) => {
                let kind = match &fetched {
                    Err(e) => e.kind(),
                    Ok(_) => io::ErrorKind::InvalidData,
                };
                note_fallback(owner, kind);
                for (slot, r) in idxs.iter().zip(local.read_blocks(keys)) {
                    out[*slot] = Some(r);
                }
            }
        }
    }
}

/// The node's [`BlockSource`]: owned keys read `local`, remote keys
/// round-trip to the first *healthy* replica (owner, then ring
/// successors) with local fallback (see module docs).
pub struct RoutedSource {
    local: Arc<dyn BlockSource>,
    shared: Arc<ClusterShared>,
}

impl BlockSource for RoutedSource {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        let map = self.shared.map();
        let target = self.shared.route(&map, key);
        if target != self.shared.self_id {
            let mut out = [None];
            self.shared.peer_or_local(target, &[key], &[0], &self.local, &mut out);
            out[0].take().expect("peer_or_local fills every slot")
        } else {
            self.local.read_block(key)
        }
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        // Size probes stay local: shared storage answers them without a
        // round trip, and quota accounting only needs an estimate.
        self.local.block_bytes(key)
    }

    fn read_blocks(&self, keys: &[BlockKey]) -> Vec<io::Result<Vec<f32>>> {
        let map = self.shared.map();
        let mut out: Vec<Option<io::Result<Vec<f32>>>> = Vec::new();
        out.resize_with(keys.len(), || None);
        // Group request positions per routed target (first healthy
        // replica), preserving request order within each group.
        let mut local_keys = Vec::new();
        let mut local_idxs = Vec::new();
        let mut remote: HashMap<u32, (Vec<BlockKey>, Vec<usize>)> = HashMap::new();
        for (i, &key) in keys.iter().enumerate() {
            let target = self.shared.route(&map, key);
            if target != self.shared.self_id {
                let entry = remote.entry(target.0).or_default();
                entry.0.push(key);
                entry.1.push(i);
            } else {
                local_keys.push(key);
                local_idxs.push(i);
            }
        }
        if !local_keys.is_empty() {
            for (slot, r) in local_idxs.iter().zip(self.local.read_blocks(&local_keys)) {
                out[*slot] = Some(r);
            }
        }
        let mut owners: Vec<u32> = remote.keys().copied().collect();
        owners.sort();
        for owner in owners {
            let (ks, idxs) = &remote[&owner];
            self.shared.peer_or_local(NodeId(owner), ks, idxs, &self.local, &mut out);
        }
        out.into_iter().map(|r| r.expect("every slot fills")).collect()
    }
}

/// One sharded serve node (see module docs). Implements
/// [`RequestDispatch`] so a [`viz_serve::TcpServer::bind_with`] front end
/// routes every decoded request through the cluster layer.
///
/// That front end runs every connection on one event-loop thread, so
/// dispatch never waits on a peer, and a `PeerFetch`'s direct storage
/// reads run in an [`Outcome::Deferred`] unless the node is
/// deterministic (where the in-process transport serves each frame on
/// the caller's thread).
pub struct ClusterNode {
    id: NodeId,
    server: Arc<Server>,
    shared: Arc<ClusterShared>,
    local: Arc<dyn BlockSource>,
    cfg: ClusterConfig,
}

impl ClusterNode {
    /// Build a node over `local` storage with the initial `map`.
    /// `connect` dials peers (TCP in deployments, in-process links in
    /// tests); the engine and server are built here so their source is
    /// the node's [`RoutedSource`].
    pub fn new(
        id: NodeId,
        local: Arc<dyn BlockSource>,
        map: ShardMap,
        connect: impl Fn(NodeId) -> io::Result<Box<dyn crate::peer::PeerLink>> + Send + Sync + 'static,
        fetch_cfg: FetchConfig,
        serve_cfg: ServeConfig,
        cfg: ClusterConfig,
    ) -> Arc<ClusterNode> {
        let shared = Arc::new(ClusterShared {
            self_id: id,
            map: RwLock::new(Arc::new(map)),
            connect: Arc::new(connect),
            peer_cfg: cfg.peer.clone(),
            peers: Mutex::new(HashMap::new()),
            membership: Mutex::new(Membership::new(cfg.membership)),
            read_replicas: cfg.read_replicas,
            hedge_after: cfg.hedge_after,
        });
        let routed = Arc::new(RoutedSource { local: local.clone(), shared: shared.clone() });
        let engine = FetchEngine::spawn(routed, Arc::new(BlockPool::new()), fetch_cfg);
        let server = Server::new(Arc::new(engine), serve_cfg);
        Arc::new(ClusterNode { id, server, shared, local, cfg })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The wrapped serve layer.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// The shard map currently in force.
    pub fn map(&self) -> Arc<ShardMap> {
        self.shared.map()
    }

    /// Breaker transition counters `(opens, half_opens, closes,
    /// rejected)` for this node's client to `peer` — `None` until a
    /// fetch has actually dialed it.
    pub fn peer_breaker_counters(&self, peer: NodeId) -> Option<(u64, u64, u64, u64)> {
        let peers = relock(&self.shared.peers);
        peers.get(&peer.0).map(|p| relock(p).breaker_counters())
    }

    /// Peers this node's failure detector currently suspects, sorted.
    pub fn suspects(&self) -> Vec<NodeId> {
        relock(&self.shared.membership).suspects()
    }

    /// Whether this node's failure detector currently suspects `peer`.
    pub fn is_suspect(&self, peer: NodeId) -> bool {
        relock(&self.shared.membership).is_suspect(peer)
    }

    /// One membership round at `now` (the caller's monotonic clock —
    /// virtual ticks in tests, wall-clock milliseconds in deployments):
    /// ping every map peer, record the evidence, pull a newer shard map
    /// from any peer that advertises one (anti-entropy), then apply the
    /// suspicion deadline. Returns `(alive, suspect)` counts over the
    /// map's peers.
    pub fn heartbeat_tick(&self, now: u64) -> (usize, usize) {
        let map = self.shared.map();
        let mut alive = 0usize;
        for &peer in map.nodes() {
            if peer == self.id {
                continue;
            }
            let my_version = self.shared.map().version();
            let pinged = {
                let client = self.shared.peer(peer);
                let mut client = relock(&client);
                client.ping(my_version)
            };
            match pinged {
                Ok((_, their_version)) => {
                    alive += 1;
                    relock(&self.shared.membership).note_ok(peer, now);
                    if their_version > my_version {
                        // The peer is ahead: pull its map now rather
                        // than waiting to fail a misrouted fetch.
                        let _ = self.pull_map_from(peer);
                    }
                }
                Err(_) => {
                    relock(&self.shared.membership).note_fail(peer);
                }
            }
        }
        let suspect = {
            let mut mem = relock(&self.shared.membership);
            mem.sweep(now);
            mem.suspects().into_iter().filter(|&n| map.contains(n)).count()
        };
        (alive, suspect)
    }

    /// Pull `peer`'s shard map and install it if newer than ours.
    /// Returns whether a newer map was installed.
    pub fn pull_map_from(&self, peer: NodeId) -> io::Result<bool> {
        let (version, bytes) = {
            let client = self.shared.peer(peer);
            let mut client = relock(&client);
            client.map_get()?
        };
        if version <= self.shared.map().version() {
            return Ok(false);
        }
        let map = crate::shard::ShardMap::decode(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(self.install_map(map))
    }

    /// Install `map` if it is newer than the current one; returns whether
    /// it was installed. Reassignment control planes push the same map to
    /// every node; version ordering makes the push idempotent and
    /// tolerant of reordering.
    pub fn install_map(&self, map: ShardMap) -> bool {
        let mut cur = self.shared.map.write().unwrap_or_else(|p| p.into_inner());
        if map.version() <= cur.version() {
            return false;
        }
        instant(Ev::MapUpdate, u64::from(self.id.0), map.version());
        *cur = Arc::new(map);
        true
    }

    /// The node id as stamped on telemetry events: `NodeId + 1`, so node
    /// 0 stays the "client / unattributed" sentinel in merged traces.
    fn node_tag(&self) -> u16 {
        (self.id.0 as u16).saturating_add(1)
    }

    /// Serve one already-framed request synchronously on the calling
    /// thread — the deterministic in-process transport. Fetches pump the
    /// scheduler and step the inline engine to idle (recursing into peer
    /// nodes through their own `serve_frame` when a read forwards).
    /// Stamps every telemetry event emitted while serving with this
    /// node's id.
    pub fn serve_frame(&self, frame: &[u8]) -> Vec<u8> {
        viz_telemetry::with_node(self.node_tag(), || {
            let resp = match viz_serve::proto::decode_request(frame) {
                Ok(req) => match self.dispatch(&self.server, req) {
                    Outcome::Ready(r) => r,
                    Outcome::Fetch(p) => {
                        self.server.pump();
                        if self.cfg.deterministic {
                            self.server.engine().run_until_idle();
                            p.resolve_now(&self.server)
                        } else {
                            p.wait(&self.server)
                        }
                    }
                    Outcome::Deferred(d) => d.wait(),
                },
                Err(pe) => Response::Error { code: pe.code(), message: pe.to_string() },
            };
            viz_serve::proto::encode_response(&resp)
        })
    }

    /// Answer a `PeerFetch` without engine submission: straight local
    /// reads (shared storage), used past the hop cap and under map skew.
    /// The reads run on their own thread unless the node is
    /// deterministic.
    fn peer_direct(&self, session: u32, demand: Vec<BlockKey>, trace: u64) -> Outcome {
        self.server.record_peer_direct(demand.len() as u64);
        let local = self.local.clone();
        let read = move || {
            let results = if trace != 0 {
                viz_telemetry::with_trace(trace, || local.read_blocks(&demand))
            } else {
                local.read_blocks(&demand)
            };
            let blocks = demand
                .into_iter()
                .zip(results)
                .map(|(key, r)| BlockReply {
                    key,
                    result: r.map(Arc::new).map_err(|e| errkind_code(e.kind())),
                })
                .collect();
            Response::FetchReply { session, blocks, shed: 0, downgraded: 0 }
        };
        if self.cfg.deterministic {
            Outcome::Ready(read())
        } else {
            let tag = self.node_tag();
            Outcome::Deferred(Deferred::spawn(&self.server, move || {
                viz_telemetry::with_node(tag, read)
            }))
        }
    }
}

impl RequestDispatch for ClusterNode {
    fn dispatch(&self, server: &Arc<Server>, req: Request) -> Outcome {
        // Every event emitted while this node serves — dispatch, pump,
        // inline engine steps — carries the node's id, so a merged
        // cluster trace can tell the owner's spans from the peer's.
        viz_telemetry::with_node(self.node_tag(), || self.dispatch_inner(server, req))
    }
}

impl ClusterNode {
    fn dispatch_inner(&self, server: &Arc<Server>, req: Request) -> Outcome {
        match req {
            Request::MapGet => {
                let m = self.shared.map();
                Outcome::Ready(Response::MapReply { version: m.version(), map_bytes: m.encode() })
            }
            Request::TelemetryGet => {
                // The serve layer answers with the client sentinel; the
                // cluster layer knows which node it is.
                Outcome::Ready(Response::TelemetryReply(server.wire_telemetry(self.id.0)))
            }
            Request::Ping { .. } => {
                // Anti-entropy: a behind sender pulls off our Pong. If we
                // are the one behind, our own heartbeat's Pong from the
                // sender says so and that pull runs on the heartbeat
                // thread: pulling here would hold the event loop on a
                // peer round trip (and two nodes pinging each other
                // would each wait on the other's loop).
                // Deliberately NOT positive membership evidence: under
                // an asymmetric partition the isolated node's outbound
                // pings still arrive, and admitting them would keep
                // clearing the suspicion that routes reads around it.
                // Evidence is directional — only our own probe
                // succeeding proves *we* can reach the peer.
                Outcome::Ready(Response::Pong {
                    node: self.id.0,
                    map_version: self.shared.map().version(),
                    now_ns: viz_telemetry::now_ns(),
                })
            }
            Request::PeerFetch { session, hops, demand, trace } => {
                let map = self.shared.map();
                let all_owned = demand.iter().all(|&k| map.owner(k) == Some(self.id));
                if hops < self.cfg.max_hops && all_owned {
                    // Normal ownership: resolve through the engine so
                    // concurrent peers coalesce and the pool warms.
                    handle_request(server, Request::PeerFetch { session, hops, demand, trace })
                } else {
                    self.peer_direct(session, demand, trace.trace)
                }
            }
            other => handle_request(server, other),
        }
    }
}
