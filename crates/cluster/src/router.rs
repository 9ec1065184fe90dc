//! The client-side router: holds the shard map, splits each frame's
//! demand across owner nodes in per-node batches, sends the batches
//! concurrently (one scoped thread per node, joined before the call
//! returns — this is what makes an N-node cold frame approach 1/N of
//! the single-node time instead of paying N sequential round trips),
//! merges the replies back into request order, and fails over when an
//! owner stops answering.
//!
//! ## Failover without a control plane
//!
//! [`crate::ShardMap::owners`] lists a key's owner followed by its ring
//! successors — the exact nodes the key reassigns to if the owner
//! leaves. The router retries a failed key against those successors, so
//! routing's fallback order and the control plane's reassignment agree
//! by construction: when the new map arrives the router is already
//! talking to the right node, the map refresh just makes it official.
//!
//! ## Load-aware tie-breaking
//!
//! Every node's `Stats` reply carries its engine queue depths
//! (`engine_queue_demand` + `engine_queue_prefetch`). When the primary
//! owner's backlog exceeds the first fallback's by more than
//! [`RouterConfig::spill_depth`], the router sends the batch to the
//! fallback instead — shared storage means any node *can* serve any key;
//! ownership is a locality optimization, not a correctness constraint.
//!
//! A batch sent to a node that does *not* own its keys (spill, or
//! failover before the survivors reassigned) goes out as a hop-capped
//! `PeerFetch` rather than a plain `Fetch`: the receiving node's own
//! router-at-the-source would otherwise forward the keys straight back
//! to the overloaded or dead owner. The hop cap makes the receiver read
//! its local storage directly — which is the entire point of the spill.

use crate::peer::{Connector, PeerLink};
use crate::shard::{NodeId, ShardMap};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use viz_serve::proto::{ERR_DRAINING, ERR_UNKNOWN_SESSION, PING_FROM_CLIENT};
use viz_serve::{BlockReply, Request, Response, TraceCtx};
use viz_telemetry::{instant, span, EventKind as Ev};
use viz_volume::BlockKey;

/// Hop count stamped on an off-owner batch: past every node's
/// `max_hops`, so the receiver answers from local storage instead of
/// forwarding onward (see module docs).
const DIRECT_HOPS: u8 = u8::MAX;

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Candidate nodes considered per key (owner + `candidates - 1` ring
    /// successors). Raising it tolerates more simultaneous node loss.
    pub candidates: usize,
    /// Routing rounds per [`Router::fetch`] before unresolved keys give
    /// up. Each round regroups the still-pending keys under the freshest
    /// map, so one round per tolerated failure is enough.
    pub max_rounds: u32,
    /// Send a batch to the first fallback instead of the owner when the
    /// owner's queue backlog exceeds the fallback's by more than this.
    pub spill_depth: u64,
    /// While any node is marked down, probe it with a `Ping` every this
    /// many frames (0 disables) — a crashed-then-restarted node resumes
    /// taking traffic without waiting for a map change.
    pub probe_every: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { candidates: 2, max_rounds: 3, spill_depth: 512, probe_every: 8 }
    }
}

/// One frame's merged routing outcome.
#[derive(Debug)]
pub struct RouterReply {
    /// One reply per demand key, in request order.
    pub blocks: Vec<BlockReply>,
    /// Prefetch entries shed — by node admission, or dropped here
    /// because their owner was down.
    pub shed: u64,
    /// Prefetch entries the nodes admitted at reduced priority.
    pub downgraded: u64,
    /// Routing rounds the frame needed (1 = every owner answered).
    pub rounds: u32,
}

struct NodeConn {
    link: Option<Box<dyn PeerLink>>,
    session: Option<u32>,
    down: bool,
}

impl NodeConn {
    fn fresh() -> NodeConn {
        NodeConn { link: None, session: None, down: false }
    }
}

/// A sharded-cluster client (see module docs). One router holds one
/// session per node; viewers each own a router.
pub struct Router {
    name: String,
    map: Arc<ShardMap>,
    connect: Arc<Connector>,
    cfg: RouterConfig,
    conns: HashMap<u32, NodeConn>,
    /// Last observed queue backlog per node (from `Stats`, or
    /// [`Router::note_load`] in tests).
    loads: HashMap<u32, u64>,
    /// Frames routed so far (drives the periodic down-node probe).
    frames: u64,
    /// Per-node clock-offset estimates from [`Router::sync_clocks`]
    /// (ns to add to that node's event timestamps).
    offsets: HashMap<u32, i64>,
}

/// Mint the trace id for one routed frame: a hash of the router's name
/// and its frame counter, so concurrent routers mint distinct ids and a
/// deterministic test run mints the same ids every time. Never 0 (the
/// "untraced" sentinel).
fn mint_trace(name: &str, frame: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finisher over (name hash ⊕ frame).
    let mut z = h ^ frame.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

impl Router {
    /// A router named `name` (its per-node sessions open as
    /// `router/<name>`) over an initial `map`; `connect` dials nodes.
    pub fn new(name: &str, map: ShardMap, connect: Arc<Connector>, cfg: RouterConfig) -> Router {
        Router {
            name: name.to_string(),
            map: Arc::new(map),
            connect,
            cfg,
            conns: HashMap::new(),
            loads: HashMap::new(),
            frames: 0,
            offsets: HashMap::new(),
        }
    }

    /// The map currently routing.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.clone()
    }

    /// Install `map` if newer; returns whether it replaced the current
    /// one.
    pub fn install_map(&mut self, map: ShardMap) -> bool {
        if map.version() <= self.map.version() {
            return false;
        }
        self.map = Arc::new(map);
        // A new membership is fresh evidence: nodes it still lists get
        // another chance even if we marked them down.
        for (id, conn) in &mut self.conns {
            if conn.down && self.map.contains(NodeId(*id)) {
                conn.down = false;
            }
        }
        true
    }

    /// Nodes currently marked unreachable.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.conns.iter().filter(|(_, c)| c.down).map(|(&id, _)| NodeId(id)).collect();
        v.sort();
        v
    }

    /// Record a node's queue backlog (tests; production uses
    /// [`Router::refresh_loads`]).
    pub fn note_load(&mut self, node: NodeId, backlog: u64) {
        self.loads.insert(node.0, backlog);
    }

    /// Poll every live node's `Stats` and record its engine queue
    /// backlog for spill decisions. Returns nodes successfully polled.
    pub fn refresh_loads(&mut self) -> usize {
        let mut polled = 0;
        for node in self.map.clone().nodes() {
            if self.conns.get(&node.0).is_some_and(|c| c.down) {
                continue;
            }
            if let Ok(Response::StatsReply { counters }) = self.round_trip(*node, &Request::Stats) {
                let backlog: u64 = counters
                    .iter()
                    .filter(|(n, _)| n == "engine_queue_demand" || n == "engine_queue_prefetch")
                    .map(|(_, v)| v)
                    .sum();
                self.loads.insert(node.0, backlog);
                polled += 1;
            }
        }
        polled
    }

    /// Ask any live node for its map and install it if newer. Returns
    /// whether a newer map was installed.
    pub fn refresh_map(&mut self) -> bool {
        for node in self.map.clone().nodes() {
            if self.conns.get(&node.0).is_some_and(|c| c.down) {
                continue;
            }
            if let Ok(Response::MapReply { version, map_bytes }) =
                self.round_trip(*node, &Request::MapGet)
            {
                if version > self.map.version() {
                    if let Ok(m) = ShardMap::decode(&map_bytes) {
                        return self.install_map(m);
                    }
                }
                // Same or older version: the cluster agrees with us.
                return false;
            }
        }
        false
    }

    /// Probe every map node with a `Ping` heartbeat: an answer re-admits
    /// a node previously marked down (emitting [`Ev::NodeRecovered`]),
    /// and a node advertising a newer shard map gets its map pulled and
    /// installed before any demand fetch pays for the skew. Returns the
    /// number of nodes that answered.
    pub fn heartbeat(&mut self) -> usize {
        let nodes: Vec<NodeId> = self.map.nodes().to_vec();
        nodes.into_iter().filter(|&n| self.probe(n)).count()
    }

    /// Probe only the nodes currently marked down (the cheap revival
    /// path [`Router::fetch`] runs every [`RouterConfig::probe_every`]
    /// frames). Returns how many recovered.
    pub fn probe_down(&mut self) -> usize {
        self.down_nodes().into_iter().filter(|&n| self.probe(n)).count()
    }

    /// One `Ping` round trip to `node`, attempted even while it is
    /// marked down — the probe *is* how a down node earns its way back.
    fn probe(&mut self, node: NodeId) -> bool {
        let my_version = self.map.version();
        let was_down = {
            let conn = self.conn(node);
            let was = conn.down;
            // Clear the down gate for the attempt; a transport failure
            // inside `round_trip` re-marks it.
            conn.down = false;
            was
        };
        let req = Request::Ping { from: PING_FROM_CLIENT, map_version: my_version };
        match self.round_trip(node, &req) {
            Ok(Response::Pong { map_version, .. }) => {
                if was_down {
                    instant(Ev::NodeRecovered, u64::from(node.0), 0);
                }
                if map_version > my_version {
                    // The node is ahead of us: pull its map now so the
                    // next frame routes under current membership.
                    if let Ok(Response::MapReply { version, map_bytes }) =
                        self.round_trip(node, &Request::MapGet)
                    {
                        if version > self.map.version() {
                            if let Ok(m) = ShardMap::decode(&map_bytes) {
                                self.install_map(m);
                            }
                        }
                    }
                }
                true
            }
            Ok(_) => {
                // Answered, but not with a Pong: keep the prior verdict.
                self.conn(node).down = was_down;
                false
            }
            Err(_) => false,
        }
    }

    /// Route one frame: demand split per owner, prefetch attached to
    /// each key's owner batch, failed batches retried against ring
    /// successors across up to [`RouterConfig::max_rounds`] rounds (with
    /// a map refresh between rounds once anything failed). Unresolved
    /// keys report `TimedOut`; the call itself only errs when *no* node
    /// is reachable at all.
    pub fn fetch(&mut self, demand: Vec<BlockKey>, prefetch: Vec<(BlockKey, f64)>) -> RouterReply {
        self.frames = self.frames.wrapping_add(1);
        // Every frame gets one trace id, stamped on every batch it fans
        // out — the root of the cross-node span tree.
        let trace = mint_trace(&self.name, self.frames);
        let ctx = TraceCtx { trace, span: 0 };
        let t0 = viz_telemetry::start();
        let demand_n = demand.len() as u64;
        if self.cfg.probe_every > 0
            && self.frames % u64::from(self.cfg.probe_every) == 0
            && self.conns.values().any(|c| c.down)
        {
            self.probe_down();
        }
        let mut results: Vec<Option<Result<Arc<Vec<f32>>, u16>>> = Vec::new();
        results.resize_with(demand.len(), || None);
        let mut attempted: Vec<Vec<NodeId>> = vec![Vec::new(); demand.len()];
        let (mut shed, mut downgraded, mut rounds) = (0u64, 0u64, 0u32);

        // Prefetch rides along exactly once, grouped by primary owner;
        // entries owned by a down node shed here (speculation is not
        // worth a failover round trip).
        let mut prefetch_by_node: HashMap<u32, Vec<(BlockKey, f64)>> = HashMap::new();
        for (key, pri) in prefetch {
            match self.map.owner(key) {
                Some(owner) => prefetch_by_node.entry(owner.0).or_default().push((key, pri)),
                None => shed += 1,
            }
        }

        while rounds < self.cfg.max_rounds {
            let pending: Vec<usize> = (0..demand.len()).filter(|&i| results[i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            rounds += 1;
            // Group this round's keys by chosen node, split by whether
            // the node owns them (off-owner batches go out hop-capped).
            let mut groups: HashMap<(u32, bool), Vec<usize>> = HashMap::new();
            let mut routable = false;
            for &i in &pending {
                if let Some(node) = self.pick(demand[i], &attempted[i]) {
                    let direct = self.map.owner(demand[i]) != Some(node);
                    groups.entry((node.0, direct)).or_default().push(i);
                    routable = true;
                }
            }
            if !routable {
                break;
            }
            let mut batches: Vec<(u32, bool)> = groups.keys().copied().collect();
            batches.sort();
            // One job per node; a node serving both an owner batch and a
            // direct (spill/failover) batch this round gets both, in
            // order, on its one connection.
            type Batch = (bool, Vec<usize>, Vec<BlockKey>, Vec<(BlockKey, f64)>);
            let mut jobs: Vec<(u32, Vec<Batch>)> = Vec::new();
            for (nid, direct) in batches {
                let idxs = groups.remove(&(nid, direct)).expect("batch key came from groups");
                let keys: Vec<BlockKey> = idxs.iter().map(|&i| demand[i]).collect();
                // Prefetch rides only with an owner batch; a spill target
                // has no use speculating on blocks it does not own.
                let pf = if direct {
                    Vec::new()
                } else {
                    prefetch_by_node.remove(&nid).unwrap_or_default()
                };
                for &i in &idxs {
                    attempted[i].push(NodeId(nid));
                }
                match jobs.last_mut() {
                    Some((last, list)) if *last == nid => list.push((direct, idxs, keys, pf)),
                    _ => jobs.push((nid, vec![(direct, idxs, keys, pf)])),
                }
            }
            // Fan the round out: each node's batches run on their own
            // scoped thread, owning that node's connection until the
            // join. Replies are still folded in sorted node order below,
            // so accounting stays deterministic.
            let connect = self.connect.clone();
            let name = self.name.clone();
            let mut conns: Vec<(u32, NodeConn)> = jobs
                .iter()
                .map(|(nid, _)| (*nid, self.conns.remove(nid).unwrap_or_else(NodeConn::fresh)))
                .collect();
            type BatchOutcome = (Vec<usize>, u64, io::Result<(Vec<BlockReply>, u32, u32)>);
            let round_results: Vec<Vec<BatchOutcome>> = std::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .zip(conns.iter_mut())
                    .map(|((nid, list), (_, conn))| {
                        let (connect, name) = (&connect, &name);
                        s.spawn(move || {
                            list.into_iter()
                                .map(|(direct, idxs, keys, pf)| {
                                    let pf_n = pf.len() as u64;
                                    let r = exchange_on(
                                        connect.as_ref(),
                                        name,
                                        NodeId(nid),
                                        conn,
                                        keys,
                                        pf,
                                        direct,
                                        ctx,
                                    );
                                    (idxs, pf_n, r)
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("router fan-out thread")).collect()
            });
            for (nid, conn) in conns {
                self.conns.insert(nid, conn);
            }
            let mut any_failed = false;
            for (idxs, pf_n, res) in round_results.into_iter().flatten() {
                match res {
                    Ok((blocks, s, d)) => {
                        shed += u64::from(s);
                        downgraded += u64::from(d);
                        for (&i, reply) in idxs.iter().zip(blocks) {
                            match reply.result {
                                Ok(data) => results[i] = Some(Ok(data)),
                                // Transient server-side kinds retry on
                                // the next candidate; the rest are
                                // final (NotFound won't improve by
                                // asking another replica of the same
                                // storage).
                                Err(code) if is_transient_code(code) => any_failed = true,
                                Err(code) => results[i] = Some(Err(code)),
                            }
                        }
                    }
                    Err(_) => {
                        // Transport-level failure: `exchange_on` marked
                        // the node down; its keys stay pending for the
                        // next round. Its prefetch is gone — count it
                        // shed.
                        any_failed = true;
                        shed += pf_n;
                    }
                }
            }
            if any_failed {
                // Something died or drained mid-frame; a reassigned map
                // may already exist on the survivors.
                self.refresh_map();
            }
        }

        // Prefetch whose owner took no demand batch still gets
        // delivered, as a prefetch-only request; owners that are down
        // shed it (speculation is not worth a failover).
        let mut leftover: Vec<u32> = prefetch_by_node.keys().copied().collect();
        leftover.sort();
        for nid in leftover {
            let entries = prefetch_by_node.remove(&nid).unwrap_or_default();
            let n = entries.len() as u64;
            match self.exchange(NodeId(nid), Vec::new(), entries, false, ctx) {
                Ok((_, s, d)) => {
                    shed += u64::from(s);
                    downgraded += u64::from(d);
                }
                Err(_) => shed += n,
            }
        }

        let timed_out = viz_serve::proto::errkind_code(io::ErrorKind::TimedOut);
        let blocks = demand
            .into_iter()
            .zip(results)
            .map(|(key, r)| BlockReply { key, result: r.unwrap_or(Err(timed_out)) })
            .collect();
        // The frame's root span: key = the minted trace id, arg packs
        // demand size and the rounds the frame needed.
        viz_telemetry::with_trace(trace, || {
            span(Ev::RouterFetch, trace, (demand_n << 8) | u64::from(rounds.min(255)), t0);
        });
        RouterReply { blocks, shed, downgraded, rounds }
    }

    /// The node this key should try next: the first live, un-attempted
    /// candidate — spilled to the next one when the load gap says the
    /// primary is drowning. Falls back to any live candidate (repeat
    /// attempts allowed) so transient errors can retry; `None` when every
    /// candidate is down.
    fn pick(&self, key: BlockKey, attempted: &[NodeId]) -> Option<NodeId> {
        let cands = self.map.owners(key, self.cfg.candidates.max(1));
        let live: Vec<NodeId> = cands
            .iter()
            .copied()
            .filter(|n| !self.conns.get(&n.0).is_some_and(|c| c.down))
            .collect();
        let fresh: Vec<NodeId> = live.iter().copied().filter(|n| !attempted.contains(n)).collect();
        match fresh.as_slice() {
            [] => live.first().copied(),
            [only] => Some(*only),
            [first, second, ..] => {
                let load = |n: &NodeId| self.loads.get(&n.0).copied().unwrap_or(0);
                if load(first) > load(second).saturating_add(self.cfg.spill_depth) {
                    Some(*second)
                } else {
                    Some(*first)
                }
            }
        }
    }

    /// One batch round trip to `node` (see [`exchange_on`]).
    fn exchange(
        &mut self,
        node: NodeId,
        keys: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
        direct: bool,
        trace: TraceCtx,
    ) -> io::Result<(Vec<BlockReply>, u32, u32)> {
        let connect = self.connect.clone();
        let name = self.name.clone();
        exchange_on(connect.as_ref(), &name, node, self.conn(node), keys, prefetch, direct, trace)
    }

    fn conn(&mut self, node: NodeId) -> &mut NodeConn {
        self.conns.entry(node.0).or_insert_with(NodeConn::fresh)
    }

    /// One framed round trip (see [`round_trip_on`]).
    fn round_trip(&mut self, node: NodeId, req: &Request) -> io::Result<Response> {
        let connect = self.connect.clone();
        round_trip_on(connect.as_ref(), node, self.conn(node), req)
    }

    /// Estimate every live node's clock offset from one `Ping` round
    /// trip each (RTT-midpoint,
    /// [`viz_telemetry::collect::offset_from_rtt`]); the estimates align
    /// scraped drains onto the router's timeline. Returns nodes synced.
    pub fn sync_clocks(&mut self) -> usize {
        let my_version = self.map.version();
        let mut synced = 0;
        for node in self.map.clone().nodes() {
            if self.conns.get(&node.0).is_some_and(|c| c.down) {
                continue;
            }
            let t_send = viz_telemetry::now_ns();
            let req = Request::Ping { from: PING_FROM_CLIENT, map_version: my_version };
            if let Ok(Response::Pong { now_ns, .. }) = self.round_trip(*node, &req) {
                let t_recv = viz_telemetry::now_ns();
                let off = viz_telemetry::collect::offset_from_rtt(t_send, t_recv, now_ns);
                self.offsets.insert(node.0, off);
                synced += 1;
            }
        }
        synced
    }

    /// The last [`Router::sync_clocks`] estimate for `node` (ns to add
    /// to its event timestamps; 0 until synced).
    pub fn clock_offset(&self, node: NodeId) -> i64 {
        self.offsets.get(&node.0).copied().unwrap_or(0)
    }

    /// Drain every live node's telemetry plane (`TelemetryGet`) into
    /// collector drains, clock-aligned with the last
    /// [`Router::sync_clocks`] estimates — the scrape half of
    /// [`viz_telemetry::collect::cluster_chrome_trace`] /
    /// [`cluster_prometheus`](viz_telemetry::collect::cluster_prometheus).
    pub fn scrape(&mut self) -> Vec<viz_telemetry::collect::NodeDrain> {
        let mut drains = Vec::new();
        for node in self.map.clone().nodes() {
            if self.conns.get(&node.0).is_some_and(|c| c.down) {
                continue;
            }
            if let Ok(Response::TelemetryReply(w)) = self.round_trip(*node, &Request::TelemetryGet)
            {
                let off = self.clock_offset(*node);
                drains.push(crate::obs::drain_from_wire(&w, off));
            }
        }
        drains
    }
}

/// One batch round trip to `node` on its connection — a plain `Fetch`
/// for an owner batch, a hop-capped `PeerFetch` for an off-owner one.
/// Reopens the session once on `ERR_UNKNOWN_SESSION`; `ERR_DRAINING` and
/// transport failures mark the node down. A free function over the
/// node's [`NodeConn`] so a fan-out thread can run it while the `Router`
/// itself stays on the caller's thread.
#[allow(clippy::too_many_arguments)]
fn exchange_on(
    connect: &Connector,
    name: &str,
    node: NodeId,
    conn: &mut NodeConn,
    keys: Vec<BlockKey>,
    prefetch: Vec<(BlockKey, f64)>,
    direct: bool,
    trace: TraceCtx,
) -> io::Result<(Vec<BlockReply>, u32, u32)> {
    for attempt in 0..2 {
        let session = ensure_session_on(connect, name, node, conn)?;
        let req = if direct {
            Request::PeerFetch { session, hops: DIRECT_HOPS, demand: keys.clone(), trace }
        } else {
            Request::Fetch {
                session,
                generation: 0,
                demand: keys.clone(),
                prefetch: prefetch.clone(),
                trace,
            }
        };
        match round_trip_on(connect, node, conn, &req) {
            Ok(Response::FetchReply { blocks, shed, downgraded, .. }) => {
                return Ok((blocks, shed, downgraded));
            }
            Ok(Response::Error { code, message }) if code == ERR_UNKNOWN_SESSION => {
                // The node restarted or drained our session; reopen
                // once within this round.
                conn.session = None;
                if attempt == 1 {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, message));
                }
            }
            Ok(Response::Error { code, message }) if code == ERR_DRAINING => {
                conn.down = true;
                return Err(io::Error::new(io::ErrorKind::ConnectionRefused, message));
            }
            Ok(Response::Error { message, .. }) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, message));
            }
            Ok(_) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "expected FetchReply"));
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on every arm by attempt 1")
}

fn ensure_session_on(
    connect: &Connector,
    name: &str,
    node: NodeId,
    conn: &mut NodeConn,
) -> io::Result<u32> {
    if let Some(s) = conn.session {
        return Ok(s);
    }
    let name = format!("router/{name}");
    match round_trip_on(connect, node, conn, &Request::Open { name })? {
        Response::OpenAck { session } => {
            conn.session = Some(session);
            Ok(session)
        }
        Response::Error { code, message } if code == ERR_DRAINING => {
            conn.down = true;
            Err(io::Error::new(io::ErrorKind::ConnectionRefused, message))
        }
        Response::Error { message, .. } => Err(io::Error::new(io::ErrorKind::InvalidData, message)),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected OpenAck")),
    }
}

/// One framed round trip; transport failure drops the link and marks
/// the node down (the next map refresh can revive it).
fn round_trip_on(
    connect: &Connector,
    node: NodeId,
    conn: &mut NodeConn,
    req: &Request,
) -> io::Result<Response> {
    if conn.down {
        return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "node marked down"));
    }
    if conn.link.is_none() {
        match connect(node) {
            Ok(l) => {
                conn.link = Some(l);
                conn.session = None;
            }
            Err(e) => {
                conn.down = true;
                return Err(e);
            }
        }
    }
    let link = conn.link.as_mut().expect("link just ensured");
    match link.round_trip(req) {
        Ok(resp) => Ok(resp),
        Err(e) => {
            conn.link = None;
            conn.session = None;
            conn.down = true;
            Err(e)
        }
    }
}

/// Wire error codes the router treats as retryable on another node:
/// Interrupted (3), TimedOut (4), WouldBlock (5).
fn is_transient_code(code: u16) -> bool {
    matches!(code, 3..=5)
}
