//! The multi-tenant server: one shared [`FetchEngine`] + [`BlockPool`]
//! behind a session registry, DRR fairness, admission control, and load
//! shedding.
//!
//! ## Request life cycle
//!
//! A `Fetch` request is **admitted** (demand unconditionally; prefetch
//! subject to the shed ladder below), queued in the per-session DRR
//! lanes, **pumped** into the shared engine in fair order, and its demand
//! tickets **collected** into a `FetchReply`. Duplicate keys across
//! different sessions coalesce inside the engine onto one source read —
//! the whole point of sharing it — and the engine counts those
//! cross-tag joins ([`viz_fetch::FetchMetrics::cross_tag_coalesced`]).
//!
//! ## The shed ladder
//!
//! Prefetch admission walks, in order: draining → stale generation →
//! per-client entry quota → per-client byte quota → breaker open →
//! global queue depth → pool pressure. First failure sheds the entry
//! with a typed [`ShedReason`]; between the downgrade and shed
//! watermarks entries are admitted at a quarter of their priority
//! instead. **Demand is never shed** — a blocked renderer beats a
//! speculation every time, which is the same demand-over-prefetch
//! invariant the engine heap enforces, applied one layer up.

use crate::proto::{errkind_code, Request, Response};
use crate::registry::{Registry, SessionId, SessionView};
use crate::sched::{DemandEntry, PrefetchEntry, Scheduler};
use crate::{proto, BlockReply};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use viz_core::{AdaptiveSigma, ClientFlight, SigmaController};
use viz_fetch::{BreakerState, FetchEngine, Ticket};
use viz_telemetry::stats::RotatingHist;
use viz_telemetry::{instant, Counter, EventKind as Ev};
use viz_volume::BlockKey;

/// Serving policy knobs. `Default` suits tests and small deployments;
/// the bench stresses the watermarks explicitly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// DRR deficit refilled per visit, in requests.
    pub quantum: u32,
    /// Per-session cap on queued prefetch entries.
    pub per_client_queue: usize,
    /// Per-session cap on queued prefetch bytes (estimated).
    pub per_client_bytes: usize,
    /// Byte estimate per block for quota accounting.
    pub block_bytes_hint: usize,
    /// Stop pumping prefetch into the engine once its prefetch backlog
    /// reaches this depth (demand pumps unconditionally).
    pub engine_queue_target: usize,
    /// Shed new prefetch outright at this combined backlog.
    pub shed_queue_depth: usize,
    /// Admit prefetch at a quarter priority from this backlog up.
    pub downgrade_queue_depth: usize,
    /// Shed new prefetch when the shared pool holds this many bytes.
    pub shed_resident_bytes: usize,
    /// Bound each demand wait; `None` waits for the engine's own
    /// timeout/retry machinery to resolve the ticket.
    pub demand_deadline: Option<Duration>,
    /// Registry cap; opens past it are refused.
    pub max_sessions: usize,
    /// How many prefetch entries one pump pass hands the engine as a
    /// single batched admission (grouped per session, DRR order kept).
    pub pump_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            quantum: 8,
            per_client_queue: 256,
            per_client_bytes: 64 << 20,
            block_bytes_hint: 4096,
            engine_queue_target: 1024,
            shed_queue_depth: 4096,
            downgrade_queue_depth: 2048,
            shed_resident_bytes: 1 << 30,
            demand_deadline: None,
            max_sessions: 1024,
            pump_batch: 64,
        }
    }
}

/// The runtime-mutable subset of [`ServeConfig`]: the shed-ladder
/// watermarks and per-client quotas. [`ServeConfig`] seeds these at
/// construction; [`Server::set_ladder`] swaps them while the server runs
/// — the adaptive control plane's serve-side actuator. Reads are relaxed
/// atomics: admission sees *a* recent ladder, which is all a watermark
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderConfig {
    /// Per-session cap on queued prefetch entries.
    pub per_client_queue: usize,
    /// Per-session cap on queued prefetch bytes (estimated).
    pub per_client_bytes: usize,
    /// Stop pumping prefetch into the engine at this backlog.
    pub engine_queue_target: usize,
    /// Shed new prefetch outright at this combined backlog.
    pub shed_queue_depth: usize,
    /// Admit prefetch at a quarter priority from this backlog up.
    pub downgrade_queue_depth: usize,
    /// Shed new prefetch when the shared pool holds this many bytes.
    pub shed_resident_bytes: usize,
}

impl LadderConfig {
    /// The ladder a [`ServeConfig`] starts with.
    pub fn from_serve(cfg: &ServeConfig) -> Self {
        LadderConfig {
            per_client_queue: cfg.per_client_queue,
            per_client_bytes: cfg.per_client_bytes,
            engine_queue_target: cfg.engine_queue_target,
            shed_queue_depth: cfg.shed_queue_depth,
            downgrade_queue_depth: cfg.downgrade_queue_depth,
            shed_resident_bytes: cfg.shed_resident_bytes,
        }
    }
}

/// Atomic cells holding the live ladder (see [`LadderConfig`]).
struct LadderCells {
    per_client_queue: AtomicUsize,
    per_client_bytes: AtomicUsize,
    engine_queue_target: AtomicUsize,
    shed_queue_depth: AtomicUsize,
    downgrade_queue_depth: AtomicUsize,
    shed_resident_bytes: AtomicUsize,
}

impl LadderCells {
    fn new(cfg: LadderConfig) -> Self {
        LadderCells {
            per_client_queue: AtomicUsize::new(cfg.per_client_queue),
            per_client_bytes: AtomicUsize::new(cfg.per_client_bytes),
            engine_queue_target: AtomicUsize::new(cfg.engine_queue_target),
            shed_queue_depth: AtomicUsize::new(cfg.shed_queue_depth),
            downgrade_queue_depth: AtomicUsize::new(cfg.downgrade_queue_depth),
            shed_resident_bytes: AtomicUsize::new(cfg.shed_resident_bytes),
        }
    }

    fn load(&self) -> LadderConfig {
        LadderConfig {
            per_client_queue: self.per_client_queue.load(Ordering::Relaxed),
            per_client_bytes: self.per_client_bytes.load(Ordering::Relaxed),
            engine_queue_target: self.engine_queue_target.load(Ordering::Relaxed),
            shed_queue_depth: self.shed_queue_depth.load(Ordering::Relaxed),
            downgrade_queue_depth: self.downgrade_queue_depth.load(Ordering::Relaxed),
            shed_resident_bytes: self.shed_resident_bytes.load(Ordering::Relaxed),
        }
    }

    fn store(&self, cfg: LadderConfig) {
        self.per_client_queue.store(cfg.per_client_queue, Ordering::Relaxed);
        self.per_client_bytes.store(cfg.per_client_bytes, Ordering::Relaxed);
        self.engine_queue_target.store(cfg.engine_queue_target, Ordering::Relaxed);
        self.shed_queue_depth.store(cfg.shed_queue_depth, Ordering::Relaxed);
        self.downgrade_queue_depth.store(cfg.downgrade_queue_depth, Ordering::Relaxed);
        self.shed_resident_bytes.store(cfg.shed_resident_bytes, Ordering::Relaxed);
    }
}

/// Why a prefetch entry was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Server is draining; only demand still flows.
    Draining,
    /// Entry belongs to a generation older than the session's current.
    StaleGeneration,
    /// The session's prefetch lane is at its entry quota.
    ClientQuota,
    /// The session's prefetch lane is at its byte quota.
    ByteQuota,
    /// The engine's circuit breaker is open — the source is presumed
    /// down, speculation would only deepen the failure.
    BreakerOpen,
    /// Combined scheduler + engine prefetch backlog crossed the shed
    /// watermark.
    QueueDepth,
    /// The shared pool crossed its resident-byte watermark.
    PoolPressure,
}

impl ShedReason {
    /// Stable code, used as the `RequestShed` telemetry arg.
    pub fn code(self) -> u16 {
        match self {
            ShedReason::Draining => 1,
            ShedReason::StaleGeneration => 2,
            ShedReason::ClientQuota => 3,
            ShedReason::ByteQuota => 4,
            ShedReason::BreakerOpen => 5,
            ShedReason::QueueDepth => 6,
            ShedReason::PoolPressure => 7,
        }
    }
}

/// Typed serving failure, mapped onto wire `ERR_*` codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The server is draining and refuses new sessions/work.
    Draining,
    /// The registry is at [`ServeConfig::max_sessions`].
    TooManySessions,
    /// The request named a session the registry does not know.
    UnknownSession,
}

impl ServeError {
    /// The matching wire error code.
    pub fn code(self) -> u16 {
        match self {
            ServeError::Draining => proto::ERR_DRAINING,
            ServeError::TooManySessions => proto::ERR_TOO_MANY_SESSIONS,
            ServeError::UnknownSession => proto::ERR_UNKNOWN_SESSION,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::TooManySessions => write!(f, "session cap reached"),
            ServeError::UnknownSession => write!(f, "unknown session"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serve-layer counters, named for the wire/Prometheus exposition.
struct ServeStats {
    sessions_opened: Counter,
    sessions_closed: Counter,
    fetch_requests: Counter,
    demand_admitted: Counter,
    prefetch_admitted: Counter,
    prefetch_downgraded: Counter,
    prefetch_shed: Counter,
    demand_served: Counter,
    demand_errors: Counter,
    bytes_served: Counter,
    peer_requests: Counter,
    peer_demand_keys: Counter,
    // Per-reason shed breakdown: the controller and the cluster router
    // need to know *why* prefetch is being refused (a byte-quota shed
    // wants a bigger quota; a breaker shed wants nothing at all).
    shed_draining: Counter,
    shed_stale_gen: Counter,
    shed_entry_quota: Counter,
    shed_byte_quota: Counter,
    shed_breaker: Counter,
    shed_queue_depth: Counter,
    shed_pool_pressure: Counter,
}

impl ServeStats {
    const fn new() -> Self {
        ServeStats {
            sessions_opened: Counter::new("serve_sessions_opened"),
            sessions_closed: Counter::new("serve_sessions_closed"),
            fetch_requests: Counter::new("serve_fetch_requests"),
            demand_admitted: Counter::new("serve_demand_admitted"),
            prefetch_admitted: Counter::new("serve_prefetch_admitted"),
            prefetch_downgraded: Counter::new("serve_prefetch_downgraded"),
            prefetch_shed: Counter::new("serve_prefetch_shed"),
            demand_served: Counter::new("serve_demand_served"),
            demand_errors: Counter::new("serve_demand_errors"),
            bytes_served: Counter::new("serve_bytes_served"),
            peer_requests: Counter::new("serve_peer_requests"),
            peer_demand_keys: Counter::new("serve_peer_demand_keys"),
            shed_draining: Counter::new("serve_shed_draining"),
            shed_stale_gen: Counter::new("serve_shed_stale_gen"),
            shed_entry_quota: Counter::new("serve_shed_entry_quota"),
            shed_byte_quota: Counter::new("serve_shed_byte_quota"),
            shed_breaker: Counter::new("serve_shed_breaker"),
            shed_queue_depth: Counter::new("serve_shed_queue_depth"),
            shed_pool_pressure: Counter::new("serve_shed_pool_pressure"),
        }
    }

    fn shed_counter(&self, reason: ShedReason) -> &Counter {
        match reason {
            ShedReason::Draining => &self.shed_draining,
            ShedReason::StaleGeneration => &self.shed_stale_gen,
            ShedReason::ClientQuota => &self.shed_entry_quota,
            ShedReason::ByteQuota => &self.shed_byte_quota,
            ShedReason::BreakerOpen => &self.shed_breaker,
            ShedReason::QueueDepth => &self.shed_queue_depth,
            ShedReason::PoolPressure => &self.shed_pool_pressure,
        }
    }

    fn pairs(&self) -> Vec<(&'static str, u64)> {
        [
            &self.sessions_opened,
            &self.sessions_closed,
            &self.fetch_requests,
            &self.demand_admitted,
            &self.prefetch_admitted,
            &self.prefetch_downgraded,
            &self.prefetch_shed,
            &self.demand_served,
            &self.demand_errors,
            &self.bytes_served,
            &self.peer_requests,
            &self.peer_demand_keys,
            &self.shed_draining,
            &self.shed_stale_gen,
            &self.shed_entry_quota,
            &self.shed_byte_quota,
            &self.shed_breaker,
            &self.shed_queue_depth,
            &self.shed_pool_pressure,
        ]
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect()
    }
}

/// Point-in-time serve-layer metrics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Sessions opened over the server's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed (including drain).
    pub sessions_closed: u64,
    /// `Fetch` requests processed.
    pub fetch_requests: u64,
    /// Demand keys admitted (demand is never shed).
    pub demand_admitted: u64,
    /// Prefetch keys admitted at full priority.
    pub prefetch_admitted: u64,
    /// Prefetch keys admitted at reduced priority.
    pub prefetch_downgraded: u64,
    /// Prefetch keys refused admission.
    pub prefetch_shed: u64,
    /// Demand replies delivered with a payload.
    pub demand_served: u64,
    /// Demand replies delivered with an error code.
    pub demand_errors: u64,
    /// Payload bytes delivered to clients.
    pub bytes_served: u64,
}

/// Report from [`Server::drain`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Sessions closed by the drain.
    pub sessions_closed: usize,
    /// Demand entries flushed into the engine before closing.
    pub demand_flushed: usize,
    /// Queued prefetch entries discarded.
    pub prefetch_dropped: usize,
}

/// The multi-tenant block server (see module docs).
pub struct Server {
    engine: Arc<FetchEngine>,
    cfg: ServeConfig,
    ladder: LadderCells,
    registry: Mutex<Registry>,
    sched: Mutex<Scheduler>,
    stats: ServeStats,
    /// Whole-frame demand round trip (submit → last demand outcome), in
    /// nanoseconds, windowed for the control plane's p99 SLO signal.
    demand_rtt: RotatingHist,
    draining: AtomicBool,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Same poison policy as the fetch engine: a panic while holding the
    // lock fails that request, not every future one.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Server {
    /// Wrap a shared engine in a server.
    pub fn new(engine: Arc<FetchEngine>, cfg: ServeConfig) -> Arc<Server> {
        let ladder = LadderCells::new(LadderConfig::from_serve(&cfg));
        Arc::new(Server {
            engine,
            cfg,
            ladder,
            registry: Mutex::new(Registry::new()),
            sched: Mutex::new(Scheduler::new()),
            stats: ServeStats::new(),
            demand_rtt: RotatingHist::new(),
            draining: AtomicBool::new(false),
        })
    }

    /// The shared fetch engine.
    pub fn engine(&self) -> &Arc<FetchEngine> {
        &self.engine
    }

    /// The config the server started with. The watermarks and quotas in
    /// it are *initial* values — [`Server::ladder`] reads the live ones.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The shed ladder currently in force.
    pub fn ladder(&self) -> LadderConfig {
        self.ladder.load()
    }

    /// Replace the live shed ladder (watermarks + per-client quotas).
    /// Takes effect for the next admission; queued entries are untouched.
    pub fn set_ladder(&self, cfg: LadderConfig) {
        self.ladder.store(cfg);
    }

    /// p99 of the demand-RTT window being accumulated, in ns (0 when no
    /// demand was served since the window opened).
    pub fn demand_p99_ns(&self) -> u64 {
        self.demand_rtt.percentile(0.99)
    }

    /// Close the demand-RTT window and return it (the control plane's
    /// per-tick consumption; a fresh window starts accumulating).
    pub fn take_demand_window(&self) -> viz_telemetry::LogHistogram {
        self.demand_rtt.take()
    }

    /// `true` once [`Server::drain`] has started.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Register a session.
    pub fn open_session(&self, name: &str) -> Result<SessionId, ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        let mut reg = relock(&self.registry);
        if reg.len() >= self.cfg.max_sessions {
            return Err(ServeError::TooManySessions);
        }
        let id = reg.open(name);
        let n = reg.len() as u64;
        drop(reg);
        relock(&self.sched).add_session(id.0);
        self.stats.sessions_opened.inc();
        instant(Ev::SessionOpen, u64::from(id.0), n);
        Ok(id)
    }

    /// Unregister a session, discarding its queued work. Returns `false`
    /// for an unknown id.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.close_session_inner(id, false)
    }

    fn close_session_inner(&self, id: SessionId, drained: bool) -> bool {
        if relock(&self.registry).close(id).is_none() {
            return false;
        }
        relock(&self.sched).remove_session(id.0);
        self.stats.sessions_closed.inc();
        instant(Ev::SessionClose, u64::from(id.0), u64::from(drained));
        true
    }

    /// Attach a server-side camera flight: each `Advance` then feeds the
    /// flight's next frame's speculation through admission automatically.
    pub fn attach_flight(&self, id: SessionId, flight: ClientFlight) -> bool {
        match relock(&self.registry).get_mut(id) {
            Some(s) => {
                s.flight = Some(flight);
                true
            }
            None => false,
        }
    }

    /// Put a session's flight under closed-loop σ control: every
    /// [`Server::advance`] then observes the session's *leftover* queued
    /// prefetch (entries admitted last frame that the pump never
    /// consumed — the serve-side analogue of "prefetch time" spilling
    /// past the render window) against `target_backlog` and retunes the
    /// flight's entropy gate before producing the next frame. Requires an
    /// attached flight; returns `false` without one.
    pub fn attach_adaptive_sigma(
        &self,
        id: SessionId,
        cfg: AdaptiveSigma,
        target_backlog: f64,
    ) -> bool {
        let mut reg = relock(&self.registry);
        match reg.get_mut(id) {
            Some(s) => match &s.flight {
                Some(f) => {
                    let ctl = SigmaController::new(cfg, f.sigma());
                    s.sigma_ctl = Some((ctl, target_backlog.max(1.0)));
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// The σ a session's flight currently gates prefetch with (`None`
    /// for an unknown session or one without a flight).
    pub fn session_sigma(&self, id: SessionId) -> Option<f64> {
        relock(&self.registry).get_mut(id)?.flight.as_ref().map(|f| f.sigma())
    }

    /// Bump a session's frame generation: queued prefetch from earlier
    /// generations is purged, and an attached flight contributes the next
    /// frame's prefetch set. Returns the new generation, or `None` for an
    /// unknown session.
    ///
    /// With [`Server::attach_adaptive_sigma`] active, the leftover
    /// prefetch backlog (about to be purged as stale) first feeds the σ
    /// controller: a backlog persistently above target means admission
    /// outruns consumption — raise σ, speculate less; an empty backlog
    /// means idle I/O headroom — lower σ, speculate more.
    pub fn advance(&self, id: SessionId) -> Option<u64> {
        let (leftover, _) = relock(&self.sched).queued_prefetch(id.0);
        let (generation, frame) = {
            let mut reg = relock(&self.registry);
            let s = reg.get_mut(id)?;
            s.generation += 1;
            if let Some((ctl, target)) = &mut s.sigma_ctl {
                let render_window = *target / ctl.config().target_ratio.max(1e-9);
                ctl.observe(leftover as f64, render_window);
                let sigma = ctl.sigma();
                if let Some(f) = &mut s.flight {
                    f.set_sigma(sigma);
                }
            }
            (s.generation, s.flight.as_mut().and_then(|f| f.next_frame()))
        };
        relock(&self.sched).purge_prefetch(id.0, generation);
        if let Some(fr) = frame {
            self.admit_prefetch(id, generation, fr.prefetch);
        }
        Some(generation)
    }

    /// Admit one frame request: demand unconditionally, prefetch through
    /// the shed ladder. The returned [`Submission`] collects the demand
    /// outcomes after a [`Server::pump`].
    pub fn submit(
        &self,
        id: SessionId,
        generation: u64,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<Submission, ServeError> {
        if !relock(&self.registry).contains(id) {
            return Err(ServeError::UnknownSession);
        }
        self.stats.fetch_requests.inc();
        let (tx, rx) = channel();
        let demand_n = demand.len();
        {
            let trace = viz_telemetry::current_trace();
            let mut sched = relock(&self.sched);
            for &key in &demand {
                sched.push_demand(id.0, DemandEntry { key, tx: tx.clone(), trace });
            }
        }
        self.stats.demand_admitted.add(demand_n as u64);
        if let Some(s) = relock(&self.registry).get_mut(id) {
            s.demand_submitted += demand_n as u64;
        }
        let (shed, downgraded, admitted) = self.admit_prefetch(id, generation, prefetch);
        instant(Ev::RequestAdmit, u64::from(id.0), ((demand_n as u64) << 32) | admitted);
        Ok(Submission {
            session: id,
            demand_keys: demand,
            rx,
            received: 0,
            disconnected: false,
            waiting: Vec::new(),
            got: HashMap::new(),
            shed,
            downgraded,
            t0: Instant::now(),
        })
    }

    /// Walk the shed ladder for each prefetch entry; returns
    /// `(shed, downgraded, admitted)` counts.
    fn admit_prefetch(
        &self,
        id: SessionId,
        generation: u64,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> (u32, u32, u64) {
        if prefetch.is_empty() {
            return (0, 0, 0);
        }
        let session_gen = match relock(&self.registry).get_mut(id) {
            Some(s) => {
                s.prefetch_submitted += prefetch.len() as u64;
                s.generation
            }
            None => return (0, 0, 0),
        };
        // One poll per submit; admitted entries adjust the view so a
        // single huge request cannot blow through the watermark unseen.
        let (_, engine_pf) = self.engine.queue_depths();
        let breaker_open = self.engine.breaker_state() == BreakerState::Open;
        let pool_bytes = self.engine.pool().bytes_resident();
        let draining = self.is_draining();
        let hint = self.cfg.block_bytes_hint;
        let ladder = self.ladder.load();

        let (mut shed, mut downgraded, mut admitted) = (0u32, 0u32, 0u64);
        let mut sched = relock(&self.sched);
        let (mut lane_n, mut lane_bytes) = sched.queued_prefetch(id.0);
        let mut backlog = engine_pf + sched.queued_prefetch_total();
        for (key, pri) in prefetch {
            let verdict = if draining {
                Err(ShedReason::Draining)
            } else if generation < session_gen {
                Err(ShedReason::StaleGeneration)
            } else if lane_n >= ladder.per_client_queue {
                Err(ShedReason::ClientQuota)
            } else if lane_bytes + hint > ladder.per_client_bytes {
                Err(ShedReason::ByteQuota)
            } else if breaker_open {
                Err(ShedReason::BreakerOpen)
            } else if backlog >= ladder.shed_queue_depth {
                Err(ShedReason::QueueDepth)
            } else if pool_bytes >= ladder.shed_resident_bytes {
                Err(ShedReason::PoolPressure)
            } else if backlog >= ladder.downgrade_queue_depth {
                Ok(pri * 0.25)
            } else {
                Ok(pri)
            };
            match verdict {
                Ok(p) => {
                    if p < pri {
                        downgraded += 1;
                        self.stats.prefetch_downgraded.inc();
                    } else {
                        self.stats.prefetch_admitted.inc();
                    }
                    sched.push_prefetch(
                        id.0,
                        PrefetchEntry { key, pri: p, gen: session_gen, bytes: hint },
                    );
                    admitted += 1;
                    lane_n += 1;
                    lane_bytes += hint;
                    backlog += 1;
                }
                Err(reason) => {
                    shed += 1;
                    self.stats.prefetch_shed.inc();
                    self.stats.shed_counter(reason).inc();
                    instant(Ev::RequestShed, u64::from(id.0), u64::from(reason.code()));
                }
            }
        }
        drop(sched);
        if shed > 0 {
            if let Some(s) = relock(&self.registry).get_mut(id) {
                s.prefetch_shed += u64::from(shed);
            }
        }
        (shed, downgraded, admitted)
    }

    /// Move queued work into the shared engine in DRR order: demand
    /// drains completely, prefetch stops at the engine backlog target.
    /// While draining, prefetch stays queued (drain discards it).
    pub fn pump(&self) {
        loop {
            let e = relock(&self.sched).pop_next_demand(self.cfg.quantum);
            let Some((sid, e)) = e else { break };
            // Restore the submitting request's trace context around
            // admission: the engine captures it for the whole job.
            let ticket =
                viz_telemetry::with_trace(e.trace, || self.engine.request_tagged(e.key, sid));
            // A dropped receiver (disconnected client) just drops the
            // ticket; the engine still completes the read into the pool.
            let _ = e.tx.send((e.key, ticket));
        }
        if self.is_draining() {
            return;
        }
        let engine_queue_target = self.ladder.engine_queue_target.load(Ordering::Relaxed);
        loop {
            let (_, engine_pf) = self.engine.queue_depths();
            if engine_pf >= engine_queue_target {
                break;
            }
            // Pop a bounded run in DRR order under one scheduler lock,
            // then admit it to the engine in per-session batches (the
            // engine takes its own lock once per batch instead of once
            // per key — see `FetchEngine::prefetch_batch_tagged`).
            let budget =
                engine_queue_target.saturating_sub(engine_pf).min(self.cfg.pump_batch.max(1));
            let mut run: Vec<(u32, BlockKey, f64)> = Vec::with_capacity(budget);
            {
                let mut sched = relock(&self.sched);
                for _ in 0..budget {
                    let Some((sid, e)) = sched.pop_next_prefetch(self.cfg.quantum) else { break };
                    run.push((sid, e.key, e.pri));
                }
            }
            if run.is_empty() {
                break;
            }
            let mut i = 0;
            while i < run.len() {
                let sid = run[i].0;
                let end = run[i..].iter().position(|r| r.0 != sid).map_or(run.len(), |off| i + off);
                let items: Vec<(BlockKey, f64)> = run[i..end].iter().map(|r| (r.1, r.2)).collect();
                self.engine.prefetch_batch_tagged(&items, sid);
                i = end;
            }
        }
    }

    /// Graceful shutdown: refuse new work, flush queued demand into the
    /// engine, discard queued prefetch, wait for the engine to go idle,
    /// and close every session.
    pub fn drain(&self) -> DrainReport {
        self.draining.store(true, Ordering::SeqCst);
        let demand_flushed = relock(&self.sched).queued_demand_total();
        self.pump();
        let mut prefetch_dropped = 0;
        let ids = relock(&self.registry).ids();
        {
            let mut sched = relock(&self.sched);
            for id in &ids {
                let (_, p) = sched.remove_session(id.0);
                prefetch_dropped += p;
            }
        }
        self.engine.sync();
        let mut sessions_closed = 0;
        for id in ids {
            if self.close_session_inner(id, true) {
                sessions_closed += 1;
            }
        }
        DrainReport { sessions_closed, demand_flushed, prefetch_dropped }
    }

    /// Snapshot every registered session.
    pub fn sessions(&self) -> Vec<SessionView> {
        relock(&self.registry).views()
    }

    /// Serve-layer metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        let s = &self.stats;
        ServeMetrics {
            sessions_opened: s.sessions_opened.get(),
            sessions_closed: s.sessions_closed.get(),
            fetch_requests: s.fetch_requests.get(),
            demand_admitted: s.demand_admitted.get(),
            prefetch_admitted: s.prefetch_admitted.get(),
            prefetch_downgraded: s.prefetch_downgraded.get(),
            prefetch_shed: s.prefetch_shed.get(),
            demand_served: s.demand_served.get(),
            demand_errors: s.demand_errors.get(),
            bytes_served: s.bytes_served.get(),
        }
    }

    /// The counter set a `Stats` request answers with: serve-layer
    /// counters, engine counters (`fetch_` prefix), pool gauges, and the
    /// engine's live queue depths — the load signal the cluster router
    /// uses for tie-breaking between replica owners.
    pub fn wire_counters(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            self.stats.pairs().into_iter().map(|(n, c)| (n.to_string(), c)).collect();
        v.extend(self.engine.counter_pairs().into_iter().map(|(n, c)| (format!("fetch_{n}"), c)));
        let pool = self.engine.pool();
        v.push(("pool_resident_blocks".to_string(), pool.len() as u64));
        v.push(("pool_resident_bytes".to_string(), pool.bytes_resident() as u64));
        let (qd, qp) = self.engine.queue_depths();
        v.push(("engine_queue_demand".to_string(), qd as u64));
        v.push(("engine_queue_prefetch".to_string(), qp as u64));
        v.push(("sessions_active".to_string(), relock(&self.registry).len() as u64));
        // Demand-latency SLO signal: p99 of the RTT window currently
        // accumulating, plus its sample count so consumers can judge
        // significance.
        v.push(("serve_demand_p99_ns".to_string(), self.demand_rtt.percentile(0.99)));
        v.push(("serve_demand_rtt_count".to_string(), self.demand_rtt.count()));
        // The live ladder, so a scraper can watch the controller actuate.
        let ladder = self.ladder.load();
        v.push(("ladder_per_client_queue".to_string(), ladder.per_client_queue as u64));
        v.push(("ladder_per_client_bytes".to_string(), ladder.per_client_bytes as u64));
        v.push(("ladder_engine_queue_target".to_string(), ladder.engine_queue_target as u64));
        v.push(("ladder_shed_queue_depth".to_string(), ladder.shed_queue_depth as u64));
        v.push(("ladder_downgrade_queue_depth".to_string(), ladder.downgrade_queue_depth as u64));
        v.push(("ladder_shed_resident_bytes".to_string(), ladder.shed_resident_bytes as u64));
        // Telemetry-plane health: is the gate on, and has any per-thread
        // ring ever overflowed (cumulative — a lost event is permanent).
        v.push(("telemetry_enabled".to_string(), u64::from(viz_telemetry::enabled())));
        v.push(("telemetry_ring_dropped_total".to_string(), viz_telemetry::dropped_total()));
        // Named gauges published by controllers and other components
        // through the always-on stats plane.
        v.extend(viz_telemetry::stats::gauges());
        v
    }

    /// Answer a `TelemetryGet`: drain this process's rings (routing the
    /// batch through the flight recorder) and package events, per-span
    /// summary histograms, and wire counters for the collector. `node` is
    /// the responder's cluster identity ([`proto::PING_FROM_CLIENT`] for
    /// a plain server).
    pub fn wire_telemetry(&self, node: u32) -> proto::WireTelemetry {
        let tr = viz_telemetry::drain();
        let mut hists = Vec::new();
        for kind in viz_telemetry::EventKind::ALL {
            if !kind.is_span() {
                continue;
            }
            let h = tr.histogram(kind);
            let (pairs, count, sum, min, max) = h.sparse();
            if count > 0 {
                hists.push(proto::HistSnapshot { kind: kind as u8, pairs, count, sum, min, max });
            }
        }
        proto::WireTelemetry {
            node,
            now_ns: viz_telemetry::now_ns(),
            dropped: viz_telemetry::dropped_total(),
            events: tr.events,
            hists,
            counters: self.wire_counters(),
        }
    }

    /// Count a peer-forward answered from local storage without engine
    /// submission (the cluster node's skew/hop-cap path); keeps the
    /// `serve_peer_*` wire counters honest when requests bypass
    /// [`handle_request`].
    pub fn record_peer_direct(&self, keys: u64) {
        self.stats.peer_requests.inc();
        self.stats.peer_demand_keys.add(keys);
    }

    fn record_served(&self, id: SessionId, served: u64, errors: u64, bytes: u64) {
        self.stats.demand_served.add(served);
        self.stats.demand_errors.add(errors);
        self.stats.bytes_served.add(bytes);
        if let Some(s) = relock(&self.registry).get_mut(id) {
            s.demand_served += served;
        }
    }
}

/// An admitted frame request: collects the demand outcomes once the pump
/// has issued them.
///
/// Two consumption styles share this state: the blocking
/// [`Submission::collect`] (a caller that owns its thread, like a cluster
/// node's synchronous `serve_frame`, parks here) and the incremental
/// [`Submission::poll_ready`] (the reactor calls it each loop turn and
/// never blocks). Polling and then collecting is fine — tickets already
/// drained by a poll are resolved or parked in `waiting`, and `collect`
/// finishes both.
pub struct Submission {
    session: SessionId,
    demand_keys: Vec<BlockKey>,
    rx: Receiver<(BlockKey, Ticket)>,
    /// Entries received off `rx` so far (resolved or parked).
    received: usize,
    /// The sender side went away (session closed underneath us).
    disconnected: bool,
    /// Tickets received but not yet resolved (poll path only).
    waiting: Vec<(BlockKey, Ticket)>,
    got: HashMap<BlockKey, Result<Arc<Vec<f32>>, u16>>,
    shed: u32,
    downgraded: u32,
    /// Admission time; `finish` records submit→outcome as the frame's
    /// demand RTT.
    t0: Instant,
}

impl Submission {
    /// Prefetch entries shed at admission.
    pub fn shed(&self) -> u32 {
        self.shed
    }

    /// Prefetch entries admitted at reduced priority.
    pub fn downgraded(&self) -> u32 {
        self.downgraded
    }

    /// Drain whatever the pump has issued and resolve whatever the
    /// engine has finished, without blocking. Returns `true` once every
    /// demand key has an outcome (or the session vanished), i.e. the
    /// reply is complete and a `collect_*` call will not block.
    pub fn poll_ready(&mut self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(pair) => {
                    self.received += 1;
                    self.waiting.push(pair);
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
        let waiting = std::mem::take(&mut self.waiting);
        for (key, ticket) in waiting {
            match ticket.try_wait() {
                Ok(r) => {
                    self.got.insert(key, r.map_err(|e| errkind_code(e.kind)));
                }
                Err(still_pending) => self.waiting.push((key, still_pending)),
            }
        }
        self.waiting.is_empty() && (self.received >= self.demand_keys.len() || self.disconnected)
    }

    /// Block until every demand key has an outcome (the engine's workers
    /// resolve the tickets). Requires a [`Server::pump`] to have issued
    /// the entries.
    pub fn collect(mut self, server: &Server) -> Vec<BlockReply> {
        let deadline = server.cfg.demand_deadline;
        let resolve = |ticket: Ticket| match deadline {
            Some(d) => match ticket.wait_timeout(d) {
                Ok(r) => r.map_err(|e| errkind_code(e.kind)),
                Err(_still_pending) => Err(errkind_code(io::ErrorKind::TimedOut)),
            },
            None => ticket.wait().map_err(|e| errkind_code(e.kind)),
        };
        // Tickets an earlier poll drained but could not resolve.
        for (key, ticket) in std::mem::take(&mut self.waiting) {
            let outcome = resolve(ticket);
            self.got.insert(key, outcome);
        }
        while self.received < self.demand_keys.len() {
            // A dropped sender means the session was closed underneath
            // us; the remaining keys resolve as Interrupted below.
            let Ok((key, ticket)) = self.rx.recv() else { break };
            self.received += 1;
            let outcome = resolve(ticket);
            self.got.insert(key, outcome);
        }
        self.finish(server, io::ErrorKind::Interrupted)
    }

    /// Non-blocking collection for deterministic (`workers = 0`) runs:
    /// call after the engine has been stepped to idle; any ticket still
    /// unresolved reports `Interrupted`.
    pub fn collect_ready(mut self, server: &Server) -> Vec<BlockReply> {
        self.poll_ready();
        self.finish(server, io::ErrorKind::Interrupted)
    }

    /// Non-blocking collection at a missed deadline: unresolved keys
    /// report `TimedOut` (the reactor's timer wheel lands here).
    pub fn collect_timed_out(mut self, server: &Server) -> Vec<BlockReply> {
        self.poll_ready();
        self.finish(server, io::ErrorKind::TimedOut)
    }

    fn finish(self, server: &Server, missing: io::ErrorKind) -> Vec<BlockReply> {
        if !self.demand_keys.is_empty() {
            let rtt = self.t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            server.demand_rtt.record(rtt);
        }
        let missing = errkind_code(missing);
        let got = self.got;
        let (mut served, mut errors, mut bytes) = (0u64, 0u64, 0u64);
        let replies: Vec<BlockReply> = self
            .demand_keys
            .iter()
            .map(|&key| {
                let result = got.get(&key).cloned().unwrap_or(Err(missing));
                match &result {
                    Ok(data) => {
                        served += 1;
                        bytes += (data.len() * std::mem::size_of::<f32>()) as u64;
                    }
                    Err(_) => errors += 1,
                }
                BlockReply { key, result }
            })
            .collect();
        server.record_served(self.session, served, errors, bytes);
        replies
    }
}

/// What a decoded request needs next: an immediate reply, demand
/// collection after a pump, or a reply computed on another thread.
pub enum Outcome {
    /// Reply is ready to send.
    Ready(Response),
    /// A `Fetch` was admitted; pump, then resolve the pending fetch.
    Fetch(PendingFetch),
    /// A dispatcher's blocking work (storage or peer I/O) runs on its own
    /// thread; the reply arrives through [`Deferred`].
    Deferred(Deferred),
}

/// A reply computed off the front end's thread, so a dispatcher that must
/// block never stalls the event loop serving every other connection.
pub struct Deferred {
    rx: Receiver<Response>,
    done: Option<Response>,
}

impl Deferred {
    /// Run `work` on a new thread. When it finishes, the engine's
    /// completion hook fires, so a loop parked on the hook picks the
    /// reply up at once.
    pub fn spawn(server: &Server, work: impl FnOnce() -> Response + Send + 'static) -> Deferred {
        let (tx, rx) = channel();
        let engine = server.engine().clone();
        std::thread::spawn(move || {
            let _ = tx.send(work());
            engine.notify_completion();
        });
        Deferred { rx, done: None }
    }

    /// Non-blocking progress check: `true` once the reply is in.
    pub fn poll(&mut self) -> bool {
        if self.done.is_none() {
            self.done = match self.rx.try_recv() {
                Ok(r) => Some(r),
                Err(std::sync::mpsc::TryRecvError::Empty) => None,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => Some(Self::lost()),
            };
        }
        self.done.is_some()
    }

    /// The reply, blocking until the work finishes.
    pub fn wait(self) -> Response {
        match self.done {
            Some(r) => r,
            None => self.rx.recv().unwrap_or_else(|_| Self::lost()),
        }
    }

    /// The reply when the work panicked before sending one.
    fn lost() -> Response {
        Response::Error { code: proto::ERR_PROTO, message: "deferred reply lost".to_string() }
    }
}

/// An admitted `Fetch` awaiting its demand outcomes.
pub struct PendingFetch {
    session: u32,
    sub: Submission,
    /// Span clock opened at dispatch; the resolving call closes the
    /// `RpcServe` span with it.
    t0: Option<std::time::Instant>,
    /// Wire tag of the originating request (the `RpcServe` arg).
    tag: u8,
    /// Trace context of the originating request, re-established when the
    /// reply resolves (resolution runs outside the dispatch scope).
    trace: u64,
}

impl PendingFetch {
    /// The session the fetch belongs to.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// Non-blocking progress check: `true` once the reply is complete
    /// and [`PendingFetch::resolve_now`] will lose nothing.
    pub fn poll(&mut self) -> bool {
        self.sub.poll_ready()
    }

    fn rpc_span(t0: Option<std::time::Instant>, session: u32, tag: u8, trace: u64) {
        viz_telemetry::with_trace(trace, || {
            viz_telemetry::span(Ev::RpcServe, u64::from(session), u64::from(tag), t0);
        });
    }

    /// Block until the reply is complete (callers that own their thread).
    pub fn wait(self, server: &Server) -> Response {
        let (shed, downgraded) = (self.sub.shed, self.sub.downgraded);
        let (t0, tag, trace) = (self.t0, self.tag, self.trace);
        let blocks = self.sub.collect(server);
        Self::rpc_span(t0, self.session, tag, trace);
        Response::FetchReply { session: self.session, blocks, shed, downgraded }
    }

    /// Resolve from whatever is ready (the reactor, once
    /// [`PendingFetch::poll`] reports the reply complete).
    pub fn resolve_now(self, server: &Server) -> Response {
        let (shed, downgraded) = (self.sub.shed, self.sub.downgraded);
        let (t0, tag, trace) = (self.t0, self.tag, self.trace);
        let blocks = self.sub.collect_ready(server);
        Self::rpc_span(t0, self.session, tag, trace);
        Response::FetchReply { session: self.session, blocks, shed, downgraded }
    }

    /// Resolve at a missed demand deadline: unresolved keys report
    /// `TimedOut` (their reads stay in flight and land in the pool for a
    /// later frame — degraded, not dropped).
    pub fn resolve_timed_out(self, server: &Server) -> Response {
        let (shed, downgraded) = (self.sub.shed, self.sub.downgraded);
        let (t0, tag, trace) = (self.t0, self.tag, self.trace);
        let blocks = self.sub.collect_timed_out(server);
        Self::rpc_span(t0, self.session, tag, trace);
        Response::FetchReply { session: self.session, blocks, shed, downgraded }
    }
}

/// Dispatch one decoded request against a server. Requests carrying a
/// trace context run with the thread's trace context set to it, so
/// everything recorded during admission — and, via [`DemandEntry`], the
/// engine work pumped later — is attributed to the originating client
/// request.
pub fn handle_request(server: &Server, req: Request) -> Outcome {
    let ctx = req.trace_ctx();
    if ctx.is_some() {
        viz_telemetry::with_trace(ctx.trace, || handle_request_inner(server, req))
    } else {
        handle_request_inner(server, req)
    }
}

fn handle_request_inner(server: &Server, req: Request) -> Outcome {
    let tag = req.tag_code();
    match req {
        Request::Open { name } => Outcome::Ready(match server.open_session(&name) {
            Ok(id) => Response::OpenAck { session: id.0 },
            Err(e) => Response::Error { code: e.code(), message: e.to_string() },
        }),
        Request::Close { session } => Outcome::Ready(if server.close_session(SessionId(session)) {
            Response::CloseAck { session }
        } else {
            let e = ServeError::UnknownSession;
            Response::Error { code: e.code(), message: e.to_string() }
        }),
        Request::Fetch { session, generation, demand, prefetch, trace } => {
            let t0 = viz_telemetry::start();
            match server.submit(SessionId(session), generation, demand, prefetch) {
                Ok(sub) => {
                    Outcome::Fetch(PendingFetch { session, sub, t0, tag, trace: trace.trace })
                }
                Err(e) => {
                    Outcome::Ready(Response::Error { code: e.code(), message: e.to_string() })
                }
            }
        }
        Request::Advance { session, trace: _ } => {
            let t0 = viz_telemetry::start();
            let resp = match server.advance(SessionId(session)) {
                Some(generation) => Response::AdvanceAck { session, generation },
                None => {
                    let e = ServeError::UnknownSession;
                    Response::Error { code: e.code(), message: e.to_string() }
                }
            };
            viz_telemetry::span(Ev::RpcServe, u64::from(session), u64::from(tag), t0);
            Outcome::Ready(resp)
        }
        Request::Stats => Outcome::Ready(Response::StatsReply { counters: server.wire_counters() }),
        // A plain single-node server has no shard map to hand out; the
        // cluster layer's dispatcher intercepts this tag before it lands
        // here.
        Request::MapGet => Outcome::Ready(Response::Error {
            code: proto::ERR_NO_MAP,
            message: "no shard map installed".to_string(),
        }),
        // A peer forward on a plain server resolves like a demand-only
        // fetch: every key reads locally (shared storage), no further
        // forwarding. Generation 0 is fine — the stale check only
        // guards prefetch and a peer forward carries none.
        Request::PeerFetch { session, hops: _, demand, trace } => {
            let t0 = viz_telemetry::start();
            server.stats.peer_requests.inc();
            server.stats.peer_demand_keys.add(demand.len() as u64);
            match server.submit(SessionId(session), 0, demand, Vec::new()) {
                Ok(sub) => {
                    Outcome::Fetch(PendingFetch { session, sub, t0, tag, trace: trace.trace })
                }
                Err(e) => {
                    Outcome::Ready(Response::Error { code: e.code(), message: e.to_string() })
                }
            }
        }
        // A plain server has no node identity or shard map; it still
        // answers the heartbeat (liveness is liveness) with the sentinel
        // id and version 0. The cluster dispatcher intercepts this tag to
        // fill in real values and feed its failure detector.
        Request::Ping { .. } => Outcome::Ready(Response::Pong {
            node: proto::PING_FROM_CLIENT,
            map_version: 0,
            now_ns: viz_telemetry::now_ns(),
        }),
        // Scrape this process's telemetry plane. On a cluster node the
        // dispatcher intercepts the tag to stamp its real node id.
        Request::TelemetryGet => {
            Outcome::Ready(Response::TelemetryReply(server.wire_telemetry(proto::PING_FROM_CLIENT)))
        }
    }
}

/// Per-node request interceptor: lets a layer above the server (the
/// cluster node) claim protocol tags the plain server cannot answer —
/// `MapGet`, `PeerFetch`, ownership-partitioned `Fetch` — while passing
/// everything else to [`handle_request`]. One dispatcher is shared by
/// every connection of a front end, so implementations hold their own
/// state behind `Arc`s. Dispatch runs on the front end's event-loop
/// thread, so work that can block (storage or peer I/O) belongs in an
/// [`Outcome::Deferred`].
pub trait RequestDispatch: Send + Sync {
    /// Dispatch one decoded request against `server`.
    fn dispatch(&self, server: &Arc<Server>, req: Request) -> Outcome;
}

/// The single-node dispatcher: every request goes straight to
/// [`handle_request`].
pub struct DefaultDispatch;

impl RequestDispatch for DefaultDispatch {
    fn dispatch(&self, server: &Arc<Server>, req: Request) -> Outcome {
        handle_request(server, req)
    }
}
