//! Deterministic multi-client serving: `workers = 0`, every interleaving
//! chosen by the test via [`InProcServer::tick`].

use std::sync::Arc;
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::proto::ERR_UNKNOWN_SESSION;
use viz_serve::{InProcServer, ServeClient, ServeConfig, Server, SessionId};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// A deterministic server over an instrumented in-memory store holding
/// blocks `0..n`, each `[i; 16]`.
fn det_server(cfg: ServeConfig, n: u32) -> (Arc<Server>, Arc<InstrumentedSource>) {
    let store = MemBlockStore::new();
    for i in 0..n {
        store.insert(key(i), vec![i as f32; 16]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::ZERO));
    let engine = FetchEngine::spawn(
        src.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    (Server::new(Arc::new(engine), cfg), src)
}

#[test]
fn two_clients_same_key_is_one_source_read() {
    let (server, src) = det_server(ServeConfig::default(), 8);
    let mut inproc = InProcServer::new(server.clone());
    let mut a = ServeClient::new(inproc.connect());
    let mut b = ServeClient::new(inproc.connect());

    a.send_open("a").unwrap();
    b.send_open("b").unwrap();
    inproc.tick();
    let sa = a.recv_open().unwrap();
    let sb = b.recv_open().unwrap();
    assert_ne!(sa, sb);

    // Both demand the same key before the engine runs: a tick dispatches
    // every ready connection before it steps the engine, so the second
    // request must coalesce onto the first's in-flight read. Work done:
    // two requests, one engine job, two replies.
    a.send_fetch(0, vec![key(3)], vec![]).unwrap();
    b.send_fetch(0, vec![key(3)], vec![]).unwrap();
    assert_eq!(inproc.tick(), 5, "both requests decoded before any engine work");

    let ra = a.recv_fetch().unwrap();
    let rb = b.recv_fetch().unwrap();
    let pa = ra.blocks[0].result.as_ref().unwrap();
    let pb = rb.blocks[0].result.as_ref().unwrap();
    assert_eq!(pa.as_ref(), &vec![3.0; 16], "client A got the payload");
    assert_eq!(pa, pb, "client B got the same payload");

    assert_eq!(src.reads(), 1, "exactly one source read for two clients");
    let m = server.engine().metrics();
    assert_eq!(m.cross_tag_coalesced, 1, "the join was across sessions");
    assert_eq!(server.metrics().demand_served, 2);
}

#[test]
fn replies_route_to_the_requesting_session() {
    let (server, _src) = det_server(ServeConfig::default(), 8);
    let mut inproc = InProcServer::new(server);
    let mut a = ServeClient::new(inproc.connect());
    let mut b = ServeClient::new(inproc.connect());

    a.send_open("a").unwrap();
    b.send_open("b").unwrap();
    inproc.tick();
    a.recv_open().unwrap();
    b.recv_open().unwrap();

    a.send_fetch(0, vec![key(1)], vec![]).unwrap();
    b.send_fetch(0, vec![key(2)], vec![]).unwrap();
    inproc.tick();
    assert_eq!(a.recv_fetch().unwrap().blocks[0].result.as_ref().unwrap()[0], 1.0);
    assert_eq!(b.recv_fetch().unwrap().blocks[0].result.as_ref().unwrap()[0], 2.0);

    a.send_stats().unwrap();
    inproc.tick();
    let stats = match a.recv_response().unwrap() {
        viz_serve::Response::StatsReply { counters } => counters,
        other => panic!("wanted StatsReply, got {other:?}"),
    };
    assert_eq!(stats.iter().find(|(n, _)| n == "serve_demand_served").unwrap().1, 2);
    assert_eq!(stats.iter().find(|(n, _)| n == "serve_sessions_opened").unwrap().1, 2);
}

#[test]
fn unknown_session_is_a_typed_error_not_a_dead_connection() {
    let (server, _src) = det_server(ServeConfig::default(), 4);
    let mut inproc = InProcServer::new(server);
    let mut c = ServeClient::new(inproc.connect());

    c.send_raw(&viz_serve::proto::encode_request(&viz_serve::Request::Fetch {
        session: 999,
        generation: 0,
        demand: vec![key(0)],
        prefetch: vec![],
        trace: viz_serve::TraceCtx::NONE,
    }))
    .unwrap();
    inproc.tick();
    match c.recv_response().unwrap() {
        viz_serve::Response::Error { code, .. } => assert_eq!(code, ERR_UNKNOWN_SESSION),
        other => panic!("wanted Error, got {other:?}"),
    }

    // The connection is still good.
    c.send_open("late").unwrap();
    inproc.tick();
    c.recv_open().unwrap();
}

#[test]
fn demand_is_never_shed_while_prefetch_downgrades_then_sheds() {
    let cfg =
        ServeConfig { downgrade_queue_depth: 2, shed_queue_depth: 4, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 64);
    let sid = server.open_session("storm").unwrap();

    let demand: Vec<BlockKey> = (0..8).map(key).collect();
    let prefetch: Vec<(BlockKey, f64)> = (8..16).map(|i| (key(i), 0.9)).collect();
    let sub = server.submit(sid, 0, demand, prefetch).unwrap();

    // Backlog walks 0..8 as entries are admitted: 2 at full priority,
    // 2 downgraded (backlog 2..4), the remaining 4 shed at the watermark.
    assert_eq!(sub.shed(), 4);
    assert_eq!(sub.downgraded(), 2);

    server.pump();
    server.engine().run_until_idle();
    let replies = sub.collect_ready(&server);
    assert_eq!(replies.len(), 8, "every demand key answered despite the storm");
    assert!(replies.iter().all(|r| r.result.is_ok()));

    let m = server.metrics();
    assert_eq!(m.demand_admitted, 8);
    assert_eq!(m.demand_served, 8);
    assert_eq!(m.prefetch_shed, 4);
    assert_eq!(m.prefetch_downgraded, 2);
}

#[test]
fn per_client_quotas_bound_a_greedy_session() {
    let cfg = ServeConfig { per_client_queue: 4, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 64);
    let greedy = server.open_session("greedy").unwrap();
    let modest = server.open_session("modest").unwrap();

    let sub = server.submit(greedy, 0, vec![], (0..10).map(|i| (key(i), 1.0)).collect()).unwrap();
    assert_eq!(sub.shed(), 6, "entries past the per-client queue quota shed");

    // The quota is per client: the other session still admits freely.
    let sub2 = server.submit(modest, 0, vec![], (20..23).map(|i| (key(i), 1.0)).collect()).unwrap();
    assert_eq!(sub2.shed(), 0);

    let views = server.sessions();
    assert_eq!(views[0].prefetch_shed, 6);
    assert_eq!(views[1].prefetch_shed, 0);
}

#[test]
fn pool_pressure_sheds_new_prefetch() {
    let cfg = ServeConfig { shed_resident_bytes: 1, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 8);
    let sid = server.open_session("v").unwrap();
    server.engine().pool().insert(key(0), vec![0.0; 16]);

    let sub = server.submit(sid, 0, vec![], vec![(key(1), 1.0)]).unwrap();
    assert_eq!(sub.shed(), 1, "resident bytes over the watermark shed speculation");

    // Demand still flows under pool pressure.
    let sub = server.submit(sid, 0, vec![key(2)], vec![]).unwrap();
    server.pump();
    server.engine().run_until_idle();
    assert!(sub.collect_ready(&server)[0].result.is_ok());
}

#[test]
fn advance_purges_stale_prefetch_and_sheds_stale_generations() {
    let (server, src) = det_server(ServeConfig::default(), 64);
    let sid = server.open_session("stepper").unwrap();

    // Queue speculation under generation 0, then advance before pumping:
    // the queued entries must never reach the source.
    let sub = server.submit(sid, 0, vec![], vec![(key(1), 1.0), (key(2), 1.0)]).unwrap();
    assert_eq!(sub.shed(), 0);
    assert_eq!(server.advance(sid), Some(1));
    server.pump();
    server.engine().run_until_idle();
    assert_eq!(src.reads(), 0, "purged prefetch never touched the source");

    // A straggler still submitting under generation 0 sheds...
    let stale = server.submit(sid, 0, vec![], vec![(key(3), 1.0)]).unwrap();
    assert_eq!(stale.shed(), 1);
    // ...while the current generation admits.
    let fresh = server.submit(sid, 1, vec![], vec![(key(4), 1.0)]).unwrap();
    assert_eq!(fresh.shed(), 0);
    server.pump();
    server.engine().run_until_idle();
    assert!(server.engine().pool().contains(key(4)));
    assert!(!server.engine().pool().contains(key(3)));
}

#[test]
fn attached_flight_feeds_next_frame_speculation_on_advance() {
    use viz_core::ClientFlight;
    use viz_geom::{CameraPose, Vec3};

    let (server, _src) = det_server(ServeConfig::default(), 8);
    let sid = server.open_session("guided").unwrap();

    let pose = CameraPose::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 0.0), 1.0);
    let visible = vec![vec![BlockId(0), BlockId(1)], vec![BlockId(2)], vec![BlockId(3)]];
    let flight = ClientFlight::from_visible(vec![pose; 3], visible, None, 0.0);
    assert!(server.attach_flight(sid, flight));
    assert!(!server.attach_flight(SessionId(999), {
        let pose = CameraPose::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 0.0), 1.0);
        ClientFlight::from_visible(vec![pose], vec![vec![]], None, 0.0)
    }));

    // Step 0's frame speculates step 1's visible set (block 2).
    server.advance(sid).unwrap();
    server.pump();
    server.engine().run_until_idle();
    assert!(server.engine().pool().contains(key(2)));
    assert!(!server.engine().pool().contains(key(3)));

    // The next advance speculates step 2's set.
    server.advance(sid).unwrap();
    server.pump();
    server.engine().run_until_idle();
    assert!(server.engine().pool().contains(key(3)));
}

#[test]
fn drain_flushes_demand_drops_prefetch_and_refuses_new_work() {
    let (server, src) = det_server(ServeConfig::default(), 64);
    let a = server.open_session("a").unwrap();
    let b = server.open_session("b").unwrap();

    let sub_a = server.submit(a, 0, vec![key(0), key(1)], vec![(key(10), 1.0)]).unwrap();
    let sub_b = server.submit(b, 0, vec![key(2)], vec![(key(11), 1.0), (key(12), 0.5)]).unwrap();

    let report = server.drain();
    assert_eq!(report.sessions_closed, 2);
    assert_eq!(report.demand_flushed, 3, "all queued demand reached the engine");
    assert_eq!(report.prefetch_dropped, 3, "queued speculation was discarded");
    assert_eq!(src.reads(), 3, "drain ran the engine to idle on demand only");

    let ra = sub_a.collect_ready(&server);
    let rb = sub_b.collect_ready(&server);
    assert!(ra.iter().all(|r| r.result.is_ok()), "flushed demand still delivers");
    assert!(rb[0].result.is_ok());

    assert_eq!(server.open_session("late"), Err(viz_serve::ServeError::Draining));
    assert_eq!(server.sessions().len(), 0);
}

#[test]
fn session_cap_refuses_the_overflow_open() {
    let cfg = ServeConfig { max_sessions: 2, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 4);
    server.open_session("a").unwrap();
    server.open_session("b").unwrap();
    assert_eq!(server.open_session("c"), Err(viz_serve::ServeError::TooManySessions));
    // Closing one frees a slot.
    let views = server.sessions();
    assert!(server.close_session(views[0].id));
    server.open_session("c").unwrap();
}

#[test]
fn disconnecting_a_client_closes_its_sessions() {
    let (server, _src) = det_server(ServeConfig::default(), 4);
    let mut inproc = InProcServer::new(server.clone());
    let mut a = ServeClient::new(inproc.connect());
    a.send_open("ephemeral").unwrap();
    inproc.tick();
    a.recv_open().unwrap();
    assert_eq!(server.sessions().len(), 1);

    // A dropped pipe is seen when the loop probes it, as `poll(2)`
    // reports a hangup.
    drop(a);
    inproc.sweep();
    inproc.tick();
    assert_eq!(server.sessions().len(), 0, "owned session closed on disconnect");
    assert_eq!(server.metrics().sessions_closed, 1);
}
