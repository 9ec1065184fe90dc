//! Localhost TCP end-to-end: real sockets, real worker threads, many
//! concurrent clients against one shared engine, all on the one
//! [`TcpServer`] event loop — replies, coalescing, metrics, deadlines,
//! pipelining, large replies over partial writes, backpressure, custom
//! dispatchers (cluster nodes pinging and forwarding to each other), and
//! shutdown.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use viz_cluster::{
    ClusterConfig, ClusterNode, NodeId, PeerLink, ShardMap, ShardStrategy, TcpPeerLink,
};
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::proto::{decode_response, encode_request, ERR_NO_MAP};
use viz_serve::{
    ClientError, Request, Response, ServeClient, ServeConfig, Server, TcpServer, TcpTransport,
    TraceCtx,
};
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn tcp_server(workers: usize, n: u32) -> (TcpServer, Arc<InstrumentedSource>) {
    let store = MemBlockStore::new();
    for i in 0..n {
        store.insert(key(i), vec![i as f32; 8]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::from_micros(200)));
    let engine = FetchEngine::spawn(
        src.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    (TcpServer::bind(server, "127.0.0.1:0").unwrap(), src)
}

#[test]
fn four_tcp_clients_share_one_engine() {
    let (tcp, src) = tcp_server(2, 32);
    let addr = tcp.local_addr().to_string();

    let handles: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::new(TcpTransport::connect(&addr).expect("connect"));
                client.open(&format!("client-{c}")).expect("open");
                // Every client wants blocks 0..4 (shared) plus one of its
                // own — cross-client coalescing territory.
                let demand: Vec<BlockKey> = (0..4).map(key).chain([key(10 + c)]).collect();
                let got = client.fetch(demand.clone(), vec![(key(20 + c), 0.8)]).expect("fetch");
                assert_eq!(got.blocks.len(), 5);
                for (i, reply) in got.blocks.iter().enumerate() {
                    assert_eq!(reply.key, demand[i]);
                    let data = reply.result.as_ref().expect("payload");
                    assert_eq!(data[0], reply.key.block.0 as f32);
                }
                assert_eq!(got.shed, 0);
                let generation = client.advance().expect("advance");
                assert_eq!(generation, 1);
                client.close().expect("close");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // 4 clients × 5 demand + 4 prefetch = 24 wants over at most 12
    // distinct keys; the shared engine must not have read more than the
    // distinct set (demand 0..4 and 10..14, prefetch 20..24).
    assert!(src.reads() <= 13, "shared engine read {} times", src.reads());

    let server = tcp.server().clone();
    let m = server.metrics();
    assert_eq!(m.demand_served, 20);
    assert_eq!(m.sessions_opened, 4);
    assert_eq!(m.sessions_closed, 4);

    let report = tcp.shutdown();
    assert_eq!(report.sessions_closed, 0, "clients closed their own sessions");
}

#[test]
fn stats_round_trip_over_tcp() {
    let (tcp, _src) = tcp_server(1, 8);
    let addr = tcp.local_addr().to_string();

    let mut client = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    client.open("stats").unwrap();
    client.fetch(vec![key(1), key(2)], vec![]).unwrap();
    let stats = client.stats().unwrap();
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(get("serve_demand_served"), Some(2));
    assert_eq!(get("serve_sessions_opened"), Some(1));
    assert!(get("fetch_completed").unwrap_or(0) >= 2, "engine counters ride along");
    assert!(get("pool_resident_blocks").unwrap_or(0) >= 2, "pool gauges ride along");

    drop(client);
    tcp.shutdown();
}

#[test]
fn shutdown_forces_out_a_lingering_client() {
    let (tcp, _src) = tcp_server(1, 8);
    let addr = tcp.local_addr().to_string();

    let mut client = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    client.open("lingerer").unwrap();
    client.fetch(vec![key(3)], vec![]).unwrap();
    assert_eq!(tcp.server().sessions().len(), 1);

    // The client neither closes nor disconnects; shutdown must not hang:
    // it forces the connection out and closes the orphaned session on
    // its way down.
    let server = tcp.server().clone();
    tcp.shutdown();
    assert_eq!(server.sessions().len(), 0);
    assert_eq!(server.metrics().sessions_closed, 1);

    // The socket is dead afterwards.
    assert!(client.stats().is_err());
}

/// A demand deadline on the timer wheel bounds the reply even when the
/// source is far slower — no sacrificial timeout thread, and the
/// abandoned read still lands in the pool afterwards.
#[test]
fn reactor_demand_deadline_bounds_a_slow_source() {
    let store = MemBlockStore::new();
    store.insert(key(0), vec![0.5; 8]);
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::from_millis(300)));
    let engine = FetchEngine::spawn(
        src,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );
    let server = Server::new(
        Arc::new(engine),
        ServeConfig { demand_deadline: Some(Duration::from_millis(25)), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind(server, "127.0.0.1:0").unwrap();

    let mut client =
        ServeClient::new(TcpTransport::connect(&tcp.local_addr().to_string()).unwrap());
    client.open("impatient").unwrap();
    let t0 = std::time::Instant::now();
    let got = client.fetch(vec![key(0)], vec![]).unwrap();
    let waited = t0.elapsed();
    assert!(got.blocks[0].result.is_err(), "the 300 ms read cannot beat a 25 ms deadline");
    assert!(
        waited < Duration::from_millis(290),
        "deadline reply took {waited:?}, the wheel must fire long before the read lands"
    );
    // The read was abandoned, not cancelled: once it lands, the block is
    // resident and the retry is a pool hit.
    std::thread::sleep(Duration::from_millis(350));
    let again = client.fetch(vec![key(0)], vec![]).unwrap();
    assert_eq!(again.blocks[0].result.as_ref().unwrap()[0], 0.5);
    client.close().unwrap();
    tcp.shutdown();
}

/// One connection pipelines several requests; replies come back in order
/// even though fetches park mid-stream, and a second connection's traffic
/// interleaves on the same loop thread.
#[test]
fn reactor_preserves_per_connection_order_under_pipelining() {
    let (tcp, _src) = tcp_server(2, 64);
    let addr = tcp.local_addr().to_string();

    let mut a = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    let mut b = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    a.open("pipeliner").unwrap();
    b.open("bystander").unwrap();

    // Queue three fetches back-to-back without reading any reply, then a
    // stats probe: four responses must arrive, in request order.
    for i in 0..3u32 {
        a.send_fetch(0, vec![key(i), key(i + 8)], vec![(key(40 + i), 0.5)]).unwrap();
    }
    a.send_stats().unwrap();
    let other = b.fetch(vec![key(7)], vec![]).unwrap();
    assert_eq!(other.blocks.len(), 1);
    for i in 0..3u32 {
        let got = a.recv_fetch().unwrap();
        assert_eq!(got.blocks.len(), 2);
        assert_eq!(got.blocks[0].key, key(i), "reply order must match request order");
        assert!(got.blocks.iter().all(|r| r.result.is_ok()));
    }
    let tail = a.recv_response().unwrap();
    assert!(
        matches!(tail, Response::StatsReply { .. }),
        "the pipelined stats probe answers last: {tail:?}"
    );
    let m = tcp.server().metrics();
    assert_eq!(m.demand_served, 7);
    tcp.shutdown();
}

/// Read one whole frame in `chunk`-byte reads with a pause before each:
/// a slow viewer that keeps the server's socket buffer full.
fn read_frame_slowly(s: &mut TcpStream, chunk: usize, pause: Duration) -> Vec<u8> {
    let mut frame = vec![0u8; 8];
    s.read_exact(&mut frame).unwrap();
    let body = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    frame.resize(8 + body, 0);
    let mut at = 8;
    while at < frame.len() {
        std::thread::sleep(pause);
        let end = (at + chunk).min(frame.len());
        let n = s.read(&mut frame[at..end]).unwrap();
        assert!(n > 0, "server hung up mid-reply");
        at += n;
    }
    frame
}

/// A reply far larger than the socket buffers goes out over many partial
/// writes while the client drains it in small, delayed reads; it arrives
/// CRC-intact, and a request already queued behind it on the same
/// connection answers after it, in order.
#[test]
fn multi_mb_reply_survives_partial_writes_to_a_slow_reader() {
    const BIG: usize = 4 << 20; // f32s: a 16 MB payload
    let store = MemBlockStore::new();
    store.insert(key(0), (0..BIG).map(|i| i as f32).collect());
    store.insert(key(1), vec![1.0; 8]);
    let engine = FetchEngine::spawn(
        Arc::new(store),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let tcp = TcpServer::bind(server, "127.0.0.1:0").unwrap();

    let mut s = TcpStream::connect(tcp.local_addr()).unwrap();
    // A lost or reordered byte fails the test instead of hanging it.
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&encode_request(&Request::Open { name: "slow".into() })).unwrap();
    let session = match decode_response(&read_frame_slowly(&mut s, 64, Duration::ZERO)).unwrap() {
        Response::OpenAck { session } => session,
        other => panic!("wanted OpenAck, got {other:?}"),
    };

    // Both requests are on the wire before any reply is read.
    for k in [0, 1] {
        let fetch = Request::Fetch {
            session,
            generation: 0,
            demand: vec![key(k)],
            prefetch: vec![],
            trace: TraceCtx::NONE,
        };
        s.write_all(&encode_request(&fetch)).unwrap();
    }

    let big = read_frame_slowly(&mut s, 64 << 10, Duration::from_millis(1));
    assert!(big.len() > 16 << 20);
    match decode_response(&big).expect("CRC-intact") {
        Response::FetchReply { blocks, .. } => {
            assert_eq!(blocks[0].key, key(0));
            let data = blocks[0].result.as_ref().unwrap();
            assert_eq!(data.len(), BIG);
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as f32));
        }
        other => panic!("wanted FetchReply, got {other:?}"),
    }
    match decode_response(&read_frame_slowly(&mut s, 64, Duration::ZERO)).unwrap() {
        Response::FetchReply { blocks, .. } => {
            assert_eq!(blocks[0].key, key(1), "the queued request answers second");
            assert_eq!(blocks[0].result.as_ref().unwrap()[0], 1.0);
        }
        other => panic!("wanted FetchReply, got {other:?}"),
    }
    drop(s);
    tcp.shutdown();
}

/// A client that pipelines fetches without reading any reply is held
/// back by TCP flow control: once a reply backs up, the loop stops
/// dispatching (and reading) that connection, so server memory holds a
/// few replies, not one per request. Every reply still arrives, in
/// order, once the client reads.
#[test]
fn a_client_that_never_reads_cannot_queue_unbounded_replies() {
    const BLOCK: usize = 1 << 20; // f32s: a 4 MB reply
    const SENT: u32 = 16;
    let store = MemBlockStore::new();
    store.insert(key(0), vec![0.5; BLOCK]);
    let engine = FetchEngine::spawn(
        Arc::new(store),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let tcp = TcpServer::bind(server, "127.0.0.1:0").unwrap();

    let t = TcpTransport::connect(&tcp.local_addr().to_string()).unwrap();
    t.stream().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut c = ServeClient::new(t);
    c.open("hoarder").unwrap();
    for _ in 0..SENT {
        c.send_fetch(0, vec![key(0)], vec![]).unwrap();
    }
    // Give the loop ample time to dispatch everything it is willing to.
    std::thread::sleep(Duration::from_millis(500));
    let answered = tcp.server().metrics().demand_served;
    assert!(
        answered <= 8,
        "{answered} of {SENT} 4 MB replies were produced for a client that reads none"
    );

    for _ in 0..SENT {
        let got = c.recv_fetch().unwrap();
        assert_eq!(got.blocks[0].result.as_ref().unwrap().len(), BLOCK);
    }
    assert_eq!(tcp.server().metrics().demand_served, u64::from(SENT));
    drop(c);
    tcp.shutdown();
}

/// `ClusterNode`s on their own `TcpServer` loops, dialing each other over
/// TCP.
fn tcp_cluster(n: u32) -> (Vec<Arc<ClusterNode>>, Vec<TcpServer>, ShardMap) {
    let store = MemBlockStore::new();
    for i in 0..8 {
        store.insert(key(i), vec![i as f32; 8]);
    }
    let store: Arc<dyn BlockSource> = Arc::new(store);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let map = ShardMap::new(&ids, 16, ShardStrategy::Ring);
    let addrs: Arc<Mutex<HashMap<u32, SocketAddr>>> = Arc::default();
    let (mut nodes, mut fronts) = (Vec::new(), Vec::new());
    for &id in &ids {
        let book = addrs.clone();
        let connect = move |peer: NodeId| -> io::Result<Box<dyn PeerLink>> {
            let addr = book.lock().unwrap().get(&peer.0).copied();
            let addr = addr.ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
            Ok(Box::new(TcpPeerLink::connect(addr)?))
        };
        let node = ClusterNode::new(
            id,
            store.clone(),
            map.clone(),
            connect,
            FetchConfig { workers: 1, ..FetchConfig::default() },
            ServeConfig::default(),
            ClusterConfig::default(),
        );
        let front =
            TcpServer::bind_with(node.server().clone(), node.clone(), "127.0.0.1:0").unwrap();
        addrs.lock().unwrap().insert(id.0, front.local_addr());
        nodes.push(node);
        fronts.push(front);
    }
    (nodes, fronts, map)
}

/// A client whose reads give up after five seconds, so a stalled loop
/// fails the test instead of hanging it.
fn impatient_client(addr: SocketAddr) -> ServeClient<TcpTransport> {
    let t = TcpTransport::connect(&addr.to_string()).unwrap();
    t.stream().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    ServeClient::new(t)
}

/// Crossed pings with skewed map versions, each claiming a newer map than
/// the receiver holds: both Pongs come back at once, because no node
/// pulls a map on its event loop (two loops pulling from each other
/// would each wait on the other). The behind node converges through its
/// own heartbeat. A `PeerFetch` past the hop cap (direct storage reads)
/// answers over the same loop.
#[test]
fn cluster_nodes_answer_crossed_pings_and_direct_peer_fetches() {
    let (nodes, fronts, map) = tcp_cluster(2);
    let newer = map.without(NodeId(1)).with(NodeId(1));
    assert!(nodes[0].install_map(newer.clone()));

    let mut to_a = impatient_client(fronts[0].local_addr());
    let mut to_b = impatient_client(fronts[1].local_addr());
    let t0 = Instant::now();
    to_b.send_raw(&encode_request(&Request::Ping { from: 0, map_version: newer.version() }))
        .unwrap();
    to_a.send_raw(&encode_request(&Request::Ping { from: 1, map_version: newer.version() + 1 }))
        .unwrap();
    for (c, node) in [(&mut to_b, 1), (&mut to_a, 0)] {
        match c.recv_response().expect("the loop answered the ping") {
            Response::Pong { node: got, .. } => assert_eq!(got, node),
            other => panic!("wanted Pong, got {other:?}"),
        }
    }
    assert!(t0.elapsed() < Duration::from_secs(2), "pongs took {:?}", t0.elapsed());
    assert_eq!(nodes[1].heartbeat_tick(1), (1, 0));
    assert_eq!(nodes[1].map().version(), newer.version(), "the heartbeat pulled the newer map");

    to_a.open("peer").unwrap();
    let keys: Vec<BlockKey> = (0..8).map(key).collect();
    let got = to_a.peer_fetch(ClusterConfig::default().max_hops, keys.clone()).unwrap();
    for (b, k) in got.blocks.iter().zip(&keys) {
        assert_eq!(b.key, *k);
        assert_eq!(b.result.as_ref().unwrap()[0], k.block.0 as f32);
    }
    drop((to_a, to_b));
    for f in fronts {
        f.shutdown();
    }
}

/// A `ClusterNode` behind [`TcpServer::bind_with`] answers requests the
/// plain server cannot: every request goes through the supplied
/// dispatcher, not straight to `handle_request`.
#[test]
fn bind_with_routes_requests_through_the_cluster_dispatcher() {
    let (_, fronts, map) = tcp_cluster(1);
    let mut client = impatient_client(fronts[0].local_addr());
    assert_eq!(client.map_get().unwrap(), (map.version(), map.encode()));
    drop(client);
    for f in fronts {
        f.shutdown();
    }

    // The same request against a plain server has no map to hand out.
    let (tcp, _src) = tcp_server(1, 8);
    let mut client = impatient_client(tcp.local_addr());
    match client.map_get() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ERR_NO_MAP),
        other => panic!("wanted ERR_NO_MAP, got {other:?}"),
    }
    drop(client);
    tcp.shutdown();
}
