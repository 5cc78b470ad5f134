//! End-to-end daemon test: real sockets, real journals, graceful drain.
//!
//! Spins the full server up on ephemeral ports, drives the NDJSON protocol
//! over TCP, scrapes `/metrics`, drains, and then replays the sealed shard
//! journals through the instance-free auditor — the same path `dbp
//! recover` takes after a crash — asserting the journals agree with the
//! daemon's own conserved ledger.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_cluster::router::Router;
use dbp_core::algorithms::FirstFit;
use dbp_core::packer::SelectorFactory;
use dbp_obs::journal::{read_journal, FsyncPolicy};
use dbp_obs::replay::replay_events;
use dbp_serve::{journal_shard_path, run_server, BackpressurePolicy, ServeConfig, ServeSummary};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;

fn temp_base(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbp-serve-test-{tag}-{}", std::process::id()));
    p
}

fn send(w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str) -> serde_json::Value {
    w.write_all(line.as_bytes()).unwrap();
    w.write_all(b"\n").unwrap();
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    serde_json::from_str(reply.trim()).unwrap()
}

fn get(v: &serde_json::Value, key: &str) -> serde_json::Value {
    v.get(key).cloned().unwrap_or(serde_json::Value::Null)
}

#[test]
fn daemon_serves_drains_and_journals_replay_to_the_ledger() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let base = temp_base("e2e");
    let shards = 2usize;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        shards,
        router: Router::HashByItem,
        capacity: 10,
        dims: 1,
        capacities: None,
        admission: AdmissionPolicy {
            queue_capacity: 8,
            queue_timeout: 1_000,
        },
        backpressure: BackpressurePolicy::Shed,
        max_sessions: 64,
        read_timeout_ms: 5,
        journal_base: Some(base.clone()),
        fsync: FsyncPolicy::Always,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<(SocketAddr, SocketAddr)>();
    let server = std::thread::spawn(move || -> Result<ServeSummary, String> {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| {
            addr_tx
                .send((h.addr, h.metrics_addr.expect("metrics bound")))
                .unwrap();
        })
    });
    let (addr, maddr) = addr_rx.recv().unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;

    let pong = send(&mut w, &mut r, r#"{"op":"ping","id":9}"#);
    assert_eq!(get(&pong, "ok"), serde_json::Value::Bool(true));

    // Two placements, on whichever shards the hash route picks.
    let a1 = send(&mut w, &mut r, r#"{"op":"arrive","id":1,"at":0,"size":6}"#);
    assert_eq!(get(&a1, "ok"), serde_json::Value::Bool(true), "{a1:?}");
    let a2 = send(&mut w, &mut r, r#"{"op":"arrive","id":2,"at":1,"size":6}"#);
    assert_eq!(get(&a2, "ok"), serde_json::Value::Bool(true), "{a2:?}");

    // Front-door refusal: duplicate live id.
    let dup = send(&mut w, &mut r, r#"{"op":"arrive","id":1,"at":2,"size":3}"#);
    assert_eq!(get(&dup, "ok"), serde_json::Value::Bool(false));

    // Pipeline refusal: oversized for capacity 10.
    let big = send(&mut w, &mut r, r#"{"op":"arrive","id":3,"at":2,"size":20}"#);
    assert_eq!(get(&big, "ok"), serde_json::Value::Bool(false));

    // A departure, an unknown departure, and a garbage line.
    let d1 = send(&mut w, &mut r, r#"{"op":"depart","id":1,"at":5}"#);
    assert_eq!(get(&d1, "ok"), serde_json::Value::Bool(true));
    let ghost = send(&mut w, &mut r, r#"{"op":"depart","id":42,"at":6}"#);
    assert_eq!(get(&ghost, "ok"), serde_json::Value::Bool(false));
    let junk = send(&mut w, &mut r, "definitely not json");
    assert_eq!(get(&junk, "ok"), serde_json::Value::Bool(false));

    // Scrape /metrics while live.
    let mut m = TcpStream::connect(maddr).unwrap();
    m.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut scrape = String::new();
    m.read_to_string(&mut scrape).unwrap();
    assert!(scrape.contains("200 OK"), "{scrape}");
    assert!(scrape.contains("serve_shard_placed_total"), "{scrape}");
    assert!(
        scrape.contains("serve_dropped_duplicate_total 1"),
        "{scrape}"
    );

    // Graceful drain.
    drop(w);
    drop(r);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");

    assert!(summary.conserved(), "{summary:?}");
    assert_eq!(summary.total, 4); // ids 1, 2, dup-1, 3
    assert_eq!(summary.served, 2);
    assert_eq!(summary.dropped, 2); // duplicate + oversized
    assert_eq!(summary.lost, 0);
    assert_eq!(summary.departed, 1);
    assert_eq!(summary.dropped_duplicate, 1);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.bad_lines, 1);
    let in_flight: u64 = summary.shards.iter().map(|s| s.in_flight).sum();
    assert_eq!(in_flight, 1); // id 2 never departed

    // The sealed journals replay — instance-free — to the same aggregate,
    // exactly what `dbp recover` does after a SIGKILL.
    let mut placements = 0u64;
    let mut departures = 0u64;
    let mut open_at_end = 0u64;
    for k in 0..shards {
        let path = journal_shard_path(&base, k);
        let contents = read_journal(&path).expect("journal reads");
        assert!(contents.torn.is_none(), "graceful drain must seal cleanly");
        let s = replay_events(&contents.events).expect("journal replays");
        placements += s.placements;
        departures += s.departures;
        open_at_end += s.open_at_end;
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(placements, summary.served);
    assert_eq!(departures, summary.departed);
    assert_eq!(open_at_end, 1);

    // The summary serializes to one JSON line with the ledger fields.
    let json = summary.to_json();
    assert!(json.contains("\"total\":4"), "{json}");
}

#[test]
fn vector_daemon_places_arrays_and_types_arity_rejections() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let base = temp_base("vec");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        shards: 2,
        router: Router::LeastLoaded,
        capacity: 1000,
        dims: 3,
        capacities: Some(vec![1000, 800, 1000]),
        admission: AdmissionPolicy {
            queue_capacity: 8,
            queue_timeout: 1_000,
        },
        backpressure: BackpressurePolicy::Block,
        max_sessions: 64,
        read_timeout_ms: 5,
        journal_base: Some(base.clone()),
        fsync: FsyncPolicy::Always,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<(SocketAddr, SocketAddr)>();
    let server = std::thread::spawn(move || -> Result<ServeSummary, String> {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| {
            addr_tx
                .send((h.addr, h.metrics_addr.expect("metrics bound")))
                .unwrap();
        })
    });
    let (addr, maddr) = addr_rx.recv().unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;

    // Vector placements.
    let a1 = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":1,"at":0,"demand":[125,90,220]}"#,
    );
    assert_eq!(get(&a1, "ok"), serde_json::Value::Bool(true), "{a1:?}");
    let a2 = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":2,"at":1,"demand":[240,170,680]}"#,
    );
    assert_eq!(get(&a2, "ok"), serde_json::Value::Bool(true), "{a2:?}");

    // Arity mismatches — short, long, scalar spelling — are typed
    // rejections, never truncation and never a dead daemon.
    for bad in [
        r#"{"op":"arrive","id":3,"at":2,"demand":[125,90]}"#,
        r#"{"op":"arrive","id":3,"at":2,"demand":[125,90,220,1]}"#,
        r#"{"op":"arrive","id":3,"at":2,"size":125}"#,
    ] {
        let v = send(&mut w, &mut r, bad);
        assert_eq!(get(&v, "ok"), serde_json::Value::Bool(false), "{bad}");
        let reason = match get(&v, "reason") {
            serde_json::Value::Str(s) => s,
            other => panic!("no reason in reply to {bad}: {other:?}"),
        };
        assert!(reason.starts_with("demand_arity:"), "{bad} -> {reason}");
    }

    // An arrival too big in one dimension alone (cpu 801 > 800) is a
    // componentwise refusal even though every other dimension fits.
    let big = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":4,"at":3,"demand":[1,801,1]}"#,
    );
    assert_eq!(get(&big, "ok"), serde_json::Value::Bool(false), "{big:?}");

    // The live scrape carries per-dimension utilization/waste gauges.
    let mut m = TcpStream::connect(maddr).unwrap();
    m.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut scrape = String::new();
    m.read_to_string(&mut scrape).unwrap();
    for d in 0..3 {
        assert!(
            scrape.contains(&format!("serve_dim_demand{{dim=\"{d}\"}}")),
            "{scrape}"
        );
        assert!(
            scrape.contains(&format!("serve_dim_waste{{dim=\"{d}\"}}")),
            "{scrape}"
        );
        assert!(
            scrape.contains(&format!("serve_dim_utilization_ppm{{dim=\"{d}\"}}")),
            "{scrape}"
        );
    }
    // Dimension 0 demand is the routed gpu load: 125 + 240.
    assert!(
        scrape.contains("serve_dim_demand{dim=\"0\"} 365"),
        "{scrape}"
    );

    let d1 = send(&mut w, &mut r, r#"{"op":"depart","id":1,"at":9}"#);
    assert_eq!(get(&d1, "ok"), serde_json::Value::Bool(true));

    drop(w);
    drop(r);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");
    assert!(summary.conserved(), "{summary:?}");
    assert_eq!(summary.served, 2);
    assert_eq!(summary.rejected, 1); // the per-dimension oversize
    assert_eq!(summary.bad_lines, 3); // the three arity rejections
    assert_eq!(summary.departed, 1);

    // The sealed journals are v2 (3-dimensional) and replay to the ledger.
    let mut placements = 0u64;
    let mut departures = 0u64;
    for k in 0..2usize {
        let path = journal_shard_path(&base, k);
        assert_eq!(dbp_obs::journal::peek_journal_dims(&path).unwrap(), 3);
        let contents = dbp_obs::journal::read_journal_dims::<dbp_core::demand::VSize<3>>(&path)
            .expect("vector journal reads");
        assert!(contents.torn.is_none(), "graceful drain must seal cleanly");
        placements += contents
            .events
            .iter()
            .filter(|e| matches!(e, dbp_core::probe::GProbeEvent::ItemPlaced { .. }))
            .count() as u64;
        departures += contents
            .events
            .iter()
            .filter(|e| matches!(e, dbp_core::probe::GProbeEvent::ItemDeparted { .. }))
            .count() as u64;
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(placements, summary.served);
    assert_eq!(departures, summary.departed);
}

#[test]
fn shed_policy_refuses_queue_overflow_and_ledgers_it() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: None,
        shards: 1,
        router: Router::HashByItem,
        capacity: 1_000_000,
        dims: 1,
        capacities: None,
        // Tiny event-time budget: arrivals stale by ≥ 2 ticks are shed.
        admission: AdmissionPolicy {
            queue_capacity: 4,
            queue_timeout: 2,
        },
        backpressure: BackpressurePolicy::Shed,
        max_sessions: 8,
        read_timeout_ms: 5,
        journal_base: None,
        fsync: FsyncPolicy::Never,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<SocketAddr>();
    let server = std::thread::spawn(move || {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        run_server(cfg, &factory, stop, |h| addr_tx.send(h.addr).unwrap())
    });
    let addr = addr_rx.recv().unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;

    // Advance the shard horizon to 100, then offer a stale arrival: the
    // event-time timeout (satellite semantics: wait == timeout drops).
    let fresh = send(
        &mut w,
        &mut r,
        r#"{"op":"arrive","id":1,"at":100,"size":5}"#,
    );
    assert_eq!(get(&fresh, "ok"), serde_json::Value::Bool(true));
    let stale = send(&mut w, &mut r, r#"{"op":"arrive","id":2,"at":98,"size":5}"#);
    assert_eq!(get(&stale, "ok"), serde_json::Value::Bool(false));
    assert_eq!(
        get(&stale, "reason"),
        serde_json::Value::Str("queue_timeout".to_string())
    );

    // Session-table cap: 8 live sessions max.
    let mut table_full = 0;
    for i in 10..30u64 {
        let v = send(
            &mut w,
            &mut r,
            &format!(r#"{{"op":"arrive","id":{i},"at":100,"size":5}}"#),
        );
        if get(&v, "reason") == serde_json::Value::Str("session table full".to_string()) {
            table_full += 1;
        }
    }
    assert!(table_full > 0, "the session table must be bounded");

    drop(w);
    drop(r);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let summary = server.join().unwrap().expect("server ran");
    assert!(summary.conserved(), "{summary:?}");
    assert_eq!(summary.dropped_timeout, 1);
    assert_eq!(summary.dropped_table_full, table_full);
    assert_eq!(
        summary.served as usize,
        summary.shards[0].in_flight as usize
    );
}

/// A daemon on ephemeral ports in a background thread.
struct Daemon {
    stop: &'static AtomicBool,
    addr: SocketAddr,
    metrics: Option<SocketAddr>,
    server: std::thread::JoinHandle<Result<ServeSummary, String>>,
}

impl Daemon {
    fn start(cfg: ServeConfig) -> Daemon {
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let (tx, rx) = mpsc::channel::<(SocketAddr, Option<SocketAddr>)>();
        let server = std::thread::spawn(move || {
            let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
            run_server(cfg, &factory, stop, |h| {
                tx.send((h.addr, h.metrics_addr)).unwrap()
            })
        });
        let (addr, metrics) = rx.recv().unwrap();
        Daemon {
            stop,
            addr,
            metrics,
            server,
        }
    }

    fn scrape(&self) -> String {
        let mut m = TcpStream::connect(self.metrics.expect("metrics bound")).unwrap();
        m.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut scrape = String::new();
        m.read_to_string(&mut scrape).unwrap();
        scrape
    }

    fn drain(self) -> ServeSummary {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let summary = self.server.join().unwrap().expect("server ran");
        assert!(summary.conserved(), "{summary:?}");
        assert_eq!(summary.lost, 0);
        summary
    }
}

fn config(shards: usize, backpressure: BackpressurePolicy, queue_capacity: u32) -> ServeConfig {
    ServeConfig {
        shards,
        router: Router::LeastLoaded,
        capacity: 100,
        admission: AdmissionPolicy {
            queue_capacity,
            queue_timeout: u64::MAX,
        },
        backpressure,
        read_timeout_ms: 5,
        ..ServeConfig::local(shards, 100)
    }
}

/// One connection's session script: `n` sessions with ids `base + i`, each
/// departing a few events after it arrives, as NDJSON lines in send order.
fn script(base: u64, n: u64, seed: u64) -> Vec<String> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut events: Vec<(u64, bool, u64, u64)> = Vec::new();
    for i in 0..n {
        let at = i * 2;
        let size = 1 + rnd() % 40;
        events.push((at, true, base + i, size));
        events.push((at + 1 + rnd() % 15, false, base + i, size));
    }
    events.sort_by_key(|&(at, arrive, id, _)| (at, arrive, id));
    events
        .into_iter()
        .map(|(at, arrive, id, size)| {
            if arrive {
                format!(r#"{{"op":"arrive","id":{id},"at":{at},"size":{size}}}"#)
            } else {
                format!(r#"{{"op":"depart","id":{id},"at":{at}}}"#)
            }
        })
        .collect()
}

/// Send `lines` in writes of `batch` lines each, reading every reply of a
/// batch before the next; returns the replies in arrival order.
fn replay(addr: SocketAddr, lines: &[String], batch: usize) -> Vec<serde_json::Value> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    let mut replies = Vec::with_capacity(lines.len());
    for chunk in lines.chunks(batch) {
        let mut bytes = chunk.join("\n");
        bytes.push('\n');
        w.write_all(bytes.as_bytes()).unwrap();
        for _ in chunk {
            let mut reply = String::new();
            r.read_line(&mut reply).unwrap();
            replies.push(serde_json::from_str(reply.trim()).unwrap());
        }
    }
    replies
}

fn id_of(line: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(line).unwrap();
    get(&v, "id")
        .as_u64()
        .unwrap_or_else(|| panic!("no id in {line}"))
}

fn is_ok(v: &serde_json::Value) -> bool {
    get(v, "ok") == serde_json::Value::Bool(true)
}

/// K connections replay disjoint session sets concurrently; returns the
/// drained summary and, per connection, (sessions placed, queue_full
/// refusals) as the client saw them.
fn concurrent_run(
    backpressure: BackpressurePolicy,
    queue_capacity: u32,
    tag: &str,
) -> (ServeSummary, Vec<(u64, u64)>, String) {
    const K: u64 = 4;
    const SESSIONS: u64 = 300;
    let base = temp_base(tag);
    let d = Daemon::start(ServeConfig {
        journal_base: Some(base.clone()),
        fsync: FsyncPolicy::Never,
        ..config(2, backpressure, queue_capacity)
    });
    let per_conn: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|c| {
                let addr = d.addr;
                s.spawn(move || {
                    let lines = script(c * 10_000, SESSIONS, c + 1);
                    let replies = replay(addr, &lines, 16);
                    assert_eq!(replies.len(), lines.len());
                    let (mut placed, mut queue_full) = (0u64, 0u64);
                    let mut live = std::collections::HashSet::new();
                    for (line, reply) in lines.iter().zip(&replies) {
                        let id = id_of(line);
                        assert_eq!(get(reply, "id").as_u64(), Some(id), "in order");
                        if line.contains("arrive") {
                            if is_ok(reply) {
                                placed += 1;
                                live.insert(id);
                            } else {
                                assert_eq!(
                                    get(reply, "reason"),
                                    serde_json::Value::Str("queue_full".to_string()),
                                    "{reply:?}"
                                );
                                queue_full += 1;
                            }
                        } else {
                            // A departure succeeds exactly for placed sessions.
                            assert_eq!(is_ok(reply), live.remove(&id), "{line} -> {reply:?}");
                        }
                    }
                    assert!(live.is_empty());
                    (placed, queue_full)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let scrape = d.scrape();
    let summary = d.drain();
    assert_eq!(summary.total, K * SESSIONS);
    assert_eq!(summary.connections, K);

    // The journals replay to the ledger: every placement departed.
    let (mut placements, mut departures) = (0u64, 0u64);
    for k in 0..2 {
        let path = journal_shard_path(&base, k);
        let contents = read_journal(&path).expect("journal reads");
        assert!(contents.torn.is_none());
        let s = replay_events(&contents.events).expect("journal replays");
        assert_eq!(s.open_at_end, 0);
        placements += s.placements;
        departures += s.departures;
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(placements, summary.served);
    assert_eq!(departures, summary.departed);
    (summary, per_conn, scrape)
}

#[test]
fn concurrent_connections_under_block_are_answered_in_order() {
    let (summary, per_conn, scrape) = concurrent_run(BackpressurePolicy::Block, 8, "k4block");
    assert!(per_conn.iter().all(|&(_, shed)| shed == 0));
    assert_eq!(summary.served, summary.total);
    assert_eq!(summary.departed, summary.total);
    assert_eq!(summary.dropped, 0);
    assert!(scrape.contains("serve_sessions_live 0"), "{scrape}");
}

#[test]
fn concurrent_connections_under_shed_ledger_every_queue_full() {
    let (summary, per_conn, scrape) = concurrent_run(BackpressurePolicy::Shed, 1, "k4shed");
    let placed: u64 = per_conn.iter().map(|p| p.0).sum();
    let shed: u64 = per_conn.iter().map(|p| p.1).sum();
    assert_eq!(summary.dropped_queue_full, shed);
    assert_eq!(summary.dropped, shed);
    assert_eq!(summary.served, placed);
    assert_eq!(summary.departed, placed);
    // Every shed was undone at the front door: no session is left behind.
    assert!(scrape.contains("serve_sessions_live 0"), "{scrape}");
    assert!(
        scrape.contains(&format!("serve_dropped_queue_full_total {shed}")),
        "{scrape}"
    );
}

#[test]
fn a_pipelined_burst_is_answered_in_order() {
    let d = Daemon::start(config(2, BackpressurePolicy::Block, 8));
    let lines = script(1, 500, 7);
    assert_eq!(lines.len(), 1_000);
    let replies = replay(d.addr, &lines, lines.len());
    for (line, reply) in lines.iter().zip(&replies) {
        assert_eq!(get(reply, "id").as_u64(), Some(id_of(line)));
        assert!(is_ok(reply), "{line} -> {reply:?}");
    }
    let summary = d.drain();
    assert_eq!(summary.served, 500);
    assert_eq!(summary.departed, 500);
}

#[test]
fn replies_match_the_pipelines_driven_directly() {
    use dbp_cluster::route_one_dims;
    use dbp_cluster::router::{apply_route_dims, unapply_route_dims, zero_loads};
    use dbp_core::item::Size;
    use dbp_serve::{parse_line, Outcome, Reply, Request, ShardPipeline};

    let shards = 3;
    let cfg = config(shards, BackpressurePolicy::Block, 8);
    let (router, admission) = (cfg.router, cfg.admission);
    let d = Daemon::start(cfg);
    let mut lines = script(1, 400, 11);
    lines.push(r#"{"op":"arrive","id":9000,"at":900,"size":101}"#.to_string());
    lines.push(r#"{"op":"ping","id":5}"#.to_string());
    let live: Vec<String> = replay(d.addr, &lines, 64)
        .iter()
        .map(|v| serde_json::to_string(v).unwrap())
        .collect();
    d.drain();

    // The same stream through the front door's routing and one pipeline per
    // shard, on this thread.
    let mut pipes: Vec<ShardPipeline> = (0..shards)
        .map(|_| ShardPipeline::new(Size(100), Box::new(FirstFit::new()), admission))
        .collect();
    let mut loads = zero_loads(shards, 1);
    let mut home = std::collections::HashMap::new();
    let direct: Vec<String> = lines
        .iter()
        .map(|line| {
            let req = parse_line(line).unwrap();
            let shard = match req {
                Request::Ping { id } => return Reply::ok(id, None).to_line(),
                Request::Arrive { id, demand, .. } => {
                    let k = route_one_dims(router, id, &demand[..1], &loads);
                    apply_route_dims(&mut loads, k, &demand[..1]);
                    home.insert(id, (k, demand));
                    k
                }
                Request::Depart { id, .. } => {
                    let (k, demand) = home.remove(&id).unwrap();
                    unapply_route_dims(&mut loads, k, &demand[..1]);
                    k
                }
            };
            let id = req.id();
            match pipes[shard].handle(&req) {
                Outcome::Placed { bin } => Reply::placed(id, shard, bin.0 as u64),
                Outcome::Departed | Outcome::Pong => Reply::ok(id, Some(shard)),
                Outcome::Dropped { reason } => Reply::refused(id, reason.name()),
                Outcome::Rejected { reason } => {
                    let (k, demand) = home.remove(&id).unwrap();
                    unapply_route_dims(&mut loads, k, &demand[..1]);
                    Reply::refused(id, reason)
                }
            }
            .to_line()
        })
        .collect();
    assert_eq!(live, direct);
}

#[test]
fn an_over_long_line_is_refused_and_the_connection_resyncs() {
    let d = Daemon::start(config(1, BackpressurePolicy::Block, 8));
    let stream = TcpStream::connect(d.addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    let mut long = vec![b'x'; 1 << 20];
    long.push(b'\n');
    w.write_all(&long).unwrap();
    // One refusal for the whole line, then the ping after it is served.
    let refusal = send(&mut w, &mut r, r#"{"op":"ping","id":77}"#);
    assert_eq!(get(&refusal, "ok"), serde_json::Value::Bool(false));
    match get(&refusal, "reason") {
        serde_json::Value::Str(s) => assert!(s.starts_with("line_too_long"), "{s}"),
        other => panic!("no reason: {other:?}"),
    }
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let pong: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(get(&pong, "ok"), serde_json::Value::Bool(true));
    assert_eq!(get(&pong, "id").as_u64(), Some(77));
    drop(w);
    drop(r);
    let summary = d.drain();
    assert_eq!(summary.bad_lines, 1);
}
