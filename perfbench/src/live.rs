//! The `live` workload: an open-loop NDJSON load generator for `dbp serve`
//! over one connection, and the in-process traced run of the daemon's
//! layers (protocol, streaming core, shard pipeline, journal) on the same
//! request stream.

use crate::flags::Flags;
use crate::probes::{Counting, DecisionClock};
use crate::stats::{clock_cost_ns, mean, percentile, secs, timed, Out};
use dbp_cloudsim::AdmissionPolicy;
use dbp_cluster::vector::zero_loads;
use dbp_cluster::{route_one_dims, Router};
use dbp_core::algorithms::FirstFit;
use dbp_core::instance::Instance;
use dbp_core::span::stage;
use dbp_core::streaming::StreamingEngine;
use dbp_core::time::Tick;
use dbp_core::{BinSelector, ItemId, NoProbe, Probe, RegionId, Size};
use dbp_obs::{FsyncPolicy, JournalProbe, StageAggregator, StageBreakdown};
use dbp_serve::{parse_line_dims, Outcome, Reply, Request, ServeProbe, ShardPipeline};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One request of the replayed stream.
struct Event {
    at: u64,
    arrive: bool,
    id: u64,
    size: u64,
}

/// The trace's arrivals and departures in event-time order, departures
/// first at equal ticks (intervals are half-open), shifted `offset` ticks.
fn events(inst: &Instance, offset: u64) -> Vec<Event> {
    let mut ev: Vec<Event> = inst
        .items()
        .iter()
        .flat_map(|it| {
            let (id, size) = (it.id.0 as u64, it.size.raw());
            [
                Event {
                    at: it.arrival.raw() + offset,
                    arrive: true,
                    id,
                    size,
                },
                Event {
                    at: it.departure.raw() + offset,
                    arrive: false,
                    id,
                    size,
                },
            ]
        })
        .collect();
    ev.sort_by_key(|e| (e.at, e.arrive, e.id));
    ev
}

fn wire_line(e: &Event) -> String {
    if e.arrive {
        format!(
            "{{\"op\":\"arrive\",\"id\":{},\"at\":{},\"size\":{}}}\n",
            e.id, e.at, e.size
        )
    } else {
        format!("{{\"op\":\"depart\",\"id\":{},\"at\":{}}}\n", e.id, e.at)
    }
}

fn load(path: &str) -> Result<Instance, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

/// The id a reply line carries, if it says `"ok":true`.
fn ok_reply_id(line: &str) -> Option<u64> {
    if !line.starts_with("{\"ok\":true,\"id\":") {
        return None;
    }
    let digits: String = line[16..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Sleep until about `due_ns` after `start`. A sleep overshoots by the
/// kernel's timer slack, so each one aims that much early and the send may
/// go out up to `EARLY_NS` before it is due. Sleeping rather than spinning
/// leaves both cores to the daemon.
fn wait_until(start: Instant, due_ns: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now + EARLY_NS >= due_ns {
            return;
        }
        let ahead = due_ns - now;
        std::thread::sleep(Duration::from_nanos(
            ahead.saturating_sub(SLACK_NS).max(1_000),
        ));
    }
}

const SLACK_NS: u64 = 55_000;
const EARLY_NS: u64 = 20_000;

/// `live-pass`: replay the trace once against a running daemon at a fixed
/// request rate (`max`: as fast as the socket takes it), timing each reply.
pub fn pass(f: &Flags) -> Result<Out, String> {
    let inst = load(f.str("trace")?)?;
    let span = inst.last_departure().map_or(0, |t| t.raw()) + 1;
    // `--repeat K` replays the trace K times back to back (passes
    // P..P+K), each shifted past the previous one's last event.
    let first = f.u64("pass")?;
    let repeat = if f.has("repeat") { f.u64("repeat")? } else { 1 };
    let evs: Vec<Event> = (first..first + repeat)
        .flat_map(|p| events(&inst, p * span))
        .collect();
    let lines: Vec<String> = evs.iter().map(wire_line).collect();
    let n = lines.len();
    let gap_ns = match f.str("rate")? {
        "max" => 0.0,
        r => 1e9 / r.parse::<f64>().map_err(|_| format!("bad --rate '{r}'"))?,
    };

    let stream = TcpStream::connect(f.str("addr")?).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let ids: Vec<u64> = evs.iter().map(|e| e.id).collect();
    let start = Instant::now();

    let (sent_ns, (recv_ns, ok, wrong_id)) = std::thread::scope(|s| {
        let replies = s.spawn(|| {
            let mut recv_ns = Vec::with_capacity(n);
            let (mut ok, mut wrong_id) = (0u64, 0u64);
            let mut r = BufReader::with_capacity(1 << 16, reader);
            let mut line = String::new();
            for &id in &ids {
                line.clear();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                recv_ns.push(start.elapsed().as_nanos() as u64);
                match ok_reply_id(&line) {
                    Some(got) if got == id => ok += 1,
                    Some(_) => wrong_id += 1,
                    None => {}
                }
            }
            (recv_ns, ok, wrong_id)
        });
        let mut sent_ns = Vec::with_capacity(n);
        let mut w = BufWriter::with_capacity(1 << 16, &stream);
        for (i, line) in lines.iter().enumerate() {
            if gap_ns > 0.0 {
                wait_until(start, (i as f64 * gap_ns) as u64);
            }
            sent_ns.push(start.elapsed().as_nanos() as u64);
            if w.write_all(line.as_bytes()).is_err() {
                break;
            }
            if gap_ns > 0.0 && w.flush().is_err() {
                break;
            }
        }
        let _ = w.flush();
        (sent_ns, replies.join().expect("reply reader panicked"))
    });

    // Latency runs from the send: the writer never waits on replies, so a
    // daemon stall queues later requests behind it in the socket and the
    // wait is counted. The generator's own lateness (timer wake-ups on an
    // idle vCPU) is reported separately.
    let due = |i: usize| {
        if gap_ns > 0.0 {
            (i as f64 * gap_ns) as u64
        } else {
            0
        }
    };
    let mut lat: Vec<u64> = recv_ns
        .iter()
        .zip(&sent_ns)
        .map(|(r, s)| r.saturating_sub(*s))
        .collect();
    lat.sort_unstable();
    let lag_max_ns = sent_ns
        .iter()
        .enumerate()
        .map(|(i, s)| s.saturating_sub(due(i)))
        .max()
        .unwrap_or(0);
    if f.has("lat-out") {
        let path = f.str("lat-out")?;
        let body: String = lat.iter().map(|ns| format!("{ns}\n")).collect();
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
    }
    let first_sent = sent_ns.first().copied().unwrap_or(0);
    let last_recv = recv_ns.last().copied().unwrap_or(first_sent);

    let mut o = Out::new();
    o.int("sent", sent_ns.len() as u128)
        .int("replies", recv_ns.len() as u128)
        .int("ok", ok as u128)
        .int("wrong_id", wrong_id as u128)
        .num("p50_us", percentile(&lat, 0.50) as f64 / 1e3)
        .num("lag_max_ms", lag_max_ns as f64 / 1e6)
        .num(
            "send_stretch",
            sent_ns.last().map_or(1.0, |&last| {
                let scheduled = due(n - 1);
                if scheduled == 0 {
                    1.0
                } else {
                    last as f64 / scheduled as f64
                }
            }),
        )
        .num("wall_s", (last_recv - first_sent) as f64 / 1e9);
    Ok(o)
}

/// Push the routed stream through one streaming engine per shard, with
/// dense per-shard ids as the shard pipeline assigns them.
fn feed<S: BinSelector, P: Probe>(
    engines: &mut [StreamingEngine<S, P>],
    evs: &[Event],
    shard_of: &[usize],
) -> Result<(), String> {
    let mut ids: Vec<Ids> = (0..engines.len()).map(|_| Ids::default()).collect();
    for (e, &s) in evs.iter().zip(shard_of) {
        let eng = &mut engines[s];
        if e.arrive {
            let id = ids[s].arrive(e.id);
            eng.push_open_arrival(id, Size(e.size), RegionId::GLOBAL, Tick(e.at))
                .map_err(|err| err.to_string())?;
        } else {
            eng.push_departure(ids[s].depart(e.id), Tick(e.at))
                .map_err(|err| err.to_string())?;
        }
    }
    Ok(())
}

/// Dense per-shard internal ids for external session ids, as the shard
/// pipeline assigns them.
#[derive(Default)]
struct Ids {
    map: HashMap<u64, ItemId>,
    next: u32,
}

impl Ids {
    fn arrive(&mut self, id: u64) -> ItemId {
        let internal = ItemId(self.next);
        self.next += 1;
        self.map.insert(id, internal);
        internal
    }
    fn depart(&mut self, id: u64) -> ItemId {
        self.map.remove(&id).expect("departure of a live session")
    }
}

/// `trace-live`: each daemon layer's public entry point called on the
/// stream one `live-pass` sends, routed to shards as the front door does.
pub fn trace(f: &Flags) -> Result<Out, String> {
    let path = f.file()?;
    let inst = load(path)?;
    let shards = f.u64("shards")? as usize;
    let every = f.u64("fsync")? as u32;
    let policy = FsyncPolicy::EveryN(every);
    let dir = Path::new(f.str("dir")?);
    let capacity = Size(inst.capacity().raw());
    let clock_ns = clock_cost_ns();
    let mut o = Out::new();

    let t = Instant::now();
    let regenerated = dbp_workloads::generate(&dbp_workloads::CloudGamingConfig {
        horizon: f.u64("horizon")?,
        arrivals: dbp_workloads::ArrivalKind::Poisson {
            rate: f
                .str("rate")?
                .parse()
                .map_err(|_| "--rate expects a number")?,
        },
        seed: f.u64("seed")?,
        ..dbp_workloads::CloudGamingConfig::default()
    });
    o.num("workloads.gen_s", secs(t));
    if regenerated.items() != inst.items() {
        return Err("regenerated workload differs from the trace file".into());
    }

    let evs = events(&inst, 0);
    let lines: Vec<String> = evs.iter().map(wire_line).collect();
    let n = lines.len() as u64;

    // Protocol parse, timed in bulk: one clock pair per whole pass.
    let t = Instant::now();
    let reqs: Vec<Request> = lines
        .iter()
        .map(|l| parse_line_dims(l.trim_end(), 1))
        .collect::<Result<_, _>>()?;
    o.num("protocol.parse_ns", secs(t) * 1e9 / n as f64);

    // Front-door routing (hash by session id, stateless).
    let loads = zero_loads(shards, 1);
    let mut home: HashMap<u64, usize> = HashMap::new();
    let shard_of: Vec<usize> = evs
        .iter()
        .map(|e| {
            if e.arrive {
                let s = route_one_dims(Router::HashByItem, e.id, &[e.size], &loads);
                home.insert(e.id, s);
                s
            } else {
                home.remove(&e.id).expect("departure after arrival")
            }
        })
        .collect();

    // Streaming core: one engine per shard, every push timed.
    let mut engines: Vec<_> = (0..shards)
        .map(|_| StreamingEngine::new(capacity, FirstFit::new(), NoProbe))
        .collect();
    let mut ids: Vec<Ids> = (0..shards).map(|_| Ids::default()).collect();
    let mut push_ns = Vec::with_capacity(evs.len());
    for (e, &s) in evs.iter().zip(&shard_of) {
        let ns = if e.arrive {
            let id = ids[s].arrive(e.id);
            let eng = &mut engines[s];
            let (res, ns) = timed(clock_ns, || {
                eng.push_open_arrival(id, Size(e.size), RegionId::GLOBAL, Tick(e.at))
                    .map(|_| ())
            });
            res.map_err(|err| err.to_string())?;
            ns
        } else {
            let id = ids[s].depart(e.id);
            let eng = &mut engines[s];
            let (res, ns) = timed(clock_ns, || eng.push_departure(id, Tick(e.at)));
            res.map_err(|err| err.to_string())?;
            ns
        };
        push_ns.push(ns);
    }
    push_ns.sort_unstable();
    o.num("streaming.push_ns.p50", percentile(&push_ns, 0.50) as f64)
        .num("streaming.push_ns.p99", percentile(&push_ns, 0.99) as f64);

    // Shard pipeline with the daemon's journal policy: once with a clock
    // around every request (the per-request figures), once bare (the
    // overhead reference).
    let pipelines = |tag: &str| -> Result<Vec<ShardPipeline>, String> {
        (0..shards)
            .map(|k| {
                let p = dir.join(format!("{tag}.shard{k}"));
                let journal = JournalProbe::create(&p, policy).map_err(|e| e.to_string())?;
                Ok(ShardPipeline::with_probe(
                    capacity,
                    Box::new(FirstFit::new()),
                    AdmissionPolicy::default(),
                    ServeProbe {
                        journal: Some(journal),
                    },
                ))
            })
            .collect()
    };
    let mut pipes = pipelines("handle")?;
    let mut handle_ns = Vec::with_capacity(evs.len());
    let mut replies = Vec::with_capacity(evs.len());
    let t = Instant::now();
    for (req, &s) in reqs.iter().zip(&shard_of) {
        let (outcome, ns) = timed(clock_ns, || pipes[s].handle(req));
        handle_ns.push(ns);
        replies.push(match outcome {
            Outcome::Placed { bin } => Reply::placed(req.id(), s, bin.0 as u64),
            Outcome::Departed => Reply::ok(req.id(), Some(s)),
            other => return Err(format!("request {} not served: {other:?}", req.id())),
        });
    }
    let traced_s = secs(t);
    for p in pipes {
        p.seal()?;
    }
    let mut bare = pipelines("bare")?;
    let t = Instant::now();
    for (req, &s) in reqs.iter().zip(&shard_of) {
        std::hint::black_box(bare[s].handle(req));
    }
    let bare_s = secs(t);
    for p in bare {
        p.seal()?;
    }
    handle_ns.sort_unstable();
    o.num("shard.handle_ns.p50", percentile(&handle_ns, 0.50) as f64)
        .num("shard.handle_ns.p99", percentile(&handle_ns, 0.99) as f64)
        .num("trace.overhead", traced_s / bare_s - 1.0);

    // Reply serialization, timed in bulk.
    let t = Instant::now();
    let bytes: usize = replies.iter().map(|r| r.to_line().len()).sum();
    std::hint::black_box(bytes);
    o.num("protocol.reply_ns", secs(t) * 1e9 / n as f64);

    // Journal appends, from the engine's own event stream written through
    // the daemon's journal probe and policy, with the writer's own span
    // recorder attached: `journal_append` times every append (policy-due
    // fsyncs included), `journal_fsync` counts the fsyncs the policy issued
    // (the closing sync of `finish` comes after the recorder is detached).
    let mut journaled = (0..shards)
        .map(|k| {
            let mut probe = JournalProbe::create(&dir.join(format!("append.shard{k}")), policy)
                .map_err(|e| e.to_string())?;
            probe.set_spans(StageAggregator::new(k as u32));
            Ok(StreamingEngine::new(capacity, FirstFit::new(), probe))
        })
        .collect::<Result<Vec<_>, String>>()?;
    feed(&mut journaled, &evs, &shard_of)?;
    let mut spans = StageBreakdown::new();
    let mut file_bytes = 0u64;
    for (k, eng) in journaled.into_iter().enumerate() {
        let (mut probe, _, _, _) = eng.into_probe();
        if let Some(agg) = probe.take_spans() {
            spans.merge(&agg.finish());
        }
        probe.finish().map_err(|e| e.to_string())?;
        let path = dir.join(format!("append.shard{k}"));
        file_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    }
    let stage = |name| spans.get(name).map_or((0, 0), |s| (s.count, s.total_ns));
    let (appends, append_ns) = stage(stage::JOURNAL_APPEND);
    let (fsyncs, _) = stage(stage::JOURNAL_FSYNC);
    o.num("journal.append_ns.mean", mean(append_ns as u128, appends))
        .num(
            "journal.bytes_per_event",
            file_bytes as f64 / appends as f64,
        )
        .int("journal.fsyncs", fsyncs as u128);

    // The selector's work: counting selector + decision clock.
    let mut selectors: Vec<Counting<FirstFit>> = (0..shards)
        .map(|_| Counting::new(FirstFit::new()))
        .collect();
    let mut counted: Vec<_> = selectors
        .iter_mut()
        .map(|sel| StreamingEngine::new(capacity, sel, DecisionClock::default()))
        .collect();
    feed(&mut counted, &evs, &shard_of)?;
    let (mut decisions, mut decide_ns) = (0u64, 0u128);
    for eng in counted {
        let (clock, _, _, _) = eng.into_probe();
        decisions += clock.n;
        decide_ns += clock.total_ns;
    }
    let calls: u64 = selectors.iter().map(|s| s.calls).sum();
    let scanned: u128 = selectors.iter().map(|s| s.scanned).sum();
    o.int("core.select_calls", calls as u128)
        .num("core.scan_len_mean", mean(scanned, calls))
        .num("core.decide_ns_mean", mean(decide_ns, decisions));
    Ok(o)
}
