//! The live dispatcher daemon: TCP accept loop, thread-per-connection
//! readers that run the shard pipelines themselves, a Prometheus
//! `/metrics` endpoint, and the graceful drain protocol.
//!
//! ## Threading model
//!
//! ```text
//! accept loop ──spawns──▶ connection threads: read → parse → route (front
//!                         door) → lock shard k → handle + publish + reply
//!                              │ one Mutex<pipeline> per shard, plus a count
//!                              │ of the requests waiting for it
//!                              ▼
//!                         shard pipelines (ShardPipeline + journal)
//! metrics loop ──────────  serves GET /metrics from shared atomics
//! ```
//!
//! There are no shard threads: the connection thread that routed a request
//! runs it on the shard's pipeline under the shard's lock and answers it,
//! so a reply costs no thread hand-off. Every complete line of one `read`
//! is answered, in order, by a single `write`.
//!
//! Memory is bounded where it could grow with traffic: at most
//! `admission.queue_capacity` requests wait for one shard under
//! [`BackpressurePolicy::Shed`] (and at most one per connection under
//! `Block`); the session table holds at most `max_sessions` live sessions;
//! a connection buffers at most [`MAX_LINE_BYTES`] of an unfinished line;
//! and each shard recycles the internal ids of departed sessions, so its
//! per-item columns are as long as its peak of live sessions. What still
//! grows with the stream is one record per bin ever opened (the bin ids
//! the replies carry are never reused) and the append-only journal on disk.
//!
//! ## Backpressure
//!
//! With [`BackpressurePolicy::Block`], a request waits for its shard's lock
//! however many requests are ahead of it; the waiting connection stops
//! reading, so TCP backpressure reaches the client. With
//! [`BackpressurePolicy::Shed`], an arrival that finds `queue_capacity`
//! requests already waiting for its shard is refused with `queue_full`,
//! accounted in the ledger. Departures are **never** shed — dropping a
//! release would leak capacity — so they always wait.
//!
//! ## Drain protocol
//!
//! On SIGINT/SIGTERM (or [`crate::shutdown::request_shutdown`]): stop
//! accepting connections → each connection answers the lines it has read
//! and exits at its next read-timeout poll → once every connection is
//! joined, each pipeline is sealed (journal flush + fsync + length frame)
//! → the daemon emits one final [`ServeSummary`] whose ledger conserves
//! `served + dropped + lost == total`. A request is served by the thread
//! that read it, so none is ever queued at drain and `lost` is always 0.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_cluster::router::Router;
use dbp_cluster::router::{
    apply_route_dims, route_one_dims, unapply_route_dims, zero_loads, DimLoads,
};
use dbp_core::algorithms::selector_for;
use dbp_core::demand::{Demand, VSize};
use dbp_core::item::Size;
use dbp_core::packer::SelectorFactory;
use dbp_core::probe::DropReason;
use dbp_obs::journal::{FsyncPolicy, JournalProbe};
use dbp_obs::metrics::MetricsRegistry;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::protocol::{parse_line_dims, Reply, Request, MAX_DIMS};
use crate::shard::{GShardPipeline, Outcome, ServeProbe, ShardLedger, ShardPipeline};

/// The longest request line a connection accepts, in bytes (newline
/// excluded). A longer line is refused once, counted in `bad_lines`, and
/// skipped up to its newline, so a client that never sends one cannot grow
/// the daemon's memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Bytes a connection asks for per `read`.
const READ_CHUNK: usize = 64 * 1024;

/// What to do when `queue_capacity` requests already wait for a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait for the shard like every other request.
    Block,
    /// Refuse the arrival with a ledgered `queue_full` drop.
    Shed,
}

impl BackpressurePolicy {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::Shed => "shed",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Result<BackpressurePolicy, String> {
        match s {
            "block" => Ok(BackpressurePolicy::Block),
            "shed" => Ok(BackpressurePolicy::Shed),
            other => Err(format!(
                "unknown backpressure policy {other:?} (block|shed)"
            )),
        }
    }
}

/// Daemon configuration. See module docs for the semantics of each knob.
pub struct ServeConfig {
    /// Ingest listener address, e.g. `127.0.0.1:7878` (`:0` for an
    /// ephemeral port, reported by [`ServeHandle::addr`]).
    pub addr: String,
    /// `/metrics` listener address, or `None` for no metrics endpoint.
    pub metrics_addr: Option<String>,
    /// Number of shard pipelines.
    pub shards: usize,
    /// Online routing policy.
    pub router: Router,
    /// Bin capacity of every shard (dimension 0; see `capacities`).
    pub capacity: u64,
    /// Demand dimensionality the daemon runs at (`1..=MAX_DIMS`). Scalar
    /// clients (`"size":n`) are only accepted at `dims == 1`.
    pub dims: usize,
    /// Per-dimension bin capacities (length must equal `dims`); `None`
    /// splats `capacity` across every dimension.
    pub capacities: Option<Vec<u64>>,
    /// Admission: `queue_capacity` is how many requests may wait for one
    /// shard before [`BackpressurePolicy::Shed`] refuses an arrival,
    /// `queue_timeout` is the event-time shed threshold.
    pub admission: AdmissionPolicy,
    /// Full-queue behavior for arrivals.
    pub backpressure: BackpressurePolicy,
    /// Maximum live sessions across all shards (bounded session table).
    pub max_sessions: usize,
    /// Per-connection read timeout; also the shutdown poll cadence.
    pub read_timeout_ms: u64,
    /// Journal path base: shard `k` writes `{base}.shard{k}`.
    pub journal_base: Option<PathBuf>,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
}

impl ServeConfig {
    /// A local test/default configuration on ephemeral ports.
    pub fn local(shards: usize, capacity: u64) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: Some("127.0.0.1:0".to_string()),
            shards,
            router: Router::HashByItem,
            capacity,
            dims: 1,
            capacities: None,
            admission: AdmissionPolicy::default(),
            backpressure: BackpressurePolicy::Block,
            max_sessions: 65_536,
            read_timeout_ms: 25,
            journal_base: None,
            fsync: FsyncPolicy::Always,
        }
    }

    /// The effective per-dimension capacity vector (`capacities`, or
    /// `capacity` splatted across `dims`).
    pub fn capacity_vec(&self) -> Vec<u64> {
        match &self.capacities {
            Some(v) => v.clone(),
            None => vec![self.capacity; self.dims],
        }
    }

    /// Reject impossible dims/capacity combinations before any thread or
    /// socket exists.
    fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_DIMS).contains(&self.dims) {
            return Err(format!("dims {} outside 1..={MAX_DIMS}", self.dims));
        }
        let caps = self.capacity_vec();
        if caps.len() != self.dims {
            return Err(format!(
                "demand_arity: {} capacities configured, daemon runs {} dimensions",
                caps.len(),
                self.dims
            ));
        }
        if caps.contains(&0) {
            return Err("bin capacity must be positive in every dimension".to_string());
        }
        Ok(())
    }
}

/// Final per-shard report, embedded in [`ServeSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u64,
    /// Arrivals offered to the pipeline.
    pub offered: u64,
    /// Arrivals placed.
    pub placed: u64,
    /// Event-time queue-timeout sheds.
    pub dropped_timeout: u64,
    /// Invalid arrivals refused by the pipeline.
    pub rejected: u64,
    /// Departures applied.
    pub departed: u64,
    /// Arrivals accepted but never processed. Always 0: every request is
    /// served by the connection thread that read it.
    pub lost: u64,
    /// Sessions still in flight at drain (served, not lost).
    pub in_flight: u64,
    /// Bins open at drain.
    pub open_bins: u64,
    /// Bins opened over the shard's lifetime.
    pub bins_opened: u64,
    /// Journal seal error, if the shard's journal could not be flushed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// The daemon's final conserved ledger, emitted at drain.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Every arrival that reached the front door (parsed `arrive` lines).
    pub total: u64,
    /// Arrivals placed into a bin.
    pub served: u64,
    /// Arrivals refused anywhere: front door or pipeline.
    pub dropped: u64,
    /// Arrivals accepted but never processed. Always 0: every request is
    /// served by the connection thread that read it, so none is queued at
    /// drain. Kept so the ledger reads the same as the batch simulator's.
    pub lost: u64,
    /// Departures applied.
    pub departed: u64,
    /// Front-door sheds: `queue_capacity` requests already waiting for the
    /// shard ([`BackpressurePolicy::Shed`]).
    pub dropped_queue_full: u64,
    /// Front-door sheds: session table full.
    pub dropped_table_full: u64,
    /// Front-door refusals: duplicate live session id.
    pub dropped_duplicate: u64,
    /// Pipeline sheds: event-time queue timeout.
    pub dropped_timeout: u64,
    /// Pipeline refusals: invalid arrivals (oversized, …).
    pub rejected: u64,
    /// Wire lines that failed to parse.
    pub bad_lines: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Peak resident set size, if the platform exposes it.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub peak_rss_bytes: Option<u64>,
    /// Per-shard breakdown.
    pub shards: Vec<ShardReport>,
}

impl ServeSummary {
    /// The drain invariant: `served + dropped + lost == total`.
    pub fn conserved(&self) -> bool {
        self.served + self.dropped + self.lost == self.total
    }

    /// Serialize to one JSON line.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("summary serializes")
    }
}

/// Shared atomic counters backing `/metrics` and the final summary.
#[derive(Debug)]
struct ShardCounters {
    offered: AtomicU64,
    placed: AtomicU64,
    departed: AtomicU64,
    dropped_timeout: AtomicU64,
    rejected: AtomicU64,
    open_bins: AtomicU64,
    in_flight: AtomicU64,
    bins_opened: AtomicU64,
}

impl ShardCounters {
    fn new() -> ShardCounters {
        ShardCounters {
            offered: AtomicU64::new(0),
            placed: AtomicU64::new(0),
            departed: AtomicU64::new(0),
            dropped_timeout: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            open_bins: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            bins_opened: AtomicU64::new(0),
        }
    }
}

/// All live-scrape state.
#[derive(Debug)]
struct ServeMetrics {
    shards: Vec<ShardCounters>,
    queue_full: AtomicU64,
    table_full: AtomicU64,
    duplicate: AtomicU64,
    bad_lines: AtomicU64,
    connections: AtomicU64,
    connections_open: AtomicU64,
    sessions_live: AtomicU64,
}

impl ServeMetrics {
    fn new(shards: usize) -> ServeMetrics {
        ServeMetrics {
            shards: (0..shards).map(|_| ShardCounters::new()).collect(),
            queue_full: AtomicU64::new(0),
            table_full: AtomicU64::new(0),
            duplicate: AtomicU64::new(0),
            bad_lines: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            sessions_live: AtomicU64::new(0),
        }
    }

    /// Render the Prometheus exposition text.
    fn to_prometheus(&self) -> String {
        let ld = Ordering::Relaxed;
        let mut reg = MetricsRegistry::new();
        reg.counter_add("serve_dropped_queue_full_total", self.queue_full.load(ld));
        reg.counter_add("serve_dropped_table_full_total", self.table_full.load(ld));
        reg.counter_add("serve_dropped_duplicate_total", self.duplicate.load(ld));
        reg.counter_add("serve_bad_lines_total", self.bad_lines.load(ld));
        reg.counter_add("serve_connections_total", self.connections.load(ld));
        reg.gauge_set(
            "serve_connections_open",
            self.connections_open.load(ld) as i64,
        );
        reg.gauge_set("serve_sessions_live", self.sessions_live.load(ld) as i64);
        for (k, c) in self.shards.iter().enumerate() {
            let mut sreg = MetricsRegistry::new();
            sreg.counter_add("serve_shard_offered_total", c.offered.load(ld));
            sreg.counter_add("serve_shard_placed_total", c.placed.load(ld));
            sreg.counter_add("serve_shard_departed_total", c.departed.load(ld));
            sreg.counter_add(
                "serve_shard_dropped_timeout_total",
                c.dropped_timeout.load(ld),
            );
            sreg.counter_add("serve_shard_rejected_total", c.rejected.load(ld));
            sreg.counter_add("serve_shard_bins_opened_total", c.bins_opened.load(ld));
            sreg.gauge_set("serve_shard_open_bins", c.open_bins.load(ld) as i64);
            sreg.gauge_set("serve_shard_in_flight", c.in_flight.load(ld) as i64);
            reg.absorb_labeled(&sreg, "shard", &k.to_string());
        }
        reg.to_prometheus()
    }
}

/// Front-door shared state: the bounded session table and the live
/// per-shard load view the least-loaded router consults.
struct FrontDoor {
    /// external id → (shard, demand) for every live session.
    sessions: HashMap<u64, (usize, [u64; MAX_DIMS])>,
    /// Active routed load per shard **per dimension**, maintained
    /// add-on-route / subtract-on-depart — the fold the batch router proves
    /// consistent. At `dims == 1` this is the scalar load view.
    loads: DimLoads,
}

/// One shard: its pipeline, run under the lock by whichever connection
/// thread routed the request, and the number of requests waiting for it.
struct Shard {
    pipe: Mutex<Box<dyn DynPipeline>>,
    waiting: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    front: Mutex<FrontDoor>,
    shards: Vec<Shard>,
    metrics: ServeMetrics,
    stop: &'static AtomicBool,
}

/// Addresses the daemon actually bound (resolves `:0` requests).
#[derive(Debug, Clone)]
pub struct ServeHandle {
    /// Ingest address.
    pub addr: std::net::SocketAddr,
    /// Metrics address, when a metrics listener is up.
    pub metrics_addr: Option<std::net::SocketAddr>,
}

/// Run the daemon until `stop` is raised, then drain and return the final
/// conserved summary. `on_ready` fires once with the bound addresses
/// (tests connect through it; the CLI prints them).
pub fn run_server(
    cfg: ServeConfig,
    factory: &SelectorFactory,
    stop: &'static AtomicBool,
    on_ready: impl FnOnce(&ServeHandle),
) -> Result<ServeSummary, String> {
    cfg.validate()?;
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let metrics_listener = match &cfg.metrics_addr {
        Some(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("set_nonblocking: {e}"))?;
            Some(l)
        }
        None => None,
    };
    let handle = ServeHandle {
        addr: listener.local_addr().map_err(|e| e.to_string())?,
        metrics_addr: match &metrics_listener {
            Some(l) => Some(l.local_addr().map_err(|e| e.to_string())?),
            None => None,
        },
    };

    assert!(cfg.shards > 0, "a daemon needs at least one shard");
    let shards = (0..cfg.shards)
        .map(|k| {
            Ok(Shard {
                pipe: Mutex::new(open_pipeline(k, &cfg, factory)?),
                waiting: AtomicU64::new(0),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let shared = Shared {
        metrics: ServeMetrics::new(cfg.shards),
        front: Mutex::new(FrontDoor {
            sessions: HashMap::new(),
            loads: zero_loads(cfg.shards, cfg.dims),
        }),
        shards,
        cfg,
        stop,
    };

    on_ready(&handle);

    std::thread::scope(|s| -> Result<(), String> {
        // Metrics endpoint.
        if let Some(l) = metrics_listener {
            let shared = &shared;
            s.spawn(move || metrics_loop(l, shared));
        }

        // Accept loop.
        let mut conns = Vec::new();
        while !shared.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    shared
                        .metrics
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = &shared;
                    conns.push(s.spawn(move || {
                        handle_connection(stream, shared);
                        shared
                            .metrics
                            .connections_open
                            .fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
        }

        // Drain: connections exit at their next read-timeout poll.
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    })?;

    // Every connection is joined: no request can reach a pipeline again.
    let Shared {
        shards, metrics: m, ..
    } = shared;
    let reports = shards
        .into_iter()
        .enumerate()
        .map(|(k, shard)| seal_shard(k, shard))
        .collect::<Result<Vec<_>, String>>()?;
    let ld = Ordering::Relaxed;
    let front_drops = m.queue_full.load(ld) + m.table_full.load(ld) + m.duplicate.load(ld);
    let offered: u64 = reports.iter().map(|r| r.offered).sum();
    let summary = ServeSummary {
        total: offered + front_drops,
        served: reports.iter().map(|r| r.placed).sum(),
        dropped: front_drops
            + reports
                .iter()
                .map(|r| r.dropped_timeout + r.rejected)
                .sum::<u64>(),
        lost: 0,
        departed: reports.iter().map(|r| r.departed).sum(),
        dropped_queue_full: m.queue_full.load(ld),
        dropped_table_full: m.table_full.load(ld),
        dropped_duplicate: m.duplicate.load(ld),
        dropped_timeout: reports.iter().map(|r| r.dropped_timeout).sum(),
        rejected: reports.iter().map(|r| r.rejected).sum(),
        bad_lines: m.bad_lines.load(ld),
        connections: m.connections.load(ld),
        peak_rss_bytes: dbp_obs::manifest::peak_rss_bytes(),
        shards: reports,
    };
    debug_assert!(summary.conserved(), "drain ledger must conserve");
    Ok(summary)
}

/// The dimension-erased face of [`GShardPipeline`]: exactly what a
/// connection thread needs to serve a request. One monomorphization per
/// supported `D` exists behind [`build_pipeline`]'s `match`, chosen once at
/// daemon start — the per-request path pays one vtable hop, never a dims
/// branch. `Send`, so it can sit behind the shard's lock.
trait DynPipeline: Send {
    fn handle(&mut self, req: &Request) -> Outcome;
    fn open_bins(&self) -> usize;
    fn in_flight(&self) -> usize;
    fn bins_opened(&self) -> usize;
    fn seal(self: Box<Self>) -> Result<(ShardLedger, usize, usize), String>;
}

impl<Sz: dbp_core::demand::Demand> DynPipeline for GShardPipeline<Sz> {
    fn handle(&mut self, req: &Request) -> Outcome {
        GShardPipeline::handle(self, req)
    }
    fn open_bins(&self) -> usize {
        GShardPipeline::open_bins(self)
    }
    fn in_flight(&self) -> usize {
        GShardPipeline::in_flight(self)
    }
    fn bins_opened(&self) -> usize {
        GShardPipeline::bins_opened(self)
    }
    fn seal(self: Box<Self>) -> Result<(ShardLedger, usize, usize), String> {
        GShardPipeline::seal(*self)
    }
}

/// Build the shard pipeline for the configured dimensionality. At
/// `dims == 1` the factory's own builder runs, so the full scalar roster
/// (WF/NF/LF/MI/RF/HFF included) keeps working byte-identically; vector
/// daemons resolve the dimension-agnostic selectors by roster name.
fn build_pipeline(
    cfg: &ServeConfig,
    factory: &SelectorFactory,
    probe: ServeProbe,
) -> Result<Box<dyn DynPipeline>, String> {
    fn vec_pipe<const D: usize>(
        caps: &[u64],
        factory: &SelectorFactory,
        admission: AdmissionPolicy,
        probe: ServeProbe,
    ) -> Result<Box<dyn DynPipeline>, String> {
        let capacity = VSize::<D>::from_components(&caps[..D]).expect("validated capacities");
        let selector = selector_for::<VSize<D>>(factory.name()).ok_or_else(|| {
            format!(
                "selector {} is scalar-only; vector daemons take FF, BF, MFF(8) or DOM",
                factory.name()
            )
        })?;
        Ok(Box::new(GShardPipeline::<VSize<D>>::with_probe(
            capacity, selector, admission, probe,
        )))
    }
    let caps = cfg.capacity_vec();
    match cfg.dims {
        1 => Ok(Box::new(ShardPipeline::with_probe(
            Size(caps[0]),
            factory.build(),
            cfg.admission,
            probe,
        ))),
        2 => vec_pipe::<2>(&caps, factory, cfg.admission, probe),
        3 => vec_pipe::<3>(&caps, factory, cfg.admission, probe),
        4 => vec_pipe::<4>(&caps, factory, cfg.admission, probe),
        d => Err(format!("dims {d} outside 1..={MAX_DIMS}")),
    }
}

/// A shard report carrying only an error (a journal that failed to seal).
fn error_report(k: usize, bins_opened: u64, error: String) -> ShardReport {
    ShardReport {
        shard: k as u64,
        offered: 0,
        placed: 0,
        dropped_timeout: 0,
        rejected: 0,
        departed: 0,
        lost: 0,
        in_flight: 0,
        open_bins: 0,
        bins_opened,
        error: Some(error),
    }
}

/// Shard `k`'s pipeline, monomorphized for the configured dims, with its
/// journal open when journaling is on.
fn open_pipeline(
    k: usize,
    cfg: &ServeConfig,
    factory: &SelectorFactory,
) -> Result<Box<dyn DynPipeline>, String> {
    let probe = match &cfg.journal_base {
        Some(base) => {
            let path = journal_shard_path(base, k);
            let journal = JournalProbe::create_dims(&path, cfg.fsync, cfg.dims)
                .map_err(|e| format!("open journal {}: {e}", path.display()))?;
            ServeProbe {
                journal: Some(journal),
            }
        }
        None => ServeProbe::default(),
    };
    build_pipeline(cfg, factory, probe)
}

/// Seal shard `k`'s journal and report its ledger. A pipeline poisoned by a
/// panicking connection is a daemon bug: the drain fails rather than
/// report a ledger it cannot vouch for.
fn seal_shard(k: usize, shard: Shard) -> Result<ShardReport, String> {
    let pipe = shard
        .pipe
        .into_inner()
        .map_err(|_| format!("shard {k}: a connection panicked while serving it"))?;
    let bins_opened = pipe.bins_opened() as u64;
    Ok(match pipe.seal() {
        Ok((ledger, in_flight, open_bins)) => ShardReport {
            shard: k as u64,
            offered: ledger.offered,
            placed: ledger.placed,
            dropped_timeout: ledger.dropped_timeout,
            rejected: ledger.rejected,
            departed: ledger.departed,
            lost: 0,
            in_flight: in_flight as u64,
            open_bins: open_bins as u64,
            bins_opened,
            error: None,
        },
        Err(e) => error_report(k, bins_opened, e),
    })
}

/// Per-shard journal path: `{base}.shard{k}` — the same layout `dbp
/// cluster --journal` uses, so `dbp recover` reads both.
pub fn journal_shard_path(base: &std::path::Path, shard: usize) -> PathBuf {
    let mut s = base.as_os_str().to_os_string();
    s.push(format!(".shard{shard}"));
    PathBuf::from(s)
}

fn publish(counters: &ShardCounters, pipe: &dyn DynPipeline, req: &Request, outcome: &Outcome) {
    let ld = Ordering::Relaxed;
    match req {
        Request::Arrive { .. } => {
            counters.offered.fetch_add(1, ld);
        }
        Request::Depart { .. } => {}
        Request::Ping { .. } => {}
    }
    match outcome {
        Outcome::Placed { .. } => {
            counters.placed.fetch_add(1, ld);
        }
        Outcome::Departed => {
            counters.departed.fetch_add(1, ld);
        }
        Outcome::Dropped { .. } => {
            counters.dropped_timeout.fetch_add(1, ld);
        }
        Outcome::Rejected { .. } => {
            counters.rejected.fetch_add(1, ld);
        }
        Outcome::Pong => {}
    }
    counters.open_bins.store(pipe.open_bins() as u64, ld);
    counters.in_flight.store(pipe.in_flight() as u64, ld);
    counters.bins_opened.store(pipe.bins_opened() as u64, ld);
}

fn reply_for(shard: usize, req: &Request, outcome: &Outcome) -> Reply {
    let id = req.id();
    match outcome {
        Outcome::Placed { bin } => Reply::placed(id, shard, bin.0 as u64),
        Outcome::Departed => Reply::ok(id, Some(shard)),
        Outcome::Pong => Reply::ok(id, Some(shard)),
        Outcome::Dropped { reason } => Reply::refused(id, reason.name()),
        Outcome::Rejected { reason } => Reply::refused(id, reason.clone()),
    }
}

/// One line of a connection's byte stream, as [`LineReader`] cuts it.
#[derive(Debug, PartialEq, Eq)]
enum Line<'a> {
    /// A complete line, newline stripped.
    Text(&'a [u8]),
    /// A line longer than [`MAX_LINE_BYTES`]; its bytes are dropped.
    TooLong,
}

/// Cuts a connection's reads into lines. Lines that end inside one read are
/// handed out straight from that read's bytes; only the unfinished tail is
/// kept, and never more than [`MAX_LINE_BYTES`] of it.
#[derive(Debug, Default)]
struct LineReader {
    /// The unfinished line carried over from earlier reads.
    partial: Vec<u8>,
    /// Dropping the rest of an over-long line, up to its newline.
    skipping: bool,
}

impl LineReader {
    /// Hand every line `data` completes to `on_line`, in order.
    fn feed(&mut self, data: &[u8], mut on_line: impl FnMut(Line<'_>)) {
        let mut rest = data;
        if self.skipping || !self.partial.is_empty() {
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                self.keep(rest, &mut on_line);
                return;
            };
            if self.skipping {
                self.skipping = false;
            } else {
                self.partial.extend_from_slice(&rest[..nl]);
                on_line(Self::line(&self.partial));
                self.partial.clear();
            }
            rest = &rest[nl + 1..];
        }
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            on_line(Self::line(&rest[..nl]));
            rest = &rest[nl + 1..];
        }
        self.keep(rest, &mut on_line);
    }

    /// Keep an unfinished tail, refusing the line once it outgrows the cap.
    fn keep(&mut self, tail: &[u8], on_line: &mut impl FnMut(Line<'_>)) {
        if self.skipping {
            return;
        }
        if self.partial.len() + tail.len() > MAX_LINE_BYTES {
            on_line(Line::TooLong);
            self.partial = Vec::new();
            self.skipping = true;
        } else {
            self.partial.extend_from_slice(tail);
        }
    }

    fn line(bytes: &[u8]) -> Line<'_> {
        if bytes.len() > MAX_LINE_BYTES {
            Line::TooLong
        } else {
            Line::Text(bytes)
        }
    }
}

/// One connection: read NDJSON lines, serve each on its shard, and answer
/// every line of one read with one write, in order.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone().expect("clone stream");
    let mut writer = stream;
    let mut lines = LineReader::default();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut out: Vec<u8> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        let n = match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => break,
        };
        lines.feed(&chunk[..n], |line| {
            let reply = match line {
                Line::Text(bytes) => {
                    let text = String::from_utf8_lossy(bytes);
                    let text = text.trim();
                    if text.is_empty() {
                        return;
                    }
                    serve_line(text, shared)
                }
                Line::TooLong => {
                    shared.metrics.bad_lines.fetch_add(1, Ordering::Relaxed);
                    Reply::refused(
                        0,
                        format!(
                            "line_too_long: a request line holds at most {MAX_LINE_BYTES} bytes"
                        ),
                    )
                }
            };
            out.extend_from_slice(reply.to_line().as_bytes());
            out.push(b'\n');
        });
        if !out.is_empty() {
            if writer.write_all(&out).is_err() {
                break;
            }
            out.clear();
        }
    }
}

/// Parse, route and serve one request line, returning the reply to write.
fn serve_line(line: &str, shared: &Shared) -> Reply {
    let req = match parse_line_dims(line, shared.cfg.dims) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.bad_lines.fetch_add(1, Ordering::Relaxed);
            return Reply::refused(0, e);
        }
    };
    match req {
        Request::Ping { id } => Reply::ok(id, None),
        Request::Arrive { id, demand, .. } => {
            let dims = shared.cfg.dims;
            // Front door: bounded session table + online routing.
            let shard = {
                let mut front = shared.front.lock().unwrap();
                if front.sessions.contains_key(&id) {
                    shared.metrics.duplicate.fetch_add(1, Ordering::Relaxed);
                    return Reply::refused(id, format!("duplicate session id {id}"));
                }
                if front.sessions.len() >= shared.cfg.max_sessions {
                    shared.metrics.table_full.fetch_add(1, Ordering::Relaxed);
                    return Reply::refused(id, "session table full");
                }
                let shard = route_one_dims(shared.cfg.router, id, &demand[..dims], &front.loads);
                apply_route_dims(&mut front.loads, shard, &demand[..dims]);
                front.sessions.insert(id, (shard, demand));
                shared
                    .metrics
                    .sessions_live
                    .store(front.sessions.len() as u64, Ordering::Relaxed);
                shard
            };
            let shed = shared.cfg.backpressure == BackpressurePolicy::Shed;
            let Some(outcome) = serve_on_shard(shared, shard, &req, shed) else {
                shared.metrics.queue_full.fetch_add(1, Ordering::Relaxed);
                undo_route(shared, id);
                return Reply::refused(id, DropReason::QueueFull.name());
            };
            if !matches!(outcome, Outcome::Placed { .. }) {
                // The pipeline refused it (timeout shed, oversized, …);
                // release the session-table slot and the routed load.
                undo_route(shared, id);
            }
            reply_for(shard, &req, &outcome)
        }
        Request::Depart { id, .. } => {
            let shard = {
                let mut front = shared.front.lock().unwrap();
                let Some((shard, demand)) = front.sessions.remove(&id) else {
                    return Reply::refused(id, format!("unknown session id {id}"));
                };
                unapply_route_dims(&mut front.loads, shard, &demand[..shared.cfg.dims]);
                shared
                    .metrics
                    .sessions_live
                    .store(front.sessions.len() as u64, Ordering::Relaxed);
                shard
            };
            // Departures free capacity: never shed, always wait.
            let outcome = serve_on_shard(shared, shard, &req, false).expect("departures wait");
            reply_for(shard, &req, &outcome)
        }
    }
}

/// Run `req` on shard `k`'s pipeline on this thread and publish the
/// shard's counters. Returns `None`, having touched nothing, when `shed`
/// is set and `queue_capacity` requests already wait for the shard.
///
/// # Panics
/// Panics if an earlier request panicked inside this shard's pipeline.
fn serve_on_shard(shared: &Shared, k: usize, req: &Request, shed: bool) -> Option<Outcome> {
    let shard = &shared.shards[k];
    let ahead = shard.waiting.fetch_add(1, Ordering::AcqRel);
    let cap = u64::from(shared.cfg.admission.queue_capacity).max(1);
    if shed && ahead >= cap {
        shard.waiting.fetch_sub(1, Ordering::AcqRel);
        return None;
    }
    let mut pipe = shard.pipe.lock().expect("shard pipeline poisoned");
    shard.waiting.fetch_sub(1, Ordering::AcqRel);
    let outcome = pipe.handle(req);
    publish(&shared.metrics.shards[k], &**pipe, req, &outcome);
    Some(outcome)
}

/// Roll a routed-but-refused arrival back out of the front door.
fn undo_route(shared: &Shared, id: u64) {
    let mut front = shared.front.lock().unwrap();
    if let Some((shard, demand)) = front.sessions.remove(&id) {
        unapply_route_dims(&mut front.loads, shard, &demand[..shared.cfg.dims]);
        shared
            .metrics
            .sessions_live
            .store(front.sessions.len() as u64, Ordering::Relaxed);
    }
}

/// The full `/metrics` exposition: the atomic counters plus the live
/// per-dimension view — routed demand, rented capacity (open bins ×
/// per-dimension capacity), absolute waste and utilization in
/// parts-per-million, one `dim="d"` label per dimension. At `dims == 1`
/// the block describes the scalar daemon's single resource.
fn render_metrics(shared: &Shared) -> String {
    let mut text = shared.metrics.to_prometheus();
    let ld = Ordering::Relaxed;
    let caps = shared.cfg.capacity_vec();
    let loads: DimLoads = shared.front.lock().unwrap().loads.clone();
    let open_bins: u128 = shared
        .metrics
        .shards
        .iter()
        .map(|c| c.open_bins.load(ld) as u128)
        .sum();
    let clamp = |v: u128| v.min(i64::MAX as u128) as i64;
    let mut reg = MetricsRegistry::new();
    for (d, &cap) in caps.iter().enumerate() {
        let demand: u128 = loads.iter().map(|per_shard| per_shard[d]).sum();
        let rented = open_bins * cap as u128;
        let mut dreg = MetricsRegistry::new();
        dreg.gauge_set("serve_dim_demand", clamp(demand));
        dreg.gauge_set("serve_dim_rented", clamp(rented));
        dreg.gauge_set("serve_dim_waste", clamp(rented.saturating_sub(demand)));
        dreg.gauge_set(
            "serve_dim_utilization_ppm",
            (demand * 1_000_000).checked_div(rented).map_or(0, clamp),
        );
        reg.absorb_labeled(&dreg, "dim", &d.to_string());
    }
    text.push_str(&reg.to_prometheus());
    text
}

/// Minimal HTTP/1.1 responder for `GET /metrics` (and a `/healthz` probe).
fn metrics_loop(listener: TcpListener, shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut req = [0u8; 1024];
                let n = stream.read(&mut req).unwrap_or(0);
                let head = String::from_utf8_lossy(&req[..n]);
                let (status, body) = if head.starts_with("GET /healthz") {
                    ("200 OK", "ok\n".to_string())
                } else if head.starts_with("GET /metrics") || head.starts_with("GET / ") {
                    ("200 OK", render_metrics(shared))
                } else {
                    ("404 Not Found", "not found\n".to_string())
                };
                let resp = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(resp.as_bytes());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `reads` one after another; collect every line handed out.
    fn lines_of(reads: &[&[u8]]) -> Vec<Result<String, ()>> {
        let mut r = LineReader::default();
        let mut got = Vec::new();
        for data in reads {
            r.feed(data, |line| {
                got.push(match line {
                    Line::Text(b) => Ok(String::from_utf8(b.to_vec()).unwrap()),
                    Line::TooLong => Err(()),
                })
            });
            assert!(r.partial.len() <= MAX_LINE_BYTES);
        }
        got
    }

    #[test]
    fn lines_split_across_reads_are_joined() {
        assert_eq!(
            lines_of(&[b"a\nbb", b"b\n", b"", b"cc", b"c\nd\n", b"tail"]),
            vec![
                Ok("a".to_string()),
                Ok("bbb".to_string()),
                Ok("ccc".to_string()),
                Ok("d".to_string())
            ]
        );
    }

    #[test]
    fn an_over_long_line_is_refused_once_and_skipped() {
        let big = vec![b'x'; 4 * MAX_LINE_BYTES];
        // Arriving in pieces, the line is refused as soon as it outgrows the
        // cap; the rest of it up to the newline is dropped.
        let pieces: Vec<&[u8]> = big.chunks(1000).collect();
        let mut reads = vec![&b"ping\n"[..]];
        reads.extend(pieces);
        reads.push(b"xx\nok\n");
        assert_eq!(
            lines_of(&reads),
            vec![Ok("ping".to_string()), Err(()), Ok("ok".to_string())]
        );
        // Whole inside one read, it is refused the same way.
        let mut one = big.clone();
        one.extend_from_slice(b"\nok\n");
        assert_eq!(lines_of(&[&one]), vec![Err(()), Ok("ok".to_string())]);
        // A line of exactly the cap is served.
        let head = vec![b'y'; MAX_LINE_BYTES / 2];
        let tail = [&head[..], b"\n"].concat();
        assert_eq!(
            lines_of(&[&head, &tail]),
            vec![Ok("y".repeat(MAX_LINE_BYTES))]
        );
    }
}
