//! One shard of the live dispatcher: a deterministic, single-threaded
//! pipeline over the streaming core.
//!
//! The pipeline owns a [`StreamingEngine`] in *open mode* (arrivals carry no
//! departure — the online model), an external→internal session map, the
//! event-time admission check reused from
//! [`dbp_cloudsim::faults::AdmissionPolicy`], and an optional write-ahead
//! journal. Everything here is synchronous and deterministic: the daemon
//! keeps one pipeline per shard behind a lock and runs it on whichever
//! connection thread routed the request; tests and the shed-determinism
//! proptest drive it directly.
//!
//! ## Internal ids
//!
//! The engine's per-item columns are indexed by internal id, so the
//! pipeline recycles ids: a departed session's id goes on a free list, as
//! does one burned by a timeout drop or a refused arrival, and the next
//! arrival takes the most recently freed one. The largest id ever issued
//! is therefore the shard's peak of sessions in flight, however long the
//! daemon runs. Journals carry these recycled ids; `dbp recover` keys
//! items by insert/remove and bins by their dense ids, so it audits them
//! unchanged. Bin ids are never recycled.
//!
//! ## Admission semantics
//!
//! Arrivals are admitted in **event time**, matching the fault layer: the
//! effective processing tick is `now = max(horizon, at)` (event time never
//! rewinds), the queueing delay is `wait = now − at`, and
//! `wait >= queue_timeout` is a [`DropReason::QueueTimeout`] drop — the
//! boundary `wait == timeout` drops, exactly as in the batch simulator.
//! Queue-*capacity* sheds happen at the daemon's front door (too many
//! requests already waiting for the shard) before a request reaches the
//! pipeline, so they are ledgered by the server, not here.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_core::bin::BinId;
use dbp_core::demand::Demand;
use dbp_core::item::{ItemId, RegionId, Size};
use dbp_core::packer::BinSelector;
use dbp_core::probe::{DropReason, GProbeEvent, Probe};
use dbp_core::streaming::{GStreamError, StreamingEngine};
use dbp_core::time::Tick;
use dbp_obs::journal::JournalProbe;
use std::collections::HashMap;

use crate::protocol::Request;

/// The shard probe: forwards every engine event to the write-ahead journal
/// when one is attached. Always enabled — a live dispatcher's history *is*
/// its journal.
#[derive(Debug, Default)]
pub struct ServeProbe {
    /// The shard's journal, if journaling is on.
    pub journal: Option<JournalProbe>,
}

impl<Sz: Demand> Probe<Sz> for ServeProbe {
    fn record(&mut self, event: GProbeEvent<Sz>) {
        if let Some(j) = self.journal.as_mut() {
            Probe::<Sz>::record(j, event);
        }
    }
}

/// Exact per-shard accounting. Every arrival offered to the pipeline gets
/// exactly one of {placed, dropped_timeout, rejected}, so
/// [`ShardLedger::conserved`] holds at all times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLedger {
    /// Arrivals offered to this pipeline.
    pub offered: u64,
    /// Arrivals placed into a bin.
    pub placed: u64,
    /// Arrivals shed by the event-time queue timeout.
    pub dropped_timeout: u64,
    /// Arrivals refused as invalid (duplicate id, oversized, id space
    /// exhausted).
    pub rejected: u64,
    /// Departures applied.
    pub departed: u64,
    /// Departure requests for unknown sessions.
    pub bad_departs: u64,
}

impl ShardLedger {
    /// `placed + dropped + rejected == offered` — no arrival unaccounted.
    pub fn conserved(&self) -> bool {
        self.placed + self.dropped_timeout + self.rejected == self.offered
    }
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The arrival was placed into `bin`.
    Placed {
        /// The bin chosen by the selector.
        bin: BinId,
    },
    /// The departure was applied.
    Departed,
    /// The arrival was shed by admission control.
    Dropped {
        /// Which admission rule fired.
        reason: DropReason,
    },
    /// The request was invalid (duplicate / unknown id, oversized, …).
    Rejected {
        /// Human-readable refusal.
        reason: String,
    },
    /// A ping; no shard state touched.
    Pong,
}

/// One shard's deterministic dispatch pipeline over `Sz`-dimensional
/// demands. See the module docs. The scalar daemon uses the
/// [`ShardPipeline`] alias; vector daemons monomorphize per `--dims`.
pub struct GShardPipeline<Sz: Demand = Size> {
    engine: StreamingEngine<Box<dyn BinSelector<Sz>>, ServeProbe, Sz>,
    admission: AdmissionPolicy,
    /// Live external id → internal engine id.
    sessions: HashMap<u64, ItemId>,
    /// Internal ids free for reuse, most recently freed last.
    free: Vec<ItemId>,
    /// Internal ids ever issued: one more than the largest, and the length
    /// of the engine's per-item columns.
    next_internal: u32,
    /// Running accounting, updated on every request.
    pub ledger: ShardLedger,
}

/// The scalar (`D = 1`) pipeline the original daemon shipped.
pub type ShardPipeline = GShardPipeline<Size>;

impl<Sz: Demand> GShardPipeline<Sz> {
    /// Build a pipeline with no journal.
    pub fn new(
        capacity: Sz,
        selector: Box<dyn BinSelector<Sz>>,
        admission: AdmissionPolicy,
    ) -> GShardPipeline<Sz> {
        GShardPipeline::with_probe(capacity, selector, admission, ServeProbe::default())
    }

    /// Build a pipeline writing every engine event to `probe.journal`.
    pub fn with_probe(
        capacity: Sz,
        selector: Box<dyn BinSelector<Sz>>,
        admission: AdmissionPolicy,
        probe: ServeProbe,
    ) -> GShardPipeline<Sz> {
        GShardPipeline {
            engine: StreamingEngine::new(capacity, selector, probe),
            admission,
            sessions: HashMap::new(),
            free: Vec::new(),
            next_internal: 0,
            ledger: ShardLedger::default(),
        }
    }

    /// The shard's event-time horizon.
    pub fn horizon(&self) -> Tick {
        self.engine.horizon()
    }

    /// Currently open bins.
    pub fn open_bins(&self) -> usize {
        self.engine.open_bins()
    }

    /// Bins opened over the shard's lifetime.
    pub fn bins_opened(&self) -> usize {
        self.engine.bins_opened()
    }

    /// Live (placed, not yet departed) sessions.
    pub fn in_flight(&self) -> usize {
        self.engine.in_flight()
    }

    /// Handle one request; never panics on client input. Arrival demands
    /// are read from the first `Sz::DIMS` components of the wire array —
    /// the protocol layer has already arity-checked them against the
    /// daemon's dimensionality, so no truncation can happen here.
    pub fn handle(&mut self, req: &Request) -> Outcome {
        match *req {
            Request::Arrive { id, at, demand } => self.handle_arrive(id, at, &demand),
            Request::Depart { id, at } => self.handle_depart(id, at),
            Request::Ping { .. } => Outcome::Pong,
        }
    }

    fn handle_arrive(&mut self, external: u64, at: u64, demand: &[u64]) -> Outcome {
        self.ledger.offered += 1;
        if self.sessions.contains_key(&external) {
            self.ledger.rejected += 1;
            return Outcome::Rejected {
                reason: format!("duplicate session id {external}"),
            };
        }
        if self.free.is_empty() && self.next_internal == u32::MAX {
            self.ledger.rejected += 1;
            return Outcome::Rejected {
                reason: "shard id space exhausted".to_string(),
            };
        }
        let Some(size) = Sz::from_components(&demand[..Sz::DIMS]) else {
            self.ledger.rejected += 1;
            return Outcome::Rejected {
                reason: format!(
                    "demand_arity: demand has {} components, shard expects {}",
                    demand.len().min(Sz::DIMS),
                    Sz::DIMS
                ),
            };
        };
        // Event-time admission: the arrival is processed at the shard's
        // horizon if it queued behind earlier work; waiting `queue_timeout`
        // ticks or more (boundary inclusive) is a shed.
        let at = Tick(at);
        let now = self.engine.horizon().max(at);
        let wait = now.raw() - at.raw();
        let internal = self.free.pop().unwrap_or_else(|| {
            self.next_internal += 1;
            ItemId(self.next_internal - 1)
        });
        if wait >= self.admission.queue_timeout {
            // The journal names the burned id; it is free again at once.
            self.free.push(internal);
            Probe::<Sz>::record(
                self.engine.probe_mut(),
                GProbeEvent::ItemDropped {
                    at: now,
                    item: internal,
                    reason: DropReason::QueueTimeout,
                },
            );
            self.ledger.dropped_timeout += 1;
            return Outcome::Dropped {
                reason: DropReason::QueueTimeout,
            };
        }
        match self
            .engine
            .push_open_arrival(internal, size, RegionId::GLOBAL, now)
        {
            Ok(bin) => {
                self.sessions.insert(external, internal);
                self.ledger.placed += 1;
                Outcome::Placed { bin }
            }
            Err(e) => {
                // ZeroSize / Oversized — the internal id was never used.
                // The refusal names the client's session, not the recycled
                // internal id.
                self.free.push(internal);
                self.ledger.rejected += 1;
                let reason = match e {
                    GStreamError::Oversized { size, capacity, .. } => {
                        format!("session {external} (size {size}) exceeds capacity {capacity}")
                    }
                    GStreamError::ZeroSize { .. } => format!("session {external} has size 0"),
                    other => other.to_string(),
                };
                Outcome::Rejected { reason }
            }
        }
    }

    fn handle_depart(&mut self, external: u64, at: u64) -> Outcome {
        let Some(&internal) = self.sessions.get(&external) else {
            self.ledger.bad_departs += 1;
            return Outcome::Rejected {
                reason: format!("unknown session id {external}"),
            };
        };
        let now = self.engine.horizon().max(Tick(at));
        match self.engine.push_departure(internal, now) {
            Ok(()) => {
                self.sessions.remove(&external);
                self.free.push(internal);
                self.ledger.departed += 1;
                Outcome::Departed
            }
            Err(e) => {
                // Unreachable with a consistent session map; stay graceful.
                self.ledger.bad_departs += 1;
                Outcome::Rejected {
                    reason: e.to_string(),
                }
            }
        }
    }

    /// Tear the pipeline down: seal the journal (flush + fsync + length
    /// frame) and return the final ledger plus `(in_flight, open_bins)` at
    /// teardown. In-flight sessions were *served*; they are not losses.
    pub fn seal(self) -> Result<(ShardLedger, usize, usize), String> {
        let ledger = self.ledger;
        let (probe, _arrived, in_flight, open_bins) = self.engine.into_probe();
        if let Some(j) = probe.journal {
            j.finish()
                .map_err(|e| format!("journal seal failed: {e}"))?;
        }
        Ok((ledger, in_flight, open_bins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_DIMS;
    use dbp_core::algorithms::FirstFit;
    use dbp_core::demand::VSize;

    fn pipeline(timeout: u64) -> ShardPipeline {
        ShardPipeline::new(
            Size(10),
            Box::new(FirstFit::new()),
            AdmissionPolicy {
                queue_capacity: 64,
                queue_timeout: timeout,
            },
        )
    }

    /// Wire-shaped arrival with a scalar demand in dimension 0.
    fn arrive(id: u64, at: u64, size: u64) -> Request {
        let mut demand = [0u64; MAX_DIMS];
        demand[0] = size;
        Request::Arrive { id, at, demand }
    }

    #[test]
    fn place_depart_lifecycle_conserves() {
        let mut p = pipeline(100);
        let a = p.handle(&arrive(7, 0, 6));
        assert!(matches!(a, Outcome::Placed { .. }), "{a:?}");
        let b = p.handle(&arrive(8, 1, 6));
        assert!(matches!(b, Outcome::Placed { .. }), "{b:?}");
        assert_eq!(p.open_bins(), 2);
        assert_eq!(p.in_flight(), 2);
        assert_eq!(
            p.handle(&Request::Depart { id: 7, at: 5 }),
            Outcome::Departed
        );
        assert_eq!(p.open_bins(), 1);
        // External id 7 is free again after departure.
        let c = p.handle(&arrive(7, 6, 2));
        assert!(matches!(c, Outcome::Placed { .. }), "{c:?}");
        assert!(p.ledger.conserved());
        assert_eq!(p.ledger.placed, 3);
        assert_eq!(p.ledger.departed, 1);
    }

    #[test]
    fn stale_arrival_at_the_timeout_boundary_is_shed() {
        let mut p = pipeline(8);
        // Push the horizon to 20.
        p.handle(&arrive(1, 20, 4));
        // Queued at 13 against horizon 20: wait 7 < 8 → admitted (clamped).
        let ok = p.handle(&arrive(2, 13, 4));
        assert!(matches!(ok, Outcome::Placed { .. }), "{ok:?}");
        // Queued at 12: wait 8 == timeout → boundary drop.
        let shed = p.handle(&arrive(3, 12, 4));
        assert_eq!(
            shed,
            Outcome::Dropped {
                reason: DropReason::QueueTimeout
            }
        );
        assert!(p.ledger.conserved());
        assert_eq!(p.ledger.dropped_timeout, 1);
    }

    #[test]
    fn invalid_requests_are_refused_not_fatal() {
        let mut p = pipeline(100);
        p.handle(&arrive(1, 0, 4));
        let dup = p.handle(&arrive(1, 1, 4));
        assert!(matches!(dup, Outcome::Rejected { .. }), "{dup:?}");
        let big = p.handle(&arrive(2, 1, 11));
        assert!(matches!(big, Outcome::Rejected { .. }), "{big:?}");
        let ghost = p.handle(&Request::Depart { id: 99, at: 2 });
        assert!(matches!(ghost, Outcome::Rejected { .. }), "{ghost:?}");
        assert!(p.ledger.conserved());
        assert_eq!(p.ledger.rejected, 2);
        assert_eq!(p.ledger.bad_departs, 1);
    }

    #[test]
    fn sealing_reports_in_flight_sessions() {
        let mut p = pipeline(100);
        p.handle(&arrive(1, 0, 4));
        p.handle(&arrive(2, 1, 4));
        p.handle(&Request::Depart { id: 1, at: 3 });
        let (ledger, in_flight, open_bins) = p.seal().unwrap();
        assert!(ledger.conserved());
        assert_eq!(in_flight, 1);
        assert_eq!(open_bins, 1);
    }

    /// Serve one session set `passes` times back to back, each pass shifted
    /// past the last; returns (ids issued, peak in flight, replies).
    fn serve_passes(passes: u64) -> (usize, usize, Vec<Outcome>) {
        // Sessions (arrive, depart, size) that overlap up to four deep.
        let sessions: Vec<(u64, u64, u64)> = (0..12u64)
            .map(|i| (i * 3, i * 3 + 4 + i % 7, 1 + i % 4))
            .collect();
        let span = 50;
        let mut events: Vec<(u64, bool, u64, u64)> = Vec::new();
        for p in 0..passes {
            for (i, &(a, d, size)) in sessions.iter().enumerate() {
                let id = p * 100 + i as u64;
                events.push((p * span + a, true, id, size));
                events.push((p * span + d, false, id, size));
            }
        }
        // Departures first at equal ticks, as the live replay sends them.
        events.sort_by_key(|&(at, arrive, id, _)| (at, arrive, id));
        let mut p = pipeline(1_000);
        let mut peak = 0;
        let mut replies = Vec::new();
        for (at, is_arrival, id, size) in events {
            let req = if is_arrival {
                arrive(id, at, size)
            } else {
                Request::Depart { id, at }
            };
            let outcome = p.handle(&req);
            assert!(
                matches!(outcome, Outcome::Placed { .. } | Outcome::Departed),
                "{outcome:?}"
            );
            peak = peak.max(p.in_flight());
            replies.push(outcome);
        }
        assert!(p.ledger.conserved());
        (p.next_internal as usize, peak, replies)
    }

    #[test]
    fn internal_ids_stay_within_peak_in_flight() {
        let (ids_1, peak_1, replies_1) = serve_passes(1);
        for passes in [2, 5, 40] {
            let (ids, peak, replies) = serve_passes(passes);
            assert!(ids <= peak, "P={passes}: {ids} ids for peak {peak}");
            assert_eq!((ids, peak), (ids_1, peak_1), "P={passes}");
            // Every pass gets the replies (and bins) of the first, shifted
            // by the bins earlier passes opened.
            let opened = |r: &[Outcome]| {
                r.iter()
                    .filter_map(|o| match o {
                        Outcome::Placed { bin } => Some(bin.0),
                        _ => None,
                    })
                    .max()
                    .unwrap()
                    + 1
            };
            let per_pass = opened(&replies_1);
            assert_eq!(opened(&replies), per_pass * passes as u32);
        }
    }

    #[test]
    fn refused_arrivals_give_their_ids_back() {
        let mut p = pipeline(8);
        p.handle(&arrive(1, 20, 4));
        // A timeout drop and an oversized refusal each burn no id.
        p.handle(&arrive(2, 12, 4));
        // The refusal names the session, never the internal id it burned.
        assert_eq!(
            p.handle(&arrive(3, 20, 11)),
            Outcome::Rejected {
                reason: "session 3 (size 11) exceeds capacity 10".to_string()
            }
        );
        assert_eq!(p.next_internal, 2);
        let ok = p.handle(&arrive(4, 21, 4));
        assert!(matches!(ok, Outcome::Placed { .. }), "{ok:?}");
        assert_eq!(p.next_internal, 2);
        assert!(p.ledger.conserved());
    }

    #[test]
    fn vector_pipeline_packs_by_binding_dimension() {
        // Capacity [10, 4]: dimension 1 binds first, so every [4, 3] item
        // needs its own bin — a scalar engine at capacity 10 would have
        // paired them two per bin.
        let mut p: GShardPipeline<VSize<2>> = GShardPipeline::new(
            VSize([10, 4]),
            Box::new(FirstFit::new()),
            AdmissionPolicy {
                queue_capacity: 64,
                queue_timeout: 100,
            },
        );
        for id in 0..3u64 {
            let got = p.handle(&Request::Arrive {
                id,
                at: id,
                demand: [4, 3, 0, 0],
            });
            assert!(matches!(got, Outcome::Placed { .. }), "{got:?}");
        }
        assert_eq!(p.open_bins(), 3, "dim 1 (cap 4) admits one 3 per bin");
        // An item too big in dimension 1 alone is a typed refusal.
        let big = p.handle(&Request::Arrive {
            id: 9,
            at: 5,
            demand: [1, 5, 0, 0],
        });
        assert!(matches!(big, Outcome::Rejected { .. }), "{big:?}");
        assert!(p.ledger.conserved());
    }
}
