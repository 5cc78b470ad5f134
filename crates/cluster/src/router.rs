//! Routing policies: which shard serves which request.
//!
//! A router is a *pure function* of the instance — no RNG, no wall clock —
//! so the same workload always lands on the same shards and every cluster
//! run is exactly reproducible. Routing happens before dispatch and sees
//! only what an online router could see at arrival time: the item's id,
//! arrival tick and size (never the departure).

use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use dbp_core::item::GItem;
use dbp_workloads::GameCatalog;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The routing policy catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// SplitMix64 hash of the item id — stateless, uniform in expectation.
    HashByItem,
    /// Game affinity: requests for the same title (recovered from the
    /// session's GPU footprint — demand dimension 0 — against the default
    /// [`GameCatalog`]) go to the same shard, so each pool holds few
    /// distinct game images. Footprints matching no catalog title fall
    /// back to the hash route.
    GameAffinity,
    /// Exact-integer least-loaded: route each arrival to the shard whose
    /// currently *active* routed load (per dimension, the sum of demands of
    /// sessions routed there and not yet departed) is smallest under the
    /// `(max over dimensions, total)` key, lowest shard index winning
    /// ties. At one dimension both key entries are the scalar load. The
    /// load view uses the router's own bookkeeping — integers only.
    LeastLoaded,
}

impl Router {
    /// Every router, for sweeps.
    pub const ALL: [Router; 3] = [
        Router::HashByItem,
        Router::GameAffinity,
        Router::LeastLoaded,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Router::HashByItem => "hash",
            Router::GameAffinity => "affinity",
            Router::LeastLoaded => "least-loaded",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<Router> {
        Router::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Assign every item of `requests` to a shard in `0..shards`, at any
    /// demand dimensionality: [`route_one_dims`] folded over the stream in
    /// `(arrival, id)` order, with departed sessions expired first (the
    /// engine's departures-before-arrivals rule). Only least-loaded reads
    /// the load view, so hash and affinity skip the fold and route each
    /// item on its own. Deterministic: two calls on equal instances return
    /// equal vectors.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn assign<Sz: Demand>(self, requests: &GInstance<Sz>, shards: usize) -> Vec<usize> {
        assert!(shards > 0, "a cluster needs at least one shard");
        if self != Router::LeastLoaded {
            let loads = zero_loads(shards, 1);
            return requests
                .items()
                .iter()
                .map(|it| route_one_dims(self, it.id.0 as u64, &[it.size.component(0)], &loads))
                .collect();
        }
        let mut order: Vec<&GItem<Sz>> = requests.items().iter().collect();
        order.sort_by_key(|it| (it.arrival.raw(), it.id.0));
        let mut loads = zero_loads(shards, Sz::DIMS);
        // Min-heap of (departure, shard, item index) via Reverse.
        let mut active: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();
        let mut assignment = vec![0usize; requests.len()];
        for it in order {
            while let Some(&Reverse((dep, shard, idx))) = active.peek() {
                if dep > it.arrival.raw() {
                    break;
                }
                active.pop();
                let size = requests.items()[idx as usize].size;
                for (d, slot) in loads[shard].iter_mut().enumerate() {
                    *slot -= size.component(d) as u128;
                }
            }
            let best = route_one_dims(self, it.id.0 as u64, &[it.size.component(0)], &loads);
            for (d, slot) in loads[best].iter_mut().enumerate() {
                *slot += it.size.component(d) as u128;
            }
            active.push(Reverse((it.departure.raw(), best, it.id.0)));
            assignment[it.id.index()] = best;
        }
        assignment
    }
}

/// Per-shard, per-dimension active load: `loads[shard][dim]`.
pub type DimLoads = Vec<Vec<u128>>;

/// Fresh all-zero load view for `shards` shards of `dims` dimensions.
pub fn zero_loads(shards: usize, dims: usize) -> DimLoads {
    vec![vec![0u128; dims]; shards]
}

/// Route **one** arrival online, without the whole stream: the shape a
/// live daemon needs, where the next request is unknown until it lands and
/// the dimensionality is a config value, not a type. `demand[0]` is the
/// GPU footprint the affinity router keys on; `loads` (one row per shard)
/// is consulted only by [`Router::LeastLoaded`], which orders shards by
/// `(max over dimensions, sum over dimensions, index)`.
///
/// Consistency with [`Router::assign`]: fed the same stream in event order
/// with `loads` maintained from its own answers ([`apply_route_dims`] on
/// route, [`unapply_route_dims`] on departure), this returns the same
/// shard for every item — the batch router is this function folded over
/// the instance.
///
/// # Panics
/// Panics if `loads` or `demand` is empty.
pub fn route_one_dims(router: Router, id: u64, demand: &[u64], loads: &DimLoads) -> usize {
    let shards = loads.len();
    assert!(shards > 0, "a cluster needs at least one shard");
    assert!(!demand.is_empty(), "a demand needs at least one dimension");
    let hashed = || (splitmix64(id) % shards as u64) as usize;
    match router {
        Router::HashByItem => hashed(),
        Router::GameAffinity => {
            // Built once: this is a daemon hot path.
            static BY_GPU: OnceLock<HashMap<u64, usize>> = OnceLock::new();
            match BY_GPU.get_or_init(title_by_gpu_units).get(&demand[0]) {
                Some(&title) => title % shards,
                None => hashed(),
            }
        }
        Router::LeastLoaded => (0..shards)
            .min_by_key(|&s| {
                let dims = &loads[s];
                (
                    dims.iter().copied().max().unwrap_or(0),
                    dims.iter().sum::<u128>(),
                )
            })
            .expect("shards is nonzero"),
    }
}

/// Add a routed arrival's demand to the load view (call on route).
/// Components past the view's dimensionality are ignored.
pub fn apply_route_dims(loads: &mut DimLoads, shard: usize, demand: &[u64]) {
    for (slot, &d) in loads[shard].iter_mut().zip(demand) {
        *slot += d as u128;
    }
}

/// Remove a departed (or refused) session's demand from the load view.
/// Removal saturates: a refused route can race a concurrent view rebuild.
pub fn unapply_route_dims(loads: &mut DimLoads, shard: usize, demand: &[u64]) {
    for (slot, &d) in loads[shard].iter_mut().zip(demand) {
        *slot = slot.saturating_sub(d as u128);
    }
}

/// First catalog index per GPU footprint. Two titles sharing a footprint
/// (the default catalog has two such pairs) collapse onto the first — the
/// router cannot tell them apart from the footprint alone, which is all an
/// arrival carries.
fn title_by_gpu_units() -> HashMap<u64, usize> {
    let mut map = HashMap::new();
    for (i, g) in GameCatalog::default_catalog().games.iter().enumerate() {
        map.entry(g.gpu_units).or_insert(i);
    }
    map
}

/// SplitMix64 finalizer — the same avalanche the fault layer's hash
/// streams use, applied to item ids.
fn splitmix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::demand::VSize;
    use dbp_core::instance::{Instance, InstanceBuilder};

    fn tiny() -> Instance {
        let mut b = InstanceBuilder::new(100);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        b.add(5, 20, 7);
        b.add(12, 30, 9);
        b.build().unwrap()
    }

    #[test]
    fn names_round_trip() {
        for r in Router::ALL {
            assert_eq!(Router::from_name(r.name()), Some(r));
        }
        assert_eq!(Router::from_name("bogus"), None);
    }

    #[test]
    fn assignments_cover_every_item_and_stay_in_range() {
        let inst = tiny();
        for r in Router::ALL {
            for shards in [1, 2, 3, 8] {
                let a = r.assign(&inst, shards);
                assert_eq!(a.len(), inst.len(), "{}", r.name());
                assert!(a.iter().all(|&s| s < shards), "{}", r.name());
            }
        }
    }

    #[test]
    fn one_shard_routes_everything_to_zero() {
        let inst = tiny();
        for r in Router::ALL {
            assert!(r.assign(&inst, 1).iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn least_loaded_balances_simultaneous_arrivals() {
        // Two identical items arriving together must go to different shards.
        let mut b = InstanceBuilder::new(100);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        let inst = b.build().unwrap();
        let a = Router::LeastLoaded.assign(&inst, 2);
        assert_eq!(a, vec![0, 1]);
    }

    #[test]
    fn least_loaded_expires_departed_sessions() {
        // Item 0 departs before item 2 arrives, so shard 0 is free again.
        let mut b = InstanceBuilder::new(100);
        b.add(0, 5, 9);
        b.add(0, 20, 1);
        b.add(5, 10, 9);
        let inst = b.build().unwrap();
        let a = Router::LeastLoaded.assign(&inst, 2);
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 1);
        // At t=5 shard 0's load is 0 (item 0 gone), shard 1 holds size 1.
        assert_eq!(a[2], 0);
    }

    #[test]
    fn affinity_groups_equal_footprints() {
        let catalog = GameCatalog::default_catalog();
        let units = catalog.games[0].gpu_units;
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 10, units);
        b.add(3, 12, units);
        b.add(5, 20, units);
        let inst = b.build().unwrap();
        let a = Router::GameAffinity.assign(&inst, 4);
        assert!(a.windows(2).all(|w| w[0] == w[1]), "{a:?}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Router::HashByItem.assign(&tiny(), 0);
    }

    #[test]
    fn route_one_folds_to_the_batch_assignment() {
        // Online routing fed the stream in event order, with the live-load
        // view maintained from its own answers, must reproduce `assign` —
        // and both must reproduce the assignments the scalar router made
        // before the routers were unified (pinned below per router, for
        // 1, 2 and 3 shards).
        let pinned: [(Router, [[usize; 4]; 3]); 3] = [
            (
                Router::HashByItem,
                [[0, 0, 0, 0], [1, 1, 0, 1], [1, 2, 1, 0]],
            ),
            (
                Router::GameAffinity,
                [[0, 0, 0, 0], [1, 1, 0, 1], [1, 2, 1, 0]],
            ),
            (
                Router::LeastLoaded,
                [[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 2, 0]],
            ),
        ];
        let inst = tiny();
        for (r, pins) in pinned {
            for shards in [1usize, 2, 3] {
                let batch = r.assign(&inst, shards);
                assert_eq!(batch, pins[shards - 1], "{} × {shards}", r.name());
                let mut order: Vec<&GItem<dbp_core::item::Size>> = inst.items().iter().collect();
                order.sort_by_key(|it| (it.arrival.raw(), it.id.0));
                let mut loads = zero_loads(shards, 1);
                let mut active: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
                for it in order {
                    while let Some(&Reverse((dep, shard, size))) = active.peek() {
                        if dep > it.arrival.raw() {
                            break;
                        }
                        active.pop();
                        unapply_route_dims(&mut loads, shard, &[size]);
                    }
                    let size = it.size.raw();
                    let s = route_one_dims(r, it.id.0 as u64, &[size], &loads);
                    assert_eq!(s, batch[it.id.index()], "{} item {}", r.name(), it.id);
                    apply_route_dims(&mut loads, s, &[size]);
                    active.push(Reverse((it.departure.raw(), s, size)));
                }
            }
        }
    }

    fn tiny_scalar() -> Instance {
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        b.add(5, 20, 7);
        b.add(12, 30, 9);
        b.add(13, 22, 50);
        b.add(14, 40, 125); // matches a catalog footprint (affinity path)
        b.build().unwrap()
    }

    fn lift1(inst: &Instance) -> GInstance<VSize<1>> {
        inst.map_demand(|s| VSize([s.raw()])).unwrap()
    }

    #[test]
    fn d1_assignment_matches_scalar_for_every_router_and_shard_count() {
        // Pinned from the scalar router before the routers were unified.
        let pinned: [(Router, [[usize; 6]; 4]); 3] = [
            (
                Router::HashByItem,
                [
                    [0, 0, 0, 0, 0, 0],
                    [1, 1, 0, 1, 0, 0],
                    [1, 2, 1, 0, 1, 2],
                    [7, 1, 6, 5, 2, 2],
                ],
            ),
            (
                Router::GameAffinity,
                [
                    [0, 0, 0, 0, 0, 0],
                    [1, 1, 0, 1, 0, 0],
                    [1, 2, 1, 0, 2, 0],
                    [7, 1, 6, 5, 2, 0],
                ],
            ),
            (
                Router::LeastLoaded,
                [
                    [0, 0, 0, 0, 0, 0],
                    [0, 1, 0, 1, 0, 1],
                    [0, 1, 2, 0, 1, 2],
                    [0, 1, 2, 0, 1, 3],
                ],
            ),
        ];
        let inst = tiny_scalar();
        let lifted = lift1(&inst);
        for (r, pins) in pinned {
            for (shards, pin) in [1, 2, 3, 8].into_iter().zip(pins) {
                assert_eq!(
                    r.assign(&lifted, shards),
                    pin,
                    "router {} × {shards} shards diverged at D=1",
                    r.name()
                );
                assert_eq!(r.assign(&inst, shards), pin, "{} scalar", r.name());
            }
        }
    }

    #[test]
    fn d1_route_one_matches_scalar_under_identical_load_views() {
        // The scalar router's answers on loads [7, 3, 5, 3], pinned before
        // the routers were unified.
        let pinned = [
            (Router::HashByItem, [3usize, 1, 0, 1]),
            (Router::GameAffinity, [0, 1, 1, 1]),
            (Router::LeastLoaded, [1, 1, 1, 1]),
        ];
        let loads: DimLoads = [7u128, 3, 5, 3].iter().map(|&l| vec![l]).collect();
        for (r, want) in pinned {
            for (&(id, size), &shard) in [(0u64, 125u64), (1, 17), (9, 200), (77, 1)]
                .iter()
                .zip(&want)
            {
                assert_eq!(
                    route_one_dims(r, id, &[size], &loads),
                    shard,
                    "router {} diverged on id {id}",
                    r.name()
                );
            }
        }
    }

    #[test]
    fn least_loaded_spreads_by_binding_dimension() {
        // Shard 0 is GPU-hot, shard 1 is memory-hot with a higher max:
        // the max-dimension key must prefer shard 0.
        let loads: DimLoads = vec![vec![80, 10], vec![10, 90]];
        let got = route_one_dims(Router::LeastLoaded, 0, &[1, 1], &loads);
        assert_eq!(got, 0);
    }
}
