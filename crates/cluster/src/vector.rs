//! Vector (multi-resource) entry points, kept as names over the one
//! `Demand`-generic cluster path.
//!
//! [`Router::assign`] and [`ClusterEngine`] are generic over the demand
//! type, so a `D`-dimensional instance routes and dispatches exactly like
//! a scalar one: least-loaded orders shards by `(max-dimension load,
//! total load, index)`, which at `D = 1` is the scalar load, and every
//! other policy reads the item id or the GPU dimension (`component(0)`).
//! This module re-exports the online router over per-dimension load views
//! and keeps two delegating shorthands for callers written against the
//! earlier vector API.

use crate::engine::{ClusterConfig, ClusterEngine, ClusterReport};
use crate::router::Router;
use dbp_cloudsim::GamingSystem;
use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use dbp_core::packer::{BinSelector, GSelectorFactory};

pub use crate::router::{
    apply_route_dims, route_one_dims, unapply_route_dims, zero_loads, DimLoads,
};

/// [`Router::assign`] under its vector-era name.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn assign_vec<Sz: Demand>(
    router: Router,
    requests: &GInstance<Sz>,
    shards: usize,
) -> Vec<usize> {
    router.assign(requests, shards)
}

/// Dispatch `requests` across `shards` shards under `router` through
/// [`ClusterEngine::run`], each shard running a fresh selector from
/// `mk_selector`, on the per-tick [`GamingSystem`] sized to the
/// instance's GPU capacity.
///
/// # Panics
/// Panics if `shards` is zero or a shard worker dies.
pub fn run_cluster_vec<Sz, S, F>(
    requests: &GInstance<Sz>,
    router: Router,
    shards: usize,
    mk_selector: F,
) -> ClusterReport
where
    Sz: Demand,
    S: BinSelector<Sz> + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    let config = ClusterConfig::new(shards, router).unwrap_or_else(|e| panic!("{e}"));
    let name = <S as BinSelector<Sz>>::name(&mk_selector());
    let factory = GSelectorFactory::new(name, move || {
        Box::new(mk_selector()) as Box<dyn BinSelector<Sz>>
    });
    let system = GamingSystem::per_tick(requests.capacity().component(0));
    ClusterEngine::new(system, config)
        .run(requests, &factory)
        .unwrap_or_else(|e| panic!("{e}"))
        .report
}
