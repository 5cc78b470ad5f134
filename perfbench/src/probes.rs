//! Instrumentation the traced runs attach through the core's public
//! seams: a forwarding selector and a decision-time probe.

use dbp_core::{
    BinId, BinSelector, BinTag, Decision, Demand, GArrivingItem, GOpenBinView, GProbeEvent, Probe,
};

/// Forwarding selector that counts `select` calls and the length of the
/// open-bin slice each call is handed: the work a scanning selector does.
pub struct Counting<S> {
    inner: S,
    pub calls: u64,
    pub scanned: u128,
}

impl<S> Counting<S> {
    pub fn new(inner: S) -> Counting<S> {
        Counting {
            inner,
            calls: 0,
            scanned: 0,
        }
    }
}

impl<Sz: Demand, S: BinSelector<Sz>> BinSelector<Sz> for Counting<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn select(
        &mut self,
        bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        self.calls += 1;
        self.scanned += bins.len() as u128;
        self.inner.select(bins, item, capacity)
    }
    fn needs_views(&self) -> bool {
        self.inner.needs_views()
    }
    fn on_bin_opened(&mut self, bin: BinId, tag: BinTag, level: Sz) {
        self.inner.on_bin_opened(bin, tag, level)
    }
    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        self.inner.on_item_placed(bin, level)
    }
    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        self.inner.on_item_departed(bin, level)
    }
    fn on_bin_closed(&mut self, bin: BinId) {
        self.inner.on_bin_closed(bin)
    }
    fn on_decision_replayed(&mut self, item: &GArrivingItem<Sz>, d: Decision, capacity: Sz) {
        self.inner.on_decision_replayed(item, d, capacity)
    }
    fn is_any_fit(&self) -> bool {
        self.inner.is_any_fit()
    }
}

/// Probe that keeps only the engine's per-arrival decision time.
#[derive(Default)]
pub struct DecisionClock {
    pub n: u64,
    pub total_ns: u128,
}

impl<Sz: Demand> Probe<Sz> for DecisionClock {
    fn record(&mut self, _event: GProbeEvent<Sz>) {}
    fn on_decision_ns(&mut self, ns: u64) {
        self.n += 1;
        self.total_ns += ns as u128;
    }
}
