//! Clairvoyant (departure-aware) packing — the interval-scheduling baseline.
//!
//! The paper's model hides departure times from the packer; the related
//! interval-scheduling work it contrasts against (Flammini et al. \[14\],
//! Mertzios et al. \[21\] — busy-time minimization) assumes the end time of a
//! job *is* known at assignment. This module provides that semi-online
//! regime as a baseline family, quantifying the *value of clairvoyance*:
//!
//! * [`ExtendFit`] — place the item into the open bin whose closing time it
//!   extends the least (greedy busy-time minimization, the natural online
//!   analogue of \[14\]'s objective);
//! * [`AlignedFit`] — place the item into the fitting bin whose current
//!   closing time is nearest its own departure, so bins hold items that die
//!   together.
//!
//! A [`ClairvoyantSelector`] receives the full [`Item`] (departure
//! included). The [`Clairvoyant`] adapter lets the standard engine run it:
//! the adapter looks the arriving item up in the instance, so the ordinary
//! [`BinSelector`] plumbing, traces and validators all apply unchanged.
//!
//! [`BinSelector`]: crate::packer::BinSelector

use crate::bin::{BinId, OpenBinView};
use crate::engine::simulate;
use crate::instance::Instance;
use crate::item::{ArrivingItem, Item, Size};
use crate::packer::{BinSelector, Decision};
use crate::time::Tick;
use crate::trace::PackingTrace;
use std::collections::HashMap;

/// A packing strategy that is told departure times at assignment. `Send`
/// like [`BinSelector`], which its engine adapter implements.
pub trait ClairvoyantSelector: Send {
    /// Roster name.
    fn name(&self) -> &'static str;
    /// Choose a bin for `item` (full knowledge, including `item.departure`).
    fn select(&mut self, bins: &[OpenBinView], item: &Item, capacity: Size) -> Decision;
    /// A bin closed.
    fn on_bin_closed(&mut self, _bin: BinId) {}
}

/// Adapter running a [`ClairvoyantSelector`] on the standard engine by
/// resolving each [`ArrivingItem`] back to its full [`Item`].
pub struct Clairvoyant<'a, S> {
    instance: &'a Instance,
    inner: S,
}

impl<'a, S: ClairvoyantSelector> Clairvoyant<'a, S> {
    /// Wrap `inner` for packing `instance`.
    pub fn new(instance: &'a Instance, inner: S) -> Self {
        Clairvoyant { instance, inner }
    }
}

impl<S: ClairvoyantSelector> BinSelector for Clairvoyant<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn select(&mut self, bins: &[OpenBinView], item: &ArrivingItem, capacity: Size) -> Decision {
        let full = self.instance.item(item.id);
        debug_assert_eq!(full.arrival, item.arrival);
        self.inner.select(bins, full, capacity)
    }
    fn on_bin_closed(&mut self, bin: BinId) {
        self.inner.on_bin_closed(bin);
    }
}

/// Simulate a clairvoyant selector on an instance.
pub fn simulate_clairvoyant<S: ClairvoyantSelector>(
    instance: &Instance,
    selector: S,
) -> PackingTrace {
    let mut adapted = Clairvoyant::new(instance, selector);
    simulate(instance, &mut adapted)
}

/// Shared bookkeeping: the latest departure among items ever placed in each
/// open bin (an upper bound on — and with our engine exactly — the bin's
/// closing time).
#[derive(Debug, Default)]
struct CloseTimes {
    by_bin: HashMap<BinId, Tick>,
    opened: u32,
}

impl CloseTimes {
    /// Current closing time of `bin`.
    fn get(&self, bin: BinId) -> Tick {
        *self.by_bin.get(&bin).expect("untracked bin")
    }

    /// Record a placement; returns the id a new bin would get.
    fn place(&mut self, decision: Decision, departure: Tick) -> Decision {
        match decision {
            Decision::Use(id) => {
                let e = self.by_bin.get_mut(&id).expect("untracked bin");
                *e = (*e).max(departure);
            }
            Decision::Open { .. } => {
                self.by_bin.insert(BinId(self.opened), departure);
                self.opened += 1;
            }
        }
        decision
    }

    fn close(&mut self, bin: BinId) {
        self.by_bin.remove(&bin);
    }
}

/// Extend Fit: among fitting bins, pick the one whose closing time grows the
/// least by accepting the item (0 if the bin already outlives it); open a
/// new bin only when nothing fits. Ties break toward the earliest bin.
#[derive(Debug, Default)]
pub struct ExtendFit {
    closes: CloseTimes,
}

impl ExtendFit {
    /// Create an Extend Fit selector.
    pub fn new() -> ExtendFit {
        ExtendFit::default()
    }
}

impl ClairvoyantSelector for ExtendFit {
    fn name(&self) -> &'static str {
        "XF"
    }
    fn select(&mut self, bins: &[OpenBinView], item: &Item, _capacity: Size) -> Decision {
        let mut best: Option<(u64, BinId)> = None;
        for b in bins.iter().filter(|b| b.fits(item.size)) {
            let close = self.closes.get(b.id);
            let extension = item.departure.raw().saturating_sub(close.raw());
            if best.is_none_or(|(e, _)| extension < e) {
                best = Some((extension, b.id));
            }
        }
        let decision = match best {
            Some((_, id)) => Decision::Use(id),
            None => Decision::OPEN,
        };
        self.closes.place(decision, item.departure)
    }
    fn on_bin_closed(&mut self, bin: BinId) {
        self.closes.close(bin);
    }
}

/// Aligned Fit: among fitting bins, pick the one whose closing time is
/// nearest the item's departure (in absolute distance) — group items that
/// die together. Opens only when nothing fits.
#[derive(Debug, Default)]
pub struct AlignedFit {
    closes: CloseTimes,
}

impl AlignedFit {
    /// Create an Aligned Fit selector.
    pub fn new() -> AlignedFit {
        AlignedFit::default()
    }
}

impl ClairvoyantSelector for AlignedFit {
    fn name(&self) -> &'static str {
        "AL"
    }
    fn select(&mut self, bins: &[OpenBinView], item: &Item, _capacity: Size) -> Decision {
        let mut best: Option<(u64, BinId)> = None;
        for b in bins.iter().filter(|b| b.fits(item.size)) {
            let close = self.closes.get(b.id).raw();
            let d = item.departure.raw();
            let dist = close.abs_diff(d);
            if best.is_none_or(|(e, _)| dist < e) {
                best = Some((dist, b.id));
            }
        }
        let decision = match best {
            Some((_, id)) => Decision::Use(id),
            None => Decision::OPEN,
        };
        self.closes.place(decision, item.departure)
    }
    fn on_bin_closed(&mut self, bin: BinId) {
        self.closes.close(bin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::any_fit_violations;
    use crate::instance::InstanceBuilder;

    #[test]
    fn extend_fit_prefers_bins_that_outlive_the_item() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 100, 5); // b0: closes at 100
        b.add(0, 20, 5); // b1? fits b0 (5+5) -> extension 0 into b0
        let inst = b.build().unwrap();
        let trace = simulate_clairvoyant(&inst, ExtendFit::new());
        assert_eq!(trace.bins_used(), 1);
        assert_eq!(trace.total_cost_ticks(), 100);
    }

    #[test]
    fn extend_fit_minimizes_extension_among_choices() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 50, 6); // b0 closes 50
        b.add(0, 90, 6); // b1 closes 90 (6+6 > 10)
        b.add(1, 95, 3); // extends b0 by 45, b1 by 5 -> b1
        let inst = b.build().unwrap();
        let trace = simulate_clairvoyant(&inst, ExtendFit::new());
        assert_eq!(trace.bin_of(crate::item::ItemId(2)), BinId(1));
    }

    #[test]
    fn aligned_fit_groups_similar_departures() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 50, 6); // b0 closes 50
        b.add(0, 90, 6); // b1 closes 90
        b.add(1, 52, 3); // |50-52| = 2 vs |90-52| = 38 -> b0
        let inst = b.build().unwrap();
        let trace = simulate_clairvoyant(&inst, AlignedFit::new());
        assert_eq!(trace.bin_of(crate::item::ItemId(2)), BinId(0));
    }

    #[test]
    fn clairvoyant_selectors_are_any_fit() {
        // Both open a bin only when nothing fits, so the µ lower bound of
        // Theorem 1 still applies to them — clairvoyance does not rescue
        // the Any Fit family from the burst construction.
        let mut b = InstanceBuilder::new(10);
        let mut t = 0;
        for i in 0..60u64 {
            b.add(t, t + 30 + (i % 13), 3 + (i % 5));
            t += 2;
        }
        let inst = b.build().unwrap();
        for trace in [
            simulate_clairvoyant(&inst, ExtendFit::new()),
            simulate_clairvoyant(&inst, AlignedFit::new()),
        ] {
            assert!(any_fit_violations(&inst, &trace).is_empty());
            assert!(trace.validate(&inst).is_empty());
        }
    }

    #[test]
    fn clairvoyance_beats_ff_on_a_mixed_lifetime_pattern() {
        // Two long-lived anchors plus short-lived churn: FF mixes short
        // items into long bins (keeping them large forever harms nobody
        // here) — but mixes long items into *short* bins, extending them.
        // Construct: pairs of (long, short) arriving alternately.
        let mut b = InstanceBuilder::new(10);
        let mut t = 0;
        for _ in 0..20 {
            b.add(t, t + 500, 5); // long
            b.add(t + 1, t + 40, 5); // short
            t += 45;
        }
        let inst = b.build().unwrap();
        let ff = simulate(&inst, &mut crate::algorithms::FirstFit::new());
        let xf = simulate_clairvoyant(&inst, ExtendFit::new());
        let al = simulate_clairvoyant(&inst, AlignedFit::new());
        assert!(
            xf.total_cost_ticks() <= ff.total_cost_ticks(),
            "ExtendFit {} vs FF {}",
            xf.total_cost_ticks(),
            ff.total_cost_ticks()
        );
        assert!(al.total_cost_ticks() <= ff.total_cost_ticks());
    }
}
