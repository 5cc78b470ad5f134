//! The packing algorithms analyzed in the paper, plus standard foils.
//!
//! * [`FirstFit`], [`BestFit`] and the whole Any Fit family (§3.2);
//! * [`ModifiedFirstFit`] — the paper's contribution (§4.4);
//! * foils: [`WorstFit`], [`NextFit`], [`LastFit`], [`RandomFit`],
//!   [`MostItemsFit`];
//! * [`ConstrainedFirstFit`] — the §5 future-work extension (items restricted
//!   to region-compatible bins);
//! * [`IndexedFirstFit`], [`IndexedBestFit`], [`IndexedMff`] —
//!   decision-identical O(log m) reimplementations of FF/BF/MFF over
//!   hook-maintained indexes (see [`indexed`]).

mod best_fit;
mod constrained;
mod dominance;
mod first_fit;
mod harmonic;
pub mod indexed;
mod last_fit;
mod modified_first_fit;
mod most_items;
mod next_fit;
mod random_fit;
mod worst_fit;

pub use best_fit::BestFit;
pub use constrained::ConstrainedFirstFit;
pub use dominance::DominanceFit;
pub use first_fit::FirstFit;
pub use harmonic::HarmonicFit;
pub use indexed::{IndexedBestFit, IndexedFirstFit, IndexedMff};
pub use last_fit::LastFit;
pub use modified_first_fit::{ItemClass, ModifiedFirstFit, LARGE_TAG, SMALL_TAG};
pub use most_items::MostItemsFit;
pub use next_fit::NextFit;
pub use random_fit::RandomFit;
pub use worst_fit::WorstFit;

use crate::bin::GOpenBinView;
use crate::demand::Demand;
use crate::packer::SelectorFactory;

/// Among the open bins that fit `size` (componentwise, per
/// [`GOpenBinView::fits`]), pick the one minimizing `key` (ties broken
/// toward the earliest-opened bin, because `bins` is in opening order and
/// the comparison is strict). Returns `None` if no open bin fits — the Any
/// Fit trigger for opening a new bin.
pub(crate) fn argmin_fitting<Sz: Demand, K: Ord>(
    bins: &[GOpenBinView<Sz>],
    size: Sz,
    mut key: impl FnMut(&GOpenBinView<Sz>) -> K,
) -> Option<&GOpenBinView<Sz>> {
    let mut best: Option<(&GOpenBinView<Sz>, K)> = None;
    for b in bins.iter().filter(|b| b.fits(size)) {
        let k = key(b);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((b, k)),
        }
    }
    best.map(|(b, _)| b)
}

/// The standard algorithm roster used by experiments: one factory per
/// deterministic algorithm, with MFF at its µ-oblivious setting `k = 8`
/// (the paper's recommendation when µ is unknown) and Random Fit seeded.
///
/// ```
/// use dbp_core::prelude::*;
/// use dbp_core::algorithms::standard_factories;
/// let mut b = InstanceBuilder::new(10);
/// b.add(0, 50, 6);
/// b.add(5, 40, 6);
/// let inst = b.build().unwrap();
/// for factory in standard_factories(42) {
///     let mut algo = factory.build();
///     let trace = simulate_validated(&inst, &mut *algo);
///     assert_eq!(trace.bins_used(), 2, "{}", factory.name());
/// }
/// ```
pub fn standard_factories(seed: u64) -> Vec<SelectorFactory> {
    vec![
        SelectorFactory::new("FF", || Box::new(FirstFit::new())),
        SelectorFactory::new("BF", || Box::new(BestFit::new())),
        SelectorFactory::new("WF", || Box::new(WorstFit::new())),
        SelectorFactory::new("NF", || Box::new(NextFit::new())),
        SelectorFactory::new("LF", || Box::new(LastFit::new())),
        SelectorFactory::new("MI", || Box::new(MostItemsFit::new())),
        SelectorFactory::new("RF", move || Box::new(RandomFit::seeded(seed))),
        SelectorFactory::new("MFF(8)", || Box::new(ModifiedFirstFit::new(8))),
        SelectorFactory::new("HFF(4)", || Box::new(HarmonicFit::new(4))),
    ]
}

/// The indexed selector roster: the engines the repo actually ships for
/// FF, BF, and MFF. Decision-identical to the naive selectors of the same
/// display names (see [`indexed`]) but O(log m) per arrival with no
/// open-bin view maintenance — benches and cluster baselines should use
/// this family so their numbers describe the production hot path.
pub fn indexed_factories() -> Vec<SelectorFactory> {
    vec![
        SelectorFactory::new("FF", || Box::new(IndexedFirstFit::new())),
        SelectorFactory::new("BF", || Box::new(IndexedBestFit::new())),
        SelectorFactory::new("MFF(8)", || Box::new(IndexedMff::new(8))),
    ]
}

/// Build a selector by roster name for **any** demand dimensionality —
/// the construction seam for components that pick their demand type at
/// runtime (the serve daemon's `--dims` dispatch). The FF/BF/MFF names
/// resolve to the indexed selectors, whose decisions are identical to the
/// scanning [`FirstFit`]/[`BestFit`]/[`ModifiedFirstFit`] (the `-idx`
/// spellings are aliases of the same selectors). Returns `None` for
/// unknown names and for the scalar-only foils (WF/NF/LF/MI/RF/HFF
/// classify on a single size).
pub fn selector_for<Sz: Demand>(name: &str) -> Option<Box<dyn crate::packer::BinSelector<Sz>>> {
    Some(match name {
        "FF" | "ff" | "FF-idx" => Box::new(indexed::GIndexedFirstFit::<Sz>::new()),
        "BF" | "bf" | "BF-idx" => Box::new(indexed::GIndexedBestFit::<Sz>::new()),
        "MFF(8)" | "MFF" | "mff" | "MFF-idx" | "MFF(8)-idx" => {
            Box::new(indexed::GIndexedMff::<Sz>::new(8))
        }
        "DOM" | "dom" => Box::new(DominanceFit::new()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::{BinId, BinTag, OpenBinView};
    use crate::item::Size;
    use crate::time::Tick;

    fn view(id: u32, level: u64) -> OpenBinView {
        OpenBinView {
            id: BinId(id),
            opened_at: Tick(0),
            level: Size(level),
            capacity: Size(10),
            n_items: 1,
            tag: BinTag::DEFAULT,
        }
    }

    #[test]
    fn argmin_prefers_earlier_bin_on_ties() {
        let bins = [view(0, 5), view(1, 5), view(2, 3)];
        let chosen = argmin_fitting(&bins, Size(2), |b| b.level).unwrap();
        assert_eq!(chosen.id, BinId(2));
        let chosen = argmin_fitting(&bins, Size(2), |b| std::cmp::Reverse(b.level)).unwrap();
        assert_eq!(chosen.id, BinId(0)); // tie between 0 and 1 at level 5
    }

    #[test]
    fn argmin_skips_bins_that_do_not_fit() {
        let bins = [view(0, 9), view(1, 10)];
        assert!(argmin_fitting(&bins, Size(2), |b| b.level).is_none());
        let chosen = argmin_fitting(&bins, Size(1), |b| b.level).unwrap();
        assert_eq!(chosen.id, BinId(0));
    }

    #[test]
    fn roster_has_unique_names() {
        let fs = standard_factories(42);
        let mut names: Vec<&str> = fs.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fs.len());
    }

    #[test]
    fn indexed_roster_mirrors_naive_display_names() {
        let standard: Vec<String> = standard_factories(42)
            .iter()
            .map(|f| f.name().to_string())
            .collect();
        for f in indexed_factories() {
            assert!(
                standard.contains(&f.name().to_string()),
                "indexed factory {} has no naive counterpart",
                f.name()
            );
            // Built selectors report the naive names too, so traces from
            // either family are byte-identical.
            let built = f.build();
            assert!(f.name().starts_with(built.name()));
            assert!(!built.needs_views());
        }
    }
}
