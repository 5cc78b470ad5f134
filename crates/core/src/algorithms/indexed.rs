//! Indexed First Fit / Best Fit: O(log m) decisions from hook-maintained
//! search structures.
//!
//! The naive [`FirstFit`]/[`BestFit`] selectors scan every open bin per
//! arrival — O(m) work that dominates adversarial instances like the
//! Theorem 5 construction. The selectors here make *exactly the same
//! decisions* (property-tested decision-for-decision against the naive
//! implementations, and they report the same [`name`] so traces are
//! byte-identical) but answer each query from an index updated through the
//! [`BinSelector`] state-change hooks:
//!
//! * [`IndexedFirstFit`] — a max-residual segment tree over the open bins
//!   in id order. "First open bin with residual ≥ s" is a leftmost-leaf
//!   descent, O(log m). Closed bins leave zero-residual tombstones, which
//!   no item can fit since item sizes are validated positive, until a
//!   compaction drops them; the tree stays O(m) however many bins were
//!   ever opened.
//! * [`IndexedBestFit`] — an ordered map of the open bins keyed by
//!   `(L1 level total, Reverse(id))`. "Fullest open bin with level ≤ W − s,
//!   ties to the earliest-opened" is the last key of a range query,
//!   O(log m), and the map holds open bins only.
//! * [`IndexedMff`] — the paper's MFF (§4.4) on two class-segregated
//!   residual trees, one per size class. Classification picks the tree;
//!   within a tree the query is the same leftmost descent as indexed FF,
//!   which matches naive MFF because MFF *is* First Fit restricted to
//!   same-tag bins and each tree holds only the bins of its class.
//!
//! ## Vector demands
//!
//! Every structure is generic over the [`Demand`] type. For `D > 1` the
//! segment tree's internal nodes hold the componentwise **join** (per-
//! dimension max) of their children, which over-approximates feasibility:
//! `s ⊑ join(a, b)` does not imply `s ⊑ a ∨ s ⊑ b`, so the descent
//! backtracks when both children's subtrees turn out infeasible. At `D = 1`
//! the join *is* the max and the subtree bound is exact, so the descent
//! never backtracks and is byte-identical (decisions and complexity) to the
//! scalar tree. Indexed BF buckets by the L1 total and re-checks
//! componentwise fit against the stored per-bin level, which degenerates to
//! the pure range query at `D = 1` where total-feasibility implies fit.
//!
//! All three return `false` from [`BinSelector::needs_views`], so the
//! engine skips open-bin view maintenance entirely and the whole arrival
//! path runs in O(log m).
//!
//! [`FirstFit`]: super::FirstFit
//! [`BestFit`]: super::BestFit
//! [`name`]: BinSelector::name

use super::modified_first_fit::{ItemClass, ModifiedFirstFit, LARGE_TAG, SMALL_TAG};
use crate::bin::{BinId, BinTag, GOpenBinView};
use crate::demand::Demand;
use crate::item::{GArrivingItem, Size};
use crate::packer::{BinSelector, Decision};
use crate::ratio::Ratio;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

/// Max-residual segment tree over open-bin slots, generic over the demand
/// type.
///
/// Slots hold bins in increasing id order (`ids[slot]`), so the leftmost
/// fitting slot is the lowest-id fitting open bin; hooks find a bin's slot
/// by binary search. A closed bin leaves a tombstone slot with the all-zero
/// residual (which no item fits, since item sizes are validated positive),
/// and tombstones are compacted away once they make up half the slots, so
/// the tree holds O(open bins) leaves however many ids were ever issued.
/// Leaves hold residuals; internal nodes hold the componentwise join
/// (per-dimension max) of their subtrees.
#[derive(Debug, Clone, Default)]
struct ResidualTree<Sz> {
    /// 1-based heap layout; `tree[leaves + slot]` is the slot's residual.
    tree: Vec<Sz>,
    /// Number of leaves (a power of two, or 0 before the first insert).
    leaves: usize,
    /// Bin id of each used slot, strictly increasing.
    ids: Vec<u32>,
    /// Whether each used slot is a closed bin's tombstone.
    dead: Vec<bool>,
    /// Number of tombstones in `dead`.
    tombstones: usize,
}

impl<Sz: Demand> ResidualTree<Sz> {
    /// Fewest leaves the tree is built with.
    const MIN_LEAVES: usize = 64;

    /// Smallest open bin id whose residual fits `s` componentwise (`s`
    /// validated nonzero). The join bound is exact at `D = 1` (no
    /// backtracking, the classic leftmost descent); at higher dimensions
    /// the descent backtracks out of subtrees whose join was feasible only
    /// as a mixture of different leaves.
    fn first_fitting(&self, s: Sz) -> Option<u32> {
        if self.leaves == 0 || !s.fits_within(self.tree[1]) {
            return None;
        }
        let mut node = 1usize;
        loop {
            if node < self.leaves {
                // Internal node known feasible: try the left child first.
                let left = 2 * node;
                node = if s.fits_within(self.tree[left]) {
                    left
                } else {
                    left + 1
                };
                if s.fits_within(self.tree[node]) {
                    continue;
                }
                // Right child infeasible after a failed left probe (only
                // possible at D > 1): backtrack to the nearest ancestor
                // whose right sibling is untried and feasible.
                loop {
                    let from_left = node.is_multiple_of(2);
                    node /= 2;
                    if node == 0 {
                        return None;
                    }
                    if from_left && s.fits_within(self.tree[2 * node + 1]) {
                        node = 2 * node + 1;
                        break;
                    }
                }
            } else {
                return Some(self.ids[node - self.leaves]);
            }
        }
    }

    /// Set open bin `id`'s residual, giving it a slot if it has none.
    fn set(&mut self, id: u32, residual: Sz) {
        match self.ids.binary_search(&id) {
            Ok(slot) => {
                debug_assert!(!self.dead[slot], "bin ids are never reused");
                self.write(slot, residual);
            }
            Err(slot) => self.insert(slot, id, residual),
        }
    }

    /// Set bin `id`'s residual if it holds a live slot; returns whether it
    /// did.
    fn update(&mut self, id: u32, residual: Sz) -> bool {
        match self.ids.binary_search(&id) {
            Ok(slot) if !self.dead[slot] => {
                self.write(slot, residual);
                true
            }
            _ => false,
        }
    }

    /// Close bin `id`: its slot becomes a tombstone. Ids without a live
    /// slot (never opened here, or already closed) are ignored.
    fn close(&mut self, id: u32) {
        let Ok(slot) = self.ids.binary_search(&id) else {
            return;
        };
        if self.dead[slot] {
            return;
        }
        self.dead[slot] = true;
        self.tombstones += 1;
        self.write(slot, Sz::ZERO);
        if 2 * self.tombstones >= self.ids.len() && self.ids.len() >= Self::MIN_LEAVES / 2 {
            self.rebuild(None);
        }
    }

    /// Give `id` the slot `slot` (its sorted position). Ids arrive in
    /// increasing order except for delayed boots under fault injection,
    /// which shift the later slots right.
    fn insert(&mut self, slot: usize, id: u32, residual: Sz) {
        if self.ids.len() == self.leaves {
            self.rebuild(Some((id, residual)));
            return;
        }
        if slot == self.ids.len() {
            self.ids.push(id);
            self.dead.push(false);
            self.write(slot, residual);
            return;
        }
        self.ids.insert(slot, id);
        self.dead.insert(slot, false);
        let used = self.ids.len();
        let leaves = self.leaves;
        self.tree
            .copy_within(leaves + slot..leaves + used - 1, leaves + slot + 1);
        self.tree[leaves + slot] = residual;
        self.build_internal();
    }

    /// Overwrite a slot's residual and refresh its ancestors.
    fn write(&mut self, slot: usize, residual: Sz) {
        let mut node = self.leaves + slot;
        self.tree[node] = residual;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].join(self.tree[2 * node + 1]);
        }
    }

    /// Drop the tombstones (adding `extra`, in id order) and re-lay the
    /// tree with room for twice the live slots.
    fn rebuild(&mut self, extra: Option<(u32, Sz)>) {
        let mut slots: Vec<(u32, Sz)> = (0..self.ids.len())
            .filter(|&slot| !self.dead[slot])
            .map(|slot| (self.ids[slot], self.tree[self.leaves + slot]))
            .collect();
        if let Some((id, residual)) = extra {
            let at = slots.partition_point(|&(other, _)| other < id);
            slots.insert(at, (id, residual));
        }
        let leaves = (2 * slots.len()).next_power_of_two().max(Self::MIN_LEAVES);
        self.tree = vec![Sz::ZERO; 2 * leaves];
        self.leaves = leaves;
        for (slot, &(_, residual)) in slots.iter().enumerate() {
            self.tree[leaves + slot] = residual;
        }
        self.ids = slots.iter().map(|&(id, _)| id).collect();
        self.dead = vec![false; slots.len()];
        self.tombstones = 0;
        self.build_internal();
    }

    fn build_internal(&mut self) {
        for node in (1..self.leaves).rev() {
            self.tree[node] = self.tree[2 * node].join(self.tree[2 * node + 1]);
        }
    }

    /// Bin `id`'s current residual (all-zero if it has no live slot).
    #[cfg(test)]
    fn get(&self, id: u32) -> Sz {
        match self.ids.binary_search(&id) {
            Ok(slot) if !self.dead[slot] => self.tree[self.leaves + slot],
            _ => Sz::ZERO,
        }
    }
}

/// First Fit answered from a segment tree: same decisions as
/// [`FirstFit`](super::FirstFit), O(log m) per arrival. Scalar via the
/// [`IndexedFirstFit`] alias.
#[derive(Debug, Clone, Default)]
pub struct GIndexedFirstFit<Sz> {
    tree: ResidualTree<Sz>,
    capacity: Option<Sz>,
}

/// The scalar indexed First Fit of the paper's model.
pub type IndexedFirstFit = GIndexedFirstFit<Size>;

impl<Sz: Demand> GIndexedFirstFit<Sz> {
    /// Create an indexed First Fit selector.
    pub fn new() -> GIndexedFirstFit<Sz> {
        GIndexedFirstFit {
            tree: ResidualTree::default(),
            capacity: None,
        }
    }

    fn residual(&self, level: Sz) -> Sz {
        self.capacity
            .expect("hook before the first select call")
            .sub(level)
    }
}

impl<Sz: Demand> BinSelector<Sz> for GIndexedFirstFit<Sz> {
    fn name(&self) -> &'static str {
        // Deliberately the naive selector's name: this *is* First Fit, so
        // traces (which carry the algorithm name) stay byte-identical.
        "FF"
    }

    fn select(
        &mut self,
        _bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        debug_assert!(!item.size.is_zero(), "zero-size items break the 0-sentinel");
        self.capacity = Some(capacity);
        match self.tree.first_fitting(item.size) {
            Some(id) => Decision::Use(BinId(id)),
            None => Decision::OPEN,
        }
    }

    fn needs_views(&self) -> bool {
        false
    }

    fn on_decision_replayed(
        &mut self,
        _item: &GArrivingItem<Sz>,
        _decision: Decision,
        capacity: Sz,
    ) {
        // `select` learns the capacity on its first call; replay must seed
        // it the same way or the hooks below cannot compute residuals.
        self.capacity = Some(capacity);
    }

    fn on_bin_opened(&mut self, bin: BinId, _tag: BinTag, level: Sz) {
        self.tree.set(bin.0, self.residual(level));
    }

    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        self.tree.set(bin.0, self.residual(level));
    }

    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        self.tree.set(bin.0, self.residual(level));
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        // Also reached for ids burned by failed boots (never opened), which
        // have no slot to close.
        self.tree.close(bin.0);
    }

    fn is_any_fit(&self) -> bool {
        true
    }
}

/// Best Fit answered from a level-keyed order: same decisions as
/// [`BestFit`](super::BestFit), O(log m) per arrival. Scalar via the
/// [`IndexedBestFit`] alias.
///
/// Both structures hold open bins only, so the index is O(open bins)
/// however many bin ids were ever issued.
#[derive(Debug, Clone, Default)]
pub struct GIndexedBestFit<Sz> {
    /// Open bins keyed `(L1 level total, Reverse(id))` with their
    /// componentwise level: walking a range backwards visits the fullest
    /// total first and, within a total, the earliest-opened bin.
    by_level: BTreeMap<(u128, Reverse<u32>), Sz>,
    /// Current componentwise level of each open bin, for O(1) lookup of
    /// the key a bin must leave on update.
    level_of: HashMap<u32, Sz>,
}

/// The scalar indexed Best Fit of the paper's model.
pub type IndexedBestFit = GIndexedBestFit<Size>;

impl<Sz: Demand> GIndexedBestFit<Sz> {
    /// Create an indexed Best Fit selector.
    pub fn new() -> GIndexedBestFit<Sz> {
        GIndexedBestFit {
            by_level: BTreeMap::new(),
            level_of: HashMap::new(),
        }
    }

    /// Re-key `bin` at `new_level`, or drop it when it closes (`None`).
    /// Ids that were never opened here are ignored.
    fn move_bin(&mut self, bin: BinId, new_level: Option<Sz>) {
        let old = match new_level {
            Some(level) => self.level_of.insert(bin.0, level),
            None => self.level_of.remove(&bin.0),
        };
        if let Some(old) = old {
            self.by_level.remove(&(old.total(), Reverse(bin.0)));
        }
        if let Some(level) = new_level {
            self.by_level.insert((level.total(), Reverse(bin.0)), level);
        }
    }
}

impl<Sz: Demand> BinSelector<Sz> for GIndexedBestFit<Sz> {
    fn name(&self) -> &'static str {
        // Deliberately the naive selector's name — see IndexedFirstFit.
        "BF"
    }

    fn select(
        &mut self,
        _bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        // A fitting bin satisfies level_d ≤ W_d − s_d in every dimension,
        // hence total(level) ≤ total(W) − total(s): the range query below is
        // a sound upper bound, exact at D = 1. If s exceeds W in some
        // dimension no bin can ever fit and BF opens (and the engine will
        // reject the overflow, same as with the naive selector).
        if !item.size.fits_within(capacity) {
            return Decision::OPEN;
        }
        let bound = capacity.total() - item.size.total();
        // Fullest-first, earliest-id within a total — exactly the order
        // naive generic BF (argmin by Reverse(total), ties to lowest id)
        // inspects candidates. The componentwise re-check only rejects at
        // D > 1; at D = 1 the first candidate always fits.
        // `Reverse(0)` is the greatest id key, so the range ends after
        // every bin whose total is exactly `bound`.
        for (&(_, Reverse(id)), level) in self.by_level.range(..=(bound, Reverse(0))).rev() {
            if level
                .checked_add(item.size)
                .is_some_and(|l| l.fits_within(capacity))
            {
                return Decision::Use(BinId(id));
            }
        }
        Decision::OPEN
    }

    fn needs_views(&self) -> bool {
        false
    }

    fn on_bin_opened(&mut self, bin: BinId, _tag: BinTag, level: Sz) {
        self.move_bin(bin, Some(level));
    }

    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        self.move_bin(bin, Some(level));
    }

    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        self.move_bin(bin, Some(level));
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        self.move_bin(bin, None);
    }

    fn is_any_fit(&self) -> bool {
        true
    }
}

/// Modified First Fit answered from two class-segregated residual trees:
/// same decisions as [`ModifiedFirstFit`], O(log m) per arrival. Scalar via
/// the [`IndexedMff`] alias.
///
/// Classification is delegated to an inner naive [`ModifiedFirstFit`] so
/// the exact-rational threshold arithmetic has a single home. Each class
/// keeps its own [`ResidualTree`] holding only that class's open bins, so
/// the leftmost-fitting query within a tree is exactly naive MFF's "first
/// same-tag bin that fits" scan.
#[derive(Debug, Clone)]
pub struct GIndexedMff<Sz> {
    inner: ModifiedFirstFit,
    large: ResidualTree<Sz>,
    small: ResidualTree<Sz>,
    capacity: Option<Sz>,
}

/// The scalar indexed MFF of the paper's model.
pub type IndexedMff = GIndexedMff<Size>;

impl<Sz: Demand> GIndexedMff<Sz> {
    /// Indexed MFF with an integer `k ≥ 2` (the paper's µ-oblivious
    /// setting is `k = 8`).
    ///
    /// # Panics
    /// Panics if `k < 2`, same contract as [`ModifiedFirstFit::new`].
    pub fn new(k: u64) -> GIndexedMff<Sz> {
        GIndexedMff::from_inner(ModifiedFirstFit::new(k))
    }

    /// Indexed MFF with a rational `k = num/den > 1`.
    ///
    /// # Panics
    /// Same contract as [`ModifiedFirstFit::with_rational_k`].
    pub fn with_rational_k(num: u64, den: u64) -> GIndexedMff<Sz> {
        GIndexedMff::from_inner(ModifiedFirstFit::with_rational_k(num, den))
    }

    /// The semi-online setting: µ known, `k = µ + 7`.
    pub fn for_known_mu(mu: u64) -> GIndexedMff<Sz> {
        GIndexedMff::from_inner(ModifiedFirstFit::for_known_mu(mu))
    }

    fn from_inner(inner: ModifiedFirstFit) -> GIndexedMff<Sz> {
        GIndexedMff {
            inner,
            large: ResidualTree::default(),
            small: ResidualTree::default(),
            capacity: None,
        }
    }

    /// The classification threshold parameter `k`, exactly.
    pub fn k(&self) -> Ratio {
        self.inner.k()
    }

    fn residual(&self, level: Sz) -> Sz {
        self.capacity
            .expect("hook before the first select call")
            .sub(level)
    }

    fn tree_of(&mut self, class: ItemClass) -> &mut ResidualTree<Sz> {
        match class {
            ItemClass::Large => &mut self.large,
            ItemClass::Small => &mut self.small,
        }
    }

    /// Re-publish bin's residual into the class tree holding it (no-op
    /// for ids neither tree holds, which cannot hold items).
    fn update(&mut self, bin: BinId, level: Sz) {
        let residual = self.residual(level);
        if !self.large.update(bin.0, residual) {
            self.small.update(bin.0, residual);
        }
    }
}

impl<Sz: Demand> BinSelector<Sz> for GIndexedMff<Sz> {
    fn name(&self) -> &'static str {
        // Deliberately the naive selector's name — see IndexedFirstFit.
        "MFF"
    }

    fn select(
        &mut self,
        _bins: &[GOpenBinView<Sz>],
        item: &GArrivingItem<Sz>,
        capacity: Sz,
    ) -> Decision {
        debug_assert!(!item.size.is_zero(), "zero-size items break the 0-sentinel");
        self.capacity = Some(capacity);
        let class = self.inner.classify(item.size, capacity);
        let tree = match class {
            ItemClass::Large => &self.large,
            ItemClass::Small => &self.small,
        };
        match tree.first_fitting(item.size) {
            Some(id) => Decision::Use(BinId(id)),
            None => Decision::Open { tag: class.tag() },
        }
    }

    fn needs_views(&self) -> bool {
        false
    }

    fn on_decision_replayed(
        &mut self,
        _item: &GArrivingItem<Sz>,
        _decision: Decision,
        capacity: Sz,
    ) {
        // Seed the capacity exactly as `select` would — see IndexedFirstFit.
        self.capacity = Some(capacity);
    }

    fn on_bin_opened(&mut self, bin: BinId, tag: BinTag, level: Sz) {
        let class = match tag {
            LARGE_TAG => ItemClass::Large,
            SMALL_TAG => ItemClass::Small,
            other => unreachable!("MFF opened a bin with foreign tag {other:?}"),
        };
        let residual = self.residual(level);
        self.tree_of(class).set(bin.0, residual);
    }

    fn on_item_placed(&mut self, bin: BinId, level: Sz) {
        self.update(bin, level);
    }

    fn on_item_departed(&mut self, bin: BinId, level: Sz) {
        self.update(bin, level);
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        // A bin lives in one tree at most; burned ids (failed boots) close
        // without ever opening and are in neither.
        self.large.close(bin.0);
        self.small.close(bin.0);
    }

    // MFF is NOT Any Fit: it refuses cross-class placements.
    fn is_any_fit(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BestFit, FirstFit};
    use crate::demand::VSize;
    use crate::engine::{any_fit_violations, simulate_validated};
    use crate::instance::InstanceBuilder;

    #[test]
    fn residual_tree_leftmost_query() {
        let mut t = ResidualTree::<Size>::default();
        assert_eq!(t.first_fitting(Size(1)), None);
        t.set(0, Size(3));
        t.set(1, Size(7));
        t.set(2, Size(7));
        assert_eq!(t.first_fitting(Size(1)), Some(0));
        assert_eq!(t.first_fitting(Size(4)), Some(1));
        assert_eq!(t.first_fitting(Size(8)), None);
        t.set(1, Size(0)); // close bin 1
        assert_eq!(t.first_fitting(Size(4)), Some(2));
        assert_eq!(t.get(1), Size(0));
        // Grow past the initial allocation and query across the boundary.
        t.set(1000, Size(9));
        assert_eq!(t.first_fitting(Size(8)), Some(1000));
        assert_eq!(t.get(1000), Size(9));
    }

    #[test]
    fn residual_tree_backtracks_at_higher_dims() {
        // join(leaf0, leaf1) = [5,5] claims feasibility for [4,4], but no
        // single leaf fits — the descent must backtrack past both and land
        // on leaf 2.
        let mut t = ResidualTree::<VSize<2>>::default();
        t.set(0, VSize([5, 1]));
        t.set(1, VSize([1, 5]));
        t.set(2, VSize([4, 4]));
        assert_eq!(t.first_fitting(VSize([4, 4])), Some(2));
        assert_eq!(t.first_fitting(VSize([5, 1])), Some(0));
        assert_eq!(t.first_fitting(VSize([0, 5])), Some(1));
        assert_eq!(t.first_fitting(VSize([5, 5])), None);
        t.set(2, VSize([0, 0]));
        assert_eq!(t.first_fitting(VSize([4, 4])), None);
    }

    /// Reference model: open bin id → residual; the answer is the
    /// smallest fitting id.
    fn model_first_fitting(model: &BTreeMap<u32, Size>, s: Size) -> Option<u32> {
        model
            .iter()
            .find(|(_, r)| s.fits_within(**r))
            .map(|(&id, _)| id)
    }

    #[test]
    fn residual_tree_matches_a_sorted_model_under_any_open_order() {
        use rand::{RngExt, SeedableRng};
        for seed in 0..40 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut t = ResidualTree::<Size>::default();
            let mut model: BTreeMap<u32, Size> = BTreeMap::new();
            let mut next_id = 0u32;
            let mut delayed: Vec<u32> = Vec::new();
            for _ in 0..600 {
                match rng.random_range(0..10u32) {
                    // Open the next id, or hold it back as a delayed boot.
                    0..=2 => {
                        let id = next_id;
                        next_id += 1;
                        if rng.random_bool(0.3) {
                            delayed.push(id);
                        } else {
                            let r = Size(rng.random_range(0..=10u64));
                            t.set(id, r);
                            model.insert(id, r);
                        }
                    }
                    // A delayed boot comes up: out of id order.
                    3 if !delayed.is_empty() => {
                        let id = delayed.swap_remove(rng.random_range(0..delayed.len()));
                        let r = Size(rng.random_range(0..=10u64));
                        t.set(id, r);
                        model.insert(id, r);
                    }
                    4..=6 if !model.is_empty() => {
                        let k = rng.random_range(0..model.len());
                        let id = *model.keys().nth(k).unwrap();
                        let r = Size(rng.random_range(0..=10u64));
                        t.set(id, r);
                        model.insert(id, r);
                    }
                    _ => {
                        // Close an open bin, or an id that never opened.
                        let id = if model.is_empty() || rng.random_bool(0.1) {
                            next_id + rng.random_range(0..5u32)
                        } else {
                            let k = rng.random_range(0..model.len());
                            *model.keys().nth(k).unwrap()
                        };
                        t.close(id);
                        model.remove(&id);
                    }
                }
                for s in 1..=11 {
                    assert_eq!(
                        t.first_fitting(Size(s)),
                        model_first_fitting(&model, Size(s)),
                        "seed {seed}, size {s}"
                    );
                }
                for (&id, &r) in &model {
                    assert_eq!(t.get(id), r);
                }
            }
        }
    }

    #[test]
    fn residual_tree_holds_o_open_bins_leaves() {
        // Whatever the open/close sequence, the leaves never exceed
        // max(MIN_LEAVES, 8 · bins open now), so with at most K bins open
        // the tree holds O(K) leaves however many ids were ever issued.
        use rand::{RngExt, SeedableRng};
        for k in [1usize, 3, 17, 200] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(k as u64);
            let mut t = ResidualTree::<Size>::default();
            let mut open: Vec<u32> = Vec::new();
            let mut next_id = 0u32;
            for _ in 0..20_000 {
                if open.len() < k && (open.is_empty() || rng.random_bool(0.5)) {
                    t.set(next_id, Size(5));
                    open.push(next_id);
                    next_id += 1;
                } else {
                    let id = open.swap_remove(rng.random_range(0..open.len()));
                    t.close(id);
                }
                let bound = ResidualTree::<Size>::MIN_LEAVES.max(8 * open.len());
                assert!(
                    t.leaves <= bound,
                    "K={k}: {} leaves for {} open bins",
                    t.leaves,
                    open.len()
                );
                assert_eq!(t.ids.len() - t.tombstones, open.len());
            }
            assert!(next_id as usize > 20 * t.leaves.max(1) || k == 200);
        }
    }

    #[test]
    fn residual_tree_backtracks_after_out_of_order_opens() {
        let mut t = ResidualTree::<VSize<2>>::default();
        t.set(4, VSize([4, 4]));
        t.set(0, VSize([5, 1]));
        t.set(2, VSize([1, 5]));
        assert_eq!(t.first_fitting(VSize([4, 4])), Some(4));
        assert_eq!(t.first_fitting(VSize([1, 1])), Some(0));
        t.close(0);
        assert_eq!(t.first_fitting(VSize([1, 1])), Some(2));
    }

    fn churny_instance() -> crate::instance::Instance {
        // Interleaved arrivals/departures with ties in level and id, exact
        // fills, and bins that close and make ids stale.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6); // b0
        b.add(0, 4, 6); // b1, closes at 4
        b.add(2, 8, 4); // fills b0 exactly
        b.add(3, 6, 5); // new bin
        b.add(5, 9, 6); // arrives after b1 closed
        b.add(5, 9, 5); // tie candidates
        b.add(6, 9, 5);
        b.add(8, 12, 2);
        b.build().unwrap()
    }

    #[test]
    fn indexed_ff_matches_naive_on_fixture() {
        let inst = churny_instance();
        let naive = simulate_validated(&inst, &mut FirstFit::new());
        let indexed = simulate_validated(&inst, &mut IndexedFirstFit::new());
        assert_eq!(naive, indexed);
        assert!(any_fit_violations(&inst, &indexed).is_empty());
    }

    #[test]
    fn indexed_bf_matches_naive_on_fixture() {
        let inst = churny_instance();
        let naive = simulate_validated(&inst, &mut BestFit::new());
        let indexed = simulate_validated(&inst, &mut IndexedBestFit::new());
        assert_eq!(naive, indexed);
        assert!(any_fit_violations(&inst, &indexed).is_empty());
    }

    #[test]
    fn indexed_bf_tie_breaks_to_earliest_bin() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 7); // b0 level 7
        b.add(1, 10, 7); // 7+7 > 10 -> b1 level 7
        b.add(2, 10, 2); // tie at level 7 -> b0
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut IndexedBestFit::new());
        assert_eq!(trace.bin_of(crate::item::ItemId(2)), BinId(0));
    }

    #[test]
    fn indexed_bf_holds_only_open_bins() {
        // A long churn of one-item bins: ids climb into the thousands while
        // at most three bins are open at once, and the index tracks only
        // those.
        let mut bf = IndexedBestFit::new();
        for id in 0..3_000u32 {
            let item = GArrivingItem {
                id: crate::item::ItemId(id),
                arrival: crate::time::Tick(id as u64),
                size: Size(8),
                region: crate::item::RegionId::GLOBAL,
            };
            assert_eq!(bf.select(&[], &item, Size(10)), Decision::OPEN);
            bf.on_bin_opened(BinId(id), BinTag::DEFAULT, Size(8));
            if id >= 3 {
                bf.on_item_departed(BinId(id - 3), Size(0));
                bf.on_bin_closed(BinId(id - 3));
            }
            assert!(bf.level_of.len() <= 3);
            assert_eq!(bf.by_level.len(), bf.level_of.len());
        }
    }

    #[test]
    fn indexed_mff_matches_naive_on_fixture() {
        let inst = churny_instance();
        let naive = simulate_validated(&inst, &mut ModifiedFirstFit::new(8));
        let indexed = simulate_validated(&inst, &mut IndexedMff::new(8));
        assert_eq!(naive, indexed);
    }

    #[test]
    fn indexed_mff_matches_naive_with_mixed_classes() {
        // W = 10, k = 2 -> threshold 5: the fixture's sizes straddle it, so
        // both trees see churn, exact fills, and closes.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 9, 6); // large -> b0
        b.add(0, 4, 3); // small -> b1, closes at 4
        b.add(1, 8, 5); // large, doesn't fit b0 -> b2
        b.add(2, 7, 2); // small, fits b1
        b.add(3, 6, 4); // small, 3+2+4 > 10 -> new small bin
        b.add(5, 9, 5); // large, fits b2 after nothing departed? 5+5=10 exact
        b.add(6, 9, 1); // small, b1 closed at 4 -> earliest open small bin
        let inst = b.build().unwrap();
        let naive = simulate_validated(&inst, &mut ModifiedFirstFit::new(2));
        let indexed = simulate_validated(&inst, &mut IndexedMff::new(2));
        assert_eq!(naive, indexed);
        for bin in &indexed.bins {
            assert!(bin.tag == LARGE_TAG || bin.tag == SMALL_TAG);
        }
    }

    #[test]
    fn indexed_mff_keeps_classes_separate() {
        // Large item leaves room, but the small item must open its own bin
        // (mirrors the naive engine_tests fixture).
        let mut b = InstanceBuilder::new(80);
        b.add(0, 10, 20); // large (threshold 10)
        b.add(1, 10, 5); // small
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut IndexedMff::new(8));
        assert_eq!(trace.bins_used(), 2);
        assert_eq!(trace.bins[0].tag, LARGE_TAG);
        assert_eq!(trace.bins[1].tag, SMALL_TAG);
    }

    #[test]
    fn indexed_selectors_skip_view_maintenance() {
        assert!(!IndexedFirstFit::new().needs_views());
        assert!(!IndexedBestFit::new().needs_views());
        assert!(!IndexedMff::new(8).needs_views());
        assert!(<FirstFit as BinSelector<Size>>::needs_views(
            &FirstFit::new()
        ));
    }

    #[test]
    fn indexed_mff_reports_k_exactly() {
        assert_eq!(IndexedMff::for_known_mu(10).k(), Ratio::from_int(17));
        assert_eq!(IndexedMff::with_rational_k(3, 2).k(), Ratio::new(3, 2));
    }

    #[test]
    fn hooks_tolerate_burned_ids() {
        // Fault injection may close an id that never opened.
        let mut ff = IndexedFirstFit::new();
        ff.capacity = Some(Size(10));
        ff.on_bin_closed(BinId(17));
        let mut bf = IndexedBestFit::new();
        bf.on_bin_closed(BinId(17));
        let mut mff = IndexedMff::new(8);
        mff.capacity = Some(Size(10));
        mff.on_bin_closed(BinId(17));
    }
}
