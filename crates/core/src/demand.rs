//! Multi-resource demands: the vector generalization of [`Size`].
//!
//! The source paper models each request as one scalar demand. Real cloud
//! sessions are constrained by GPU *and* CPU *and* RAM simultaneously — the
//! Dynamic Vector Bin Packing setting (Murhekar et al., arXiv:2304.08648).
//! This module makes the whole engine stack generic over a [`Demand`]
//! trait with two implementors:
//!
//! * [`Size`] — the scalar demand of the paper, unchanged in layout,
//!   arithmetic and serde format;
//! * [`VSize<D>`] — a const-generic demand vector `[u64; D]`, one
//!   component per resource dimension.
//!
//! ## The D=1 degeneracy guarantee
//!
//! Every generalized operation reduces *exactly* to its scalar meaning at
//! `D = 1`:
//!
//! * feasibility is the **intersection** of per-dimension feasibility
//!   ([`Demand::fits_within`] is componentwise `≤`), which at one
//!   dimension is the scalar `level + size ≤ W` test;
//! * Best-Fit-style fullness comparisons use the exact L1 norm
//!   ([`Demand::total`], a `u128` so no overflow), which at one dimension
//!   *is* the level;
//! * Modified First Fit's large/small threshold is "large in **some**
//!   dimension" via the exact rational test `s_d·k_num ≥ W_d·k_den`, which
//!   at one dimension is the paper's `s ≥ W/k`;
//! * index structures order on componentwise maxima ([`Demand::join`]),
//!   which at one dimension is the plain max.
//!
//! The `vector_equivalence` differential suite pins this down: a `VSize<1>`
//! run is byte-identical — traces, probe streams, digests, bills — to the
//! scalar run on the same seed.

use crate::item::Size;
use core::fmt;
use core::hash::Hash;
use serde::{de::DeserializeOwned, Deserialize, Serialize};

/// A packable demand: scalar [`Size`] or vector [`VSize<D>`].
///
/// All arithmetic is exact-integer and componentwise; comparisons that
/// drive packing decisions go through the explicit methods below (never
/// through `Ord`, which is lexicographic on vectors and only used for
/// stable container keys).
pub trait Demand:
    Copy
    + Clone
    + PartialEq
    + Eq
    + PartialOrd
    + Ord
    + Hash
    + fmt::Debug
    + fmt::Display
    + Default
    + Serialize
    + DeserializeOwned
    + Send
    + Sync
    + 'static
{
    /// Number of resource dimensions.
    const DIMS: usize;

    /// The all-zero demand.
    const ZERO: Self;

    /// Whether every component is zero (the "no demand at all" test used
    /// by instance validation; a *mixed* demand with some zero components
    /// is legal — a CPU-only job has zero GPU demand).
    fn is_zero(&self) -> bool;

    /// Whether any component is zero (used to reject degenerate
    /// capacities: a bin must have positive capacity in every dimension).
    fn has_zero_component(&self) -> bool;

    /// Componentwise overflow-checked addition; `None` if any dimension
    /// overflows.
    fn checked_add(self, other: Self) -> Option<Self>;

    /// Componentwise subtraction.
    ///
    /// # Panics
    /// Panics on underflow in any dimension.
    fn sub(self, other: Self) -> Self;

    /// Componentwise saturating subtraction.
    fn saturating_sub(self, other: Self) -> Self;

    /// Componentwise `self ≤ cap` — vector feasibility as the
    /// **intersection** of per-dimension feasibility.
    fn fits_within(self, cap: Self) -> bool;

    /// Componentwise maximum — the lattice join used by the indexed
    /// selectors' residual trees.
    fn join(self, other: Self) -> Self;

    /// Exact L1 norm `Σ_d self_d`, widened to `u128` so `D · u64::MAX`
    /// cannot overflow.
    fn total(&self) -> u128;

    /// The largest component.
    fn max_component(&self) -> u64;

    /// Component `d` (`d < DIMS`).
    ///
    /// # Panics
    /// Panics if `d ≥ DIMS`.
    fn component(&self, d: usize) -> u64;

    /// Build a demand from a component slice; `None` when
    /// `components.len() != DIMS` (the serve-protocol arity check).
    fn from_components(components: &[u64]) -> Option<Self>;

    /// The components as a vec (for metrics labels and wire encodings).
    fn components(&self) -> Vec<u64> {
        (0..Self::DIMS).map(|d| self.component(d)).collect()
    }

    /// A demand with every component equal to `v` — how scalar-shaped
    /// workloads and capacities broadcast into vector space.
    fn splat(v: u64) -> Self;

    /// Exact-rational threshold test of Modified First Fit, generalized:
    /// whether `self ≥ cap·(den/num)` **in some dimension**, i.e.
    /// `∃d: self_d · num ≥ cap_d · den`. At `D = 1` this is the paper's
    /// scalar `s ≥ W/k` test with `num = k_den·k`, exactly.
    fn any_component_ge_frac(&self, cap: &Self, num: u128, den: u128) -> bool {
        (0..Self::DIMS).any(|d| self.component(d) as u128 * num >= cap.component(d) as u128 * den)
    }
}

impl Demand for Size {
    const DIMS: usize = 1;
    const ZERO: Size = Size(0);

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn has_zero_component(&self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn checked_add(self, other: Size) -> Option<Size> {
        Size::checked_add(self, other)
    }

    #[inline]
    fn sub(self, other: Size) -> Size {
        self - other
    }

    #[inline]
    fn saturating_sub(self, other: Size) -> Size {
        Size::saturating_sub(self, other)
    }

    #[inline]
    fn fits_within(self, cap: Size) -> bool {
        self <= cap
    }

    #[inline]
    fn join(self, other: Size) -> Size {
        Size(self.0.max(other.0))
    }

    #[inline]
    fn total(&self) -> u128 {
        self.0 as u128
    }

    #[inline]
    fn max_component(&self) -> u64 {
        self.0
    }

    #[inline]
    fn component(&self, d: usize) -> u64 {
        assert!(d < 1, "scalar Size has one dimension, asked for {d}");
        self.0
    }

    fn from_components(components: &[u64]) -> Option<Size> {
        match components {
            [v] => Some(Size(*v)),
            _ => None,
        }
    }

    #[inline]
    fn splat(v: u64) -> Size {
        Size(v)
    }
}

/// A const-generic demand vector: one `u64` per resource dimension
/// (e.g. `VSize<3>` for GPU/CPU/RAM). Serializes as a plain JSON array
/// `[g, c, m]` — except at `D = 1`, where it serializes as the bare
/// number so a one-dimensional run is byte-identical to the scalar
/// [`Size`] format (and v1 scalar payloads deserialize unchanged).
///
/// The derived `Ord` is lexicographic and exists only so `VSize` can key
/// ordered containers; packing decisions use [`Demand`] methods, which
/// are componentwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VSize<const D: usize>(pub [u64; D]);

impl<const D: usize> Serialize for VSize<D> {
    fn to_value(&self) -> serde::Value {
        if D == 1 {
            serde::Value::UInt(self.0[0] as u128)
        } else {
            serde::Value::Seq(
                self.0
                    .iter()
                    .map(|&c| serde::Value::UInt(c as u128))
                    .collect(),
            )
        }
    }
}

impl<const D: usize> Deserialize for VSize<D> {
    fn deserialize<'de, R: serde::de::Read<'de>>(r: &mut R) -> Result<Self, serde::Error> {
        match r.peek()? {
            serde::de::Kind::Seq => {
                r.seq_begin()?;
                let mut out = [0u64; D];
                let mut n = 0;
                while r.seq_next()? {
                    match out.get_mut(n) {
                        Some(slot) => *slot = u64::deserialize(r)?,
                        None => r.skip()?,
                    }
                    n += 1;
                }
                if n != D {
                    return Err(serde::Error::custom(format!(
                        "demand vector has {n} dimension(s), expected {D}"
                    )));
                }
                Ok(VSize(out))
            }
            // Scalar back-compat: a bare number is a 1-vector.
            _ if D == 1 => {
                let mut out = [0u64; D];
                out[0] = u64::deserialize(r)?;
                Ok(VSize(out))
            }
            other => Err(serde::de::mismatch(
                &format!("demand vector of {D} dimension(s)"),
                other,
            )),
        }
    }
}

impl<const D: usize> VSize<D> {
    /// The raw component array.
    #[inline]
    pub const fn raw(self) -> [u64; D] {
        self.0
    }
}

impl<const D: usize> Default for VSize<D> {
    fn default() -> VSize<D> {
        VSize([0; D])
    }
}

impl<const D: usize> fmt::Display for VSize<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl<const D: usize> Demand for VSize<D> {
    const DIMS: usize = D;
    const ZERO: VSize<D> = VSize([0; D]);

    #[inline]
    fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }

    #[inline]
    fn has_zero_component(&self) -> bool {
        self.0.contains(&0)
    }

    #[inline]
    fn checked_add(self, other: VSize<D>) -> Option<VSize<D>> {
        let mut out = [0u64; D];
        for ((o, &a), &b) in out.iter_mut().zip(&self.0).zip(&other.0) {
            *o = a.checked_add(b)?;
        }
        Some(VSize(out))
    }

    #[inline]
    fn sub(self, other: VSize<D>) -> VSize<D> {
        let mut out = [0u64; D];
        for ((o, &a), &b) in out.iter_mut().zip(&self.0).zip(&other.0) {
            *o = a.checked_sub(b).expect("VSize - VSize underflow");
        }
        VSize(out)
    }

    #[inline]
    fn saturating_sub(self, other: VSize<D>) -> VSize<D> {
        let mut out = [0u64; D];
        for ((o, &a), &b) in out.iter_mut().zip(&self.0).zip(&other.0) {
            *o = a.saturating_sub(b);
        }
        VSize(out)
    }

    #[inline]
    fn fits_within(self, cap: VSize<D>) -> bool {
        (0..D).all(|d| self.0[d] <= cap.0[d])
    }

    #[inline]
    fn join(self, other: VSize<D>) -> VSize<D> {
        let mut out = [0u64; D];
        for ((o, &a), &b) in out.iter_mut().zip(&self.0).zip(&other.0) {
            *o = a.max(b);
        }
        VSize(out)
    }

    #[inline]
    fn total(&self) -> u128 {
        self.0.iter().map(|&v| v as u128).sum()
    }

    #[inline]
    fn max_component(&self) -> u64 {
        self.0.iter().copied().max().unwrap_or(0)
    }

    #[inline]
    fn component(&self, d: usize) -> u64 {
        self.0[d]
    }

    fn from_components(components: &[u64]) -> Option<VSize<D>> {
        <[u64; D]>::try_from(components).ok().map(VSize)
    }

    #[inline]
    fn splat(v: u64) -> VSize<D> {
        VSize([v; D])
    }
}

/// The scalar value of a one-dimensional vector demand.
#[inline]
pub fn scalar_of(v: VSize<1>) -> Size {
    Size(v.0[0])
}

/// Lift a scalar demand into one-dimensional vector space.
#[inline]
pub fn vec1_of(s: Size) -> VSize<1> {
    VSize([s.0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_demand_matches_size_semantics() {
        assert_eq!(<Size as Demand>::DIMS, 1);
        assert!(Demand::is_zero(&Size(0)));
        assert!(!Demand::is_zero(&Size(3)));
        assert!(Size(3).fits_within(Size(3)));
        assert!(!Size(4).fits_within(Size(3)));
        assert_eq!(Size(3).join(Size(7)), Size(7));
        assert_eq!(Size(5).total(), 5);
        assert_eq!(Size::from_components(&[9]), Some(Size(9)));
        assert_eq!(Size::from_components(&[9, 9]), None);
    }

    #[test]
    fn vector_componentwise_ops() {
        let a = VSize([3, 0, 7]);
        let b = VSize([1, 2, 7]);
        assert!(!a.is_zero());
        assert!(a.has_zero_component());
        assert!(VSize::<3>::ZERO.is_zero());
        assert_eq!(a.checked_add(b), Some(VSize([4, 2, 14])));
        assert_eq!(VSize([u64::MAX, 0]).checked_add(VSize([1, 0])), None);
        assert_eq!(a.join(b), VSize([3, 2, 7]));
        assert_eq!(a.total(), 10);
        assert_eq!(a.max_component(), 7);
        assert!(b.fits_within(VSize([1, 2, 7])));
        assert!(!a.fits_within(b));
        assert_eq!(a.sub(VSize([1, 0, 7])), VSize([2, 0, 0]));
        assert_eq!(VSize([1, 5]).saturating_sub(VSize([3, 1])), VSize([0, 4]));
        assert_eq!(VSize::<2>::splat(4), VSize([4, 4]));
    }

    #[test]
    fn vector_serde_is_a_plain_array() {
        let v = VSize([6, 2]);
        assert_eq!(serde_json::to_string(&v).unwrap(), "[6,2]");
        let back: VSize<2> = serde_json::from_str("[6,2]").unwrap();
        assert_eq!(back, v);
        assert!(serde_json::from_str::<VSize<2>>("[6,2,1]").is_err());
        // Scalar Size keeps its transparent format.
        assert_eq!(serde_json::to_string(&Size(6)).unwrap(), "6");
    }

    #[test]
    fn mff_threshold_reduces_to_scalar_at_d1() {
        // s ≥ W/k with W=100, k=8 → threshold 12.5: 13 is large, 12 small.
        let cap = Size(100);
        assert!(Size(13).any_component_ge_frac(&cap, 8, 1));
        assert!(!Size(12).any_component_ge_frac(&cap, 8, 1));
        // Vector: large in *some* dimension suffices.
        let vcap = VSize([100, 10]);
        assert!(VSize([1, 9]).any_component_ge_frac(&vcap, 8, 1));
        assert!(!VSize([12, 1]).any_component_ge_frac(&vcap, 8, 1));
    }

    #[test]
    fn d1_conversions_round_trip() {
        assert_eq!(scalar_of(vec1_of(Size(42))), Size(42));
        assert_eq!(vec1_of(Size(7)).total(), Size(7).total());
    }
}
