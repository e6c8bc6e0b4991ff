//! Threshold-aware early-abandoning exact kernels.
//!
//! REPOSE's lower bounds decide *which* candidates to verify; these kernels
//! make each verification itself threshold-aware. Every `*_within(t1, t2,
//! threshold)` function returns
//!
//! * `Some(d)` with `d` **identical** (bit-for-bit) to the unbounded kernel
//!   whenever the true distance `d < threshold`, and
//! * `None` whenever the true distance is `>= threshold`,
//!
//! so a caller holding a running top-k threshold `dk` can substitute
//! `distance_within(.., dk)` for `distance(..)` without changing any query
//! result — while paying far less than the full `O(m·n)` cost on candidates
//! that were never going to make the top-k.
//!
//! Two mechanisms provide the savings:
//!
//! 1. A cheap **prefilter** ([`crate::MeasureParams::cascade_lower_bound`],
//!    or [`crate::MeasureParams::lower_bound`] without stored summaries):
//!    MBR/endpoint/gap-sum lower bounds that skip the dynamic program
//!    entirely for candidates that cannot beat the threshold.
//! 2. **Row-wise abandoning** inside the exact computation: Hausdorff stops
//!    as soon as any point's nearest-neighbour distance reaches the
//!    threshold; Frechet/DTW/ERP/EDR stop when an entire DP row/column
//!    minimum reaches it (sound because their per-row minima never decrease
//!    as more rows are added — costs are max-monotone or additive
//!    non-negative); LCSS stops when the best still-achievable match count
//!    cannot beat the threshold.

use crate::dtw::{dtw_advance, dtw_advance2};
use crate::frechet::{frechet_advance, frechet_advance2};
use crate::DistScratch;
use repose_model::Point;

/// Safety factor applied to prefilter bounds before they may reject a
/// candidate. The geometric/triangle-inequality bounds are exact in real
/// arithmetic but may exceed the DP's value by a few ulps in floating
/// point; shrinking them by one part in 10⁹ keeps the `Some`/`None`
/// contract airtight at any realistic coordinate magnitude.
const LB_SAFETY: f64 = 1.0 - 1e-9;

/// The smallest `f64` strictly greater than `x`, for non-negative `x`
/// (`x.next_up()`, with infinity and NaN passed through).
///
/// Callers that need *inclusive* semantics — "keep every candidate with
/// `d <= dk`", as the baselines' final range passes do — get them by
/// passing `just_above(dk)` as the strict `distance_within` threshold.
pub fn just_above(x: f64) -> f64 {
    debug_assert!(x >= 0.0 || x.is_nan(), "just_above is for non-negative thresholds");
    x.next_up()
}

/// Distance between two empty-or-not slices following the convention every
/// unbounded kernel uses for empty inputs, filtered by the threshold.
fn empty_case(both_zero: bool, threshold: f64) -> Option<f64> {
    let d = if both_zero { 0.0 } else { f64::INFINITY };
    (d < threshold).then_some(d)
}

/// A live, monotonically tightening source of a top-k pruning threshold,
/// shared between concurrently executing local searches.
///
/// The contract every implementation must keep, because searchers prune
/// with whatever [`ThresholdSource::bound`] returns:
///
/// * `bound()` is always a **sound upper bound on the global k-th
///   distance** over everything published so far (and hence over the final
///   answer — adding candidates only lowers the k-th distance);
/// * `bound()` is **monotone non-increasing** across calls;
/// * `publish` accepts only **exact** distances of real candidates (never
///   lower bounds), and publishing the same candidate id twice must not
///   tighten the bound further (one trajectory occupies one result slot).
///
/// `repose_rptrie::SharedTopK` is the canonical implementation; the
/// refinement loop below and the trie search both consult one through this
/// trait so a hit found anywhere prunes everywhere.
pub trait ThresholdSource: Sync {
    /// Current upper bound on the global k-th distance. Reading a stale
    /// value is sound (bounds only ever tighten).
    fn bound(&self) -> f64;
    /// Publishes the exact distance of candidate `id`.
    fn publish(&self, dist: f64, id: u64);
}

/// A fixed threshold: `bound()` is the value itself and `publish` is a
/// no-op, so a search run against `&f64::INFINITY` (or any static cap) is
/// a plain, unshared one.
impl ThresholdSource for f64 {
    fn bound(&self) -> f64 {
        *self
    }
    fn publish(&self, _dist: f64, _id: u64) {}
}

/// A bounded result heap maintaining the running top-k cutoff that every
/// threshold-aware verification site shares: a max-heap over the current
/// best `k` `(distance, id)` pairs, worst on top, ties evicting the larger
/// id — the order the canonical ascending `(distance, id)` sort implies.
///
/// The serving layer's delta scan and the baselines' refinement passes both
/// drive `distance_within` off this structure: score a candidate with
/// threshold [`just_above`]`(kth())` (so equal-distance ties still get
/// scored and resolve by id exactly as a full sort would), `push` on
/// `Some`, and stop early once even a candidate's lower bound exceeds
/// `kth()`.
#[derive(Debug)]
pub struct RunningTopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstEntry>,
}

#[derive(Debug)]
struct WorstEntry {
    dist: f64,
    id: u64,
}
impl PartialEq for WorstEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.id == other.id
    }
}
impl Eq for WorstEntry {}
impl PartialOrd for WorstEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist).then_with(|| self.id.cmp(&other.id))
    }
}

impl RunningTopK {
    /// An empty heap that will retain the best `k` entries.
    pub fn new(k: usize) -> Self {
        RunningTopK { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    /// Number of entries currently held (at most `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entry has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The k-th (worst retained) distance once `k` entries are held —
    /// the running cutoff. `None` while the heap is still filling (every
    /// candidate must still be scored exactly).
    #[inline]
    pub fn kth(&self) -> Option<f64> {
        (self.heap.len() == self.k).then(|| self.heap.peek().expect("full heap").dist)
    }

    /// Offers an exactly-scored entry, evicting the worst when over `k`.
    #[inline]
    pub fn push(&mut self, dist: f64, id: u64) {
        if self.k == 0 {
            return;
        }
        self.heap.push(WorstEntry { dist, id });
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// Consumes the heap, ascending by `(distance, id)`.
    pub fn into_sorted(self) -> Vec<(f64, u64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|w| (w.dist, w.id))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Hausdorff
// ---------------------------------------------------------------------------

/// One directed pass `max_{a in from} min_{b in to} d²(a, b)` with two
/// abandons:
///
/// * **row irrelevance** — once a row's running minimum drops to the
///   current max (`worst`), the row cannot raise the max; stop scanning it
///   (the classic early-break directed Hausdorff).
/// * **threshold abandon** — a completed row minimum `>= thr_sq` proves the
///   directed (hence the symmetric) distance is `>= threshold`.
///
/// The inner row is consumed in chunks of 8 contiguous points with a
/// branch-free running minimum, so the distance loop vectorizes; the
/// irrelevance break is re-checked at chunk granularity. Decisions and
/// values are identical to the point-at-a-time loop: a chunk only ever
/// *extends* a row past where the early break would have fired, and an
/// extended scan can only lower `best` further below `worst` — the
/// skip/abandon outcome and the recorded row minima are unchanged
/// (`f64` min is order-independent for the non-NaN distances here).
fn directed_within_sq(from: &[Point], to: &[Point], thr_sq: f64) -> Option<f64> {
    let mut worst = 0.0f64;
    for a in from {
        let mut best = f64::INFINITY;
        for chunk in to.chunks(8) {
            let mut m = f64::INFINITY;
            for b in chunk {
                let d = a.dist_sq(b);
                m = if d < m { d } else { m };
            }
            if m < best {
                best = m;
            }
            if best <= worst {
                break; // row can no longer raise the max
            }
        }
        if best > worst {
            if best >= thr_sq {
                return None;
            }
            worst = best;
        }
    }
    Some(worst)
}

/// Early-abandoning Hausdorff distance (see module docs for the contract).
pub fn hausdorff_within(t1: &[Point], t2: &[Point], threshold: f64) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None; // distances are non-negative
    }
    crate::backend::simd_dispatch!(hausdorff_within(t1, t2, threshold));
    hausdorff_within_scalar(t1, t2, threshold)
}

/// The scalar [`hausdorff_within`] body (the oracle the SIMD backends are
/// tested against).
pub(crate) fn hausdorff_within_scalar(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
) -> Option<f64> {
    let thr_sq = if threshold < f64::MAX.sqrt() {
        threshold * threshold
    } else {
        f64::INFINITY
    };
    let a = directed_within_sq(t1, t2, thr_sq)?;
    let b = directed_within_sq(t2, t1, thr_sq)?;
    let d = a.max(b).sqrt();
    (d < threshold).then_some(d)
}

/// [`hausdorff_within`] with the uniform scratch-threaded signature. The
/// directed passes keep only O(1) state, so the scratch is unused — the
/// kernel was already allocation-free.
pub fn hausdorff_within_in(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    _scratch: &mut DistScratch,
) -> Option<f64> {
    hausdorff_within(t1, t2, threshold)
}

// ---------------------------------------------------------------------------
// Frechet / DTW — shared column-kernel shape
// ---------------------------------------------------------------------------

/// Early-abandoning discrete Frechet distance.
///
/// Sound because the column minimum `cmin` never decreases as reference
/// points are appended (each new entry takes a `max` with a predecessor
/// minimum) and the final `f_{m,n}` is an element of the last column.
pub fn frechet_within(t1: &[Point], t2: &[Point], threshold: f64) -> Option<f64> {
    DistScratch::with_thread(|s| frechet_within_in(t1, t2, threshold, s))
}

/// [`frechet_within`] against a caller-managed scratch: zero heap
/// allocations once `scratch` is warm.
///
/// Like [`crate::frechet_in`], the DP runs in squared-distance space; the
/// per-column abandon check takes one square root (of the column minimum)
/// instead of one per cell, and decides identically to the linear-space
/// kernel because IEEE `sqrt` is monotone and correctly rounded.
pub fn frechet_within_in(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    crate::backend::simd_dispatch!(frechet_within(t1, t2, threshold, scratch));
    frechet_within_scalar_in(t1, t2, threshold, scratch)
}

/// The scalar [`frechet_within_in`] body (the oracle the SIMD backends are
/// tested against).
pub(crate) fn frechet_within_scalar_in(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let col = scratch.f1_uninit(t1.len());
    let (p0, rest) = t2.split_first().expect("non-empty");
    let cmin_sq = frechet_advance(col, true, t1, |q| q.dist_sq(p0));
    if cmin_sq.sqrt() >= threshold {
        return None;
    }
    // Pairs of columns (two interleaved chains, bit-identical cells);
    // the two column minima are checked in column order, so the abandon
    // decision matches the one-column-at-a-time kernel exactly.
    let mut pairs = rest.chunks_exact(2);
    for pair in &mut pairs {
        let (c1, c2) =
            frechet_advance2(col, t1, |q| q.dist_sq(&pair[0]), |q| q.dist_sq(&pair[1]));
        if c1.sqrt() >= threshold || c2.sqrt() >= threshold {
            return None;
        }
    }
    for p in pairs.remainder() {
        let cmin_sq = frechet_advance(col, false, t1, |q| q.dist_sq(p));
        if cmin_sq.sqrt() >= threshold {
            return None;
        }
    }
    let d = col[col.len() - 1].sqrt();
    (d < threshold).then_some(d)
}

/// Early-abandoning DTW.
///
/// Sound because ground costs are non-negative: every entry of column
/// `j + 1` is `cost + min(three column-j/j+1 predecessors)`, so the column
/// minimum never decreases and the final `f_{m,n}` is at least every
/// column's minimum.
pub fn dtw_within(t1: &[Point], t2: &[Point], threshold: f64) -> Option<f64> {
    DistScratch::with_thread(|s| dtw_within_in(t1, t2, threshold, s))
}

/// [`dtw_within`] against a caller-managed scratch: zero heap allocations
/// once `scratch` is warm.
pub fn dtw_within_in(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        return empty_case(t1.is_empty() && t2.is_empty(), threshold);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    crate::backend::simd_dispatch!(dtw_within(t1, t2, threshold, scratch));
    dtw_within_scalar_in(t1, t2, threshold, scratch)
}

/// The scalar [`dtw_within_in`] body (the oracle the SIMD backends are
/// tested against).
pub(crate) fn dtw_within_scalar_in(
    t1: &[Point],
    t2: &[Point],
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let col = scratch.f1_uninit(t1.len());
    let (p0, rest) = t2.split_first().expect("non-empty");
    let cmin = dtw_advance(col, true, t1, |q| q.dist(p0));
    if cmin >= threshold {
        return None;
    }
    // See `frechet_within_in`: paired columns, abandon checks in order.
    let mut pairs = rest.chunks_exact(2);
    for pair in &mut pairs {
        let (c1, c2) = dtw_advance2(col, t1, |q| q.dist(&pair[0]), |q| q.dist(&pair[1]));
        if c1 >= threshold || c2 >= threshold {
            return None;
        }
    }
    for p in pairs.remainder() {
        let cmin = dtw_advance(col, false, t1, |q| q.dist(p));
        if cmin >= threshold {
            return None;
        }
    }
    let d = col[col.len() - 1];
    (d < threshold).then_some(d)
}

// ---------------------------------------------------------------------------
// ERP
// ---------------------------------------------------------------------------

/// Early-abandoning ERP with gap point `gap`.
///
/// The DP mirrors [`crate::erp`] exactly (same expressions, same order, so
/// surviving values are bit-identical); after each row the running row
/// minimum is checked. All edit costs are non-negative, so row minima are
/// non-decreasing and the final value dominates every row minimum.
pub fn erp_within(t1: &[Point], t2: &[Point], gap: Point, threshold: f64) -> Option<f64> {
    DistScratch::with_thread(|s| erp_within_in(t1, t2, gap, threshold, s))
}

/// [`erp_within`] against a caller-managed scratch: zero heap allocations
/// once `scratch` is warm (and, like [`crate::erp_in`], the gap distances
/// are evaluated once per call instead of once per cell).
pub fn erp_within_in(
    t1: &[Point],
    t2: &[Point],
    gap: Point,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let (m, n) = (t1.len(), t2.len());
    if m == 0 {
        let d: f64 = t2.iter().map(|p| p.dist(&gap)).sum();
        return (d < threshold).then_some(d);
    }
    if n == 0 {
        let d: f64 = t1.iter().map(|p| p.dist(&gap)).sum();
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    crate::backend::simd_dispatch!(erp_within(t1, t2, gap, threshold, scratch));
    erp_within_scalar_in(t1, t2, gap, threshold, scratch)
}

/// The scalar [`erp_within_in`] body (the oracle the SIMD backends are
/// tested against).
pub(crate) fn erp_within_scalar_in(
    t1: &[Point],
    t2: &[Point],
    gap: Point,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let n = t2.len();
    let (mut prev, mut cur, gap_b) = scratch.f3_uninit(n + 1, n + 1, n);
    for (g, p) in gap_b.iter_mut().zip(t2) {
        *g = p.dist(&gap);
    }
    prev[0] = 0.0;
    for j in 0..n {
        prev[j + 1] = prev[j] + gap_b[j];
    }
    for a in t1 {
        let gap_a = a.dist(&gap);
        // Register-carried cursors over zipped rows (see `erp_in`).
        let mut left = prev[0] + gap_a;
        cur[0] = left;
        let mut diag = prev[0];
        let mut row_min = left;
        for ((b, gb), (&up, c)) in t2
            .iter()
            .zip(gap_b.iter())
            .zip(prev[1..].iter().zip(cur[1..].iter_mut()))
        {
            let v = (diag + a.dist(b)).min(up + gap_a).min(left + gb);
            *c = v;
            diag = up;
            left = v;
            if v < row_min {
                row_min = v;
            }
        }
        if row_min >= threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[n];
    (d < threshold).then_some(d)
}

// ---------------------------------------------------------------------------
// EDR
// ---------------------------------------------------------------------------

/// Early-abandoning EDR with matching threshold `eps`.
///
/// Same row-minimum argument as ERP (unit edit costs are non-negative).
pub fn edr_within(t1: &[Point], t2: &[Point], eps: f64, threshold: f64) -> Option<f64> {
    DistScratch::with_thread(|s| edr_within_in(t1, t2, eps, threshold, s))
}

/// [`edr_within`] against a caller-managed scratch: zero heap allocations
/// once `scratch` is warm.
pub fn edr_within_in(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let (m, n) = (t1.len(), t2.len());
    if m == 0 || n == 0 {
        let d = (m + n) as f64;
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    crate::backend::simd_dispatch!(edr_within(t1, t2, eps, threshold, scratch));
    edr_within_scalar_in(t1, t2, eps, threshold, scratch)
}

/// The scalar [`edr_within_in`] body (the oracle the SIMD backends are
/// tested against).
pub(crate) fn edr_within_scalar_in(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let n = t2.len();
    let (mut prev, mut cur) = scratch.u2_uninit(n + 1, n + 1);
    for (j, p) in prev.iter_mut().enumerate() {
        *p = j as u32;
    }
    for (i, a) in t1.iter().enumerate() {
        // Register-carried cursors over zipped rows (see `edr_in`).
        let mut left = i as u32 + 1;
        cur[0] = left;
        let mut diag = prev[0];
        let mut row_min = left;
        for (b, (&up, c)) in t2.iter().zip(prev[1..].iter().zip(cur[1..].iter_mut())) {
            let subcost =
                u32::from(!((a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps));
            let v = (diag + subcost).min(up + 1).min(left + 1);
            *c = v;
            diag = up;
            left = v;
            row_min = row_min.min(v);
        }
        if f64::from(row_min) >= threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = f64::from(prev[n]);
    (d < threshold).then_some(d)
}

// ---------------------------------------------------------------------------
// LCSS
// ---------------------------------------------------------------------------

/// Early-abandoning LCSS distance with matching threshold `eps`.
///
/// After consuming `i + 1` of `m` rows, the final match count is at most
/// `cur[n] + (m - 1 - i)` (appending one point grows an LCS by at most
/// one), so the best achievable distance is known mid-DP; abandon when even
/// that cannot beat the threshold.
pub fn lcss_distance_within(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
) -> Option<f64> {
    DistScratch::with_thread(|s| lcss_distance_within_in(t1, t2, eps, threshold, s))
}

/// [`lcss_distance_within`] against a caller-managed scratch: zero heap
/// allocations once `scratch` is warm.
pub fn lcss_distance_within_in(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    if t1.is_empty() || t2.is_empty() {
        let d = if t1.is_empty() && t2.is_empty() { 0.0 } else { 1.0 };
        return (d < threshold).then_some(d);
    }
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    crate::backend::simd_dispatch!(lcss_within(t1, t2, eps, threshold, scratch));
    lcss_distance_within_scalar_in(t1, t2, eps, threshold, scratch)
}

/// The scalar [`lcss_distance_within_in`] body (the oracle the SIMD
/// backends are tested against).
pub(crate) fn lcss_distance_within_scalar_in(
    t1: &[Point],
    t2: &[Point],
    eps: f64,
    threshold: f64,
    scratch: &mut DistScratch,
) -> Option<f64> {
    let (m, n) = (t1.len(), t2.len());
    let minlen = m.min(n);
    let (mut prev, mut cur) = scratch.u2(n + 1, n + 1);
    for (i, a) in t1.iter().enumerate() {
        // Register-carried cursors over zipped rows (see `lcss_length_in`).
        let mut left = 0u32;
        let mut diag = prev[0];
        for (b, (&up, c)) in t2.iter().zip(prev[1..].iter().zip(cur[1..].iter_mut())) {
            let v = if (a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps {
                diag + 1
            } else {
                up.max(left)
            };
            *c = v;
            diag = up;
            left = v;
        }
        // LCS rows are non-decreasing left-to-right, so cur[n] is the row
        // maximum; each remaining row can add at most one match.
        let achievable = (cur[n] as usize + (m - 1 - i)).min(minlen);
        if 1.0 - achievable as f64 / minlen as f64 >= threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let l = prev[n] as f64;
    let d = 1.0 - l / t1.len().min(t2.len()) as f64;
    (d < threshold).then_some(d)
}

// ---------------------------------------------------------------------------
// Prefilter decisions
// ---------------------------------------------------------------------------

/// Applies the prefilter: `true` when a lower bound (shrunk by the
/// floating-point safety margin) already proves the distance is at or above
/// the threshold, so the kernel need not run. Verification sites use it to
/// count the candidates a bound refuted on its own.
pub fn prefilter_rejects(lb: f64, threshold: f64) -> bool {
    lb * LB_SAFETY >= threshold
}

/// Whether a [`crate::MeasureParams::lower_bound`] value proves the exact
/// distance is *strictly above* `cutoff` — with the same floating-point
/// safety margin the `distance_within` prefilter applies, so an
/// ulp-overshooting bound can never disqualify a candidate whose true
/// distance is at or below the cutoff.
///
/// This is the correct test for skipping candidates in a scan that keeps
/// everything with `distance <= cutoff` (the running-top-k loops of the
/// serving layer and the baselines): sorted by lower bound, the scan may
/// stop at the first candidate for which this returns `true`.
pub fn bound_exceeds(lb: f64, cutoff: f64) -> bool {
    lb * LB_SAFETY > cutoff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dtw, edr, erp, frechet, hausdorff, lcss_distance};

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    const G: Point = Point::new(0.0, 0.0);

    fn fixtures() -> Vec<(Vec<Point>, Vec<Point>)> {
        vec![
            (
                pts(&[(0.5, 6.5), (2.5, 6.5), (4.5, 6.5)]),
                pts(&[(0.5, 7.5), (2.5, 7.5), (6.5, 7.5), (6.5, 4.5)]),
            ),
            (
                pts(&[(0.0, 0.0), (1.0, 1.0)]),
                pts(&[(10.0, 10.0), (11.0, 10.0), (12.0, 11.0)]),
            ),
            (pts(&[(3.0, 3.0)]), pts(&[(3.0, 3.0)])),
            (
                pts(&[(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)]),
                pts(&[(0.1, 0.1), (5.1, 0.1), (5.1, 5.1)]),
            ),
        ]
    }

    #[test]
    fn hausdorff_within_agrees_bitwise() {
        for (a, b) in fixtures() {
            let d = hausdorff(&a, &b);
            for thr in [d * 0.5, d, d * 1.5 + 0.1, f64::INFINITY] {
                let got = hausdorff_within(&a, &b, thr);
                if d < thr {
                    assert_eq!(got.map(f64::to_bits), Some(d.to_bits()));
                } else {
                    assert_eq!(got, None);
                }
            }
        }
    }

    type WithinFn = fn(&[Point], &[Point], f64) -> Option<f64>;

    #[test]
    fn dp_kernels_agree_bitwise() {
        for (a, b) in fixtures() {
            let cases: [(f64, WithinFn); 2] = [
                (frechet(&a, &b), frechet_within),
                (dtw(&a, &b), dtw_within),
            ];
            for (d, f) in cases {
                for thr in [d * 0.5, d, d * 2.0 + 0.1, f64::INFINITY] {
                    let got = f(&a, &b, thr);
                    if d < thr {
                        assert_eq!(got.map(f64::to_bits), Some(d.to_bits()));
                    } else {
                        assert_eq!(got, None);
                    }
                }
            }
            let d = erp(&a, &b, G);
            assert_eq!(
                erp_within(&a, &b, G, f64::INFINITY).map(f64::to_bits),
                Some(d.to_bits())
            );
            assert_eq!(erp_within(&a, &b, G, d), None);
            for eps in [0.2, 1.5] {
                let d = edr(&a, &b, eps);
                assert_eq!(
                    edr_within(&a, &b, eps, d + 0.5).map(f64::to_bits),
                    Some(d.to_bits())
                );
                assert_eq!(edr_within(&a, &b, eps, d), None);
                let d = lcss_distance(&a, &b, eps);
                assert_eq!(
                    lcss_distance_within(&a, &b, eps, d.next_up()).map(f64::to_bits),
                    Some(d.to_bits())
                );
                assert_eq!(lcss_distance_within(&a, &b, eps, d), None);
            }
        }
    }

    #[test]
    fn empty_inputs_follow_unbounded_conventions() {
        let a = pts(&[(1.0, 2.0)]);
        assert_eq!(hausdorff_within(&[], &[], 0.5), Some(0.0));
        assert_eq!(hausdorff_within(&a, &[], 1e300), None); // infinity never beats
        assert_eq!(frechet_within(&[], &a, f64::INFINITY), None);
        assert_eq!(dtw_within(&[], &[], 0.1), Some(0.0));
        assert_eq!(erp_within(&a, &[], G, 3.0), Some(a[0].dist(&G)));
        assert_eq!(edr_within(&a, &[], 0.1, 2.0), Some(1.0));
        assert_eq!(edr_within(&a, &[], 0.1, 1.0), None);
        assert_eq!(lcss_distance_within(&a, &[], 0.1, 2.0), Some(1.0));
        assert_eq!(lcss_distance_within(&[], &[], 0.1, 0.5), Some(0.0));
    }

    #[test]
    fn non_positive_thresholds_reject_everything() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(hausdorff_within(&a, &a, 0.0), None);
        assert_eq!(dtw_within(&a, &a, -1.0), None);
        assert_eq!(frechet_within(&a, &a, f64::NAN), None);
        assert_eq!(erp_within(&a, &a, G, 0.0), None);
        assert_eq!(edr_within(&a, &a, 0.1, 0.0), None);
        assert_eq!(lcss_distance_within(&a, &a, 0.1, 0.0), None);
    }

    #[test]
    fn just_above_is_the_successor() {
        assert!(just_above(0.0) > 0.0);
        let x = 3.75f64;
        assert!(just_above(x) > x);
        assert_eq!(just_above(x).next_down(), x);
        assert_eq!(just_above(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn prefilters_lower_bound_the_exact_distances() {
        for (a, b) in fixtures() {
            for eps in [0.2, 1.5] {
                let params = crate::MeasureParams::with_eps(eps);
                for m in crate::Measure::ALL {
                    let lb = params.lower_bound(m, &a, &b);
                    assert!(lb <= params.distance(m, &a, &b) + 1e-9, "{m}");
                }
            }
        }
    }

    #[test]
    fn prefilter_separated_trajectories_without_dp() {
        // Far apart: the MBR bound alone proves the distance exceeds 1.0.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(100.0, 100.0), (101.0, 100.0)]);
        let lb = crate::MeasureParams::default().lower_bound(crate::Measure::Hausdorff, &a, &b);
        assert!(lb > 100.0);
        assert!(prefilter_rejects(lb, 1.0));
        assert!(!prefilter_rejects(lb, 1e6));
    }
}
