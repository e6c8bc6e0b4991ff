//! Precomputed per-trajectory prefilter summaries and the staged lower
//! bound every verification site puts in front of the exact kernel.
//!
//! A [`TrajSummary`] captures, *once at index-build (or delta-insert)
//! time*, the aggregates the prefilter bounds need: the bounding
//! rectangle, the two endpoints, the ERP gap-distance sum, and the point
//! count. [`MeasureParams::cascade_lower_bound`] then refutes a candidate
//! in up to three stages, each run only while the bound so far is still
//! below the live threshold (the UCR-suite cascade of Rakthanmanon et al.,
//! KDD 2012, on trajectory summaries):
//!
//! 1. `O(1)` — both summaries ([`MeasureParams::summary_lower_bound`]);
//! 2. `O(m)` — the query's points against the candidate's summary
//!    ([`MeasureParams::stage_lower_bound`]), never touching candidate
//!    points;
//! 3. `O(n)` — the candidate's points against the query's summary (the
//!    same function, roles swapped).
//!
//! [`MeasureParams::lower_bound`] is the maximum of the same three stages
//! over summaries computed on the fly.

use crate::within::prefilter_rejects;
use crate::{Measure, MeasureParams};
use repose_model::{Mbr, Point};

/// The prefilter aggregates of one trajectory (see module docs).
///
/// `gap_sum` is parameter-dependent (it is `Σ d(p, erp_gap)`): a summary
/// must be built and consumed under the same [`MeasureParams`].
/// `repr(C)` with an explicit tail filler so the 80-byte record has no
/// compiler-inserted padding: summary tables are archived and checksummed
/// byte-for-byte, and uninitialized padding would make that both undefined
/// behaviour and nondeterministic.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[repr(C)]
pub struct TrajSummary {
    /// Bounding rectangle (degenerate at the origin for empty inputs).
    pub mbr: Mbr,
    /// First point (origin for empty inputs).
    pub first: Point,
    /// Last point (origin for empty inputs).
    pub last: Point,
    /// `Σ d(p, erp_gap)` — the ERP distance to the empty trajectory.
    pub gap_sum: f64,
    /// Number of points.
    pub len: u32,
    /// Explicit tail filler (always 0) in place of compiler padding, so
    /// every byte of an archived record is initialized and deterministic.
    pub pad: u32,
}

// SAFETY: `repr(C)`; fields are f64/u32 records with the tail padding made
// explicit (asserted in tests), so there are no uninitialized bytes and
// any bit pattern is a valid value.
unsafe impl repose_succinct::Pod for TrajSummary {}

/// Whether no point of `a` can `ε`-match any point of `b` under the
/// per-dimension test LCSS and EDR use (their expanded boxes are disjoint
/// in some dimension).
fn boxes_cannot_match(a: &Mbr, b: &Mbr, eps: f64) -> bool {
    a.min.x - b.max.x > eps
        || b.min.x - a.max.x > eps
        || a.min.y - b.max.y > eps
        || b.min.y - a.max.y > eps
}

/// Whether `p` could `ε`-match *any* point inside `mbr` under the
/// per-dimension test LCSS and EDR use.
fn could_match(p: Point, mbr: &Mbr, eps: f64) -> bool {
    p.x >= mbr.min.x - eps
        && p.x <= mbr.max.x + eps
        && p.y >= mbr.min.y - eps
        && p.y <= mbr.max.y + eps
}

/// The summary of `t` with `gap_sum` left at 0: everything but the ERP
/// gap sum, which costs a square root per point.
fn shape_summary(t: &[Point]) -> TrajSummary {
    match Mbr::from_points(t) {
        Some(mbr) => TrajSummary {
            mbr,
            first: t[0],
            last: *t.last().expect("non-empty"),
            gap_sum: 0.0,
            len: t.len() as u32,
            pad: 0,
        },
        None => {
            let o = Point::new(0.0, 0.0);
            TrajSummary { mbr: Mbr::new(o, o), first: o, last: o, gap_sum: 0.0, len: 0, pad: 0 }
        }
    }
}

impl MeasureParams {
    /// Builds the prefilter summary of `t` (see [`TrajSummary`]).
    pub fn summary_of(&self, t: &[Point]) -> TrajSummary {
        TrajSummary {
            gap_sum: t.iter().map(|p| p.dist(&self.erp_gap)).sum(),
            ..shape_summary(t)
        }
    }

    /// `O(m + n)` lower bound on the exact distance under `measure` (the
    /// `distance_within` prefilter): the maximum of every stage of
    /// [`MeasureParams::cascade_lower_bound`] over summaries computed on
    /// the fly. Useful for ordering candidates so that a running top-k
    /// threshold tightens as fast as possible before exact scoring.
    pub fn lower_bound(&self, measure: Measure, t1: &[Point], t2: &[Point]) -> f64 {
        // Only ERP's summary stage reads the gap sums.
        let summarize = |t| match measure {
            Measure::Erp => self.summary_of(t),
            _ => shape_summary(t),
        };
        let (s1, s2) = (summarize(t1), summarize(t2));
        self.summary_lower_bound(measure, &s1, &s2)
            .max(self.stage_lower_bound(measure, t1, &s2))
            .max(self.stage_lower_bound(measure, t2, &s1))
    }

    /// `O(1)` lower bound on the exact distance between the two summarized
    /// trajectories under `measure`.
    ///
    /// The first stage of [`MeasureParams::cascade_lower_bound`]: a weaker
    /// bound than the per-point stages, bought at constant cost.
    pub fn summary_lower_bound(&self, measure: Measure, a: &TrajSummary, b: &TrajSummary) -> f64 {
        if a.len == 0 || b.len == 0 {
            // Without points only the measures defined through lengths or
            // sums can say anything.
            return match measure {
                Measure::Erp => (a.gap_sum - b.gap_sum).abs(),
                Measure::Edr => a.len.abs_diff(b.len) as f64,
                _ => 0.0,
            };
        }
        match measure {
            // Each endpoint is a real point of its trajectory, and every
            // point of the other trajectory lies inside the other MBR, so
            // each directed `min` term is at least the point-to-rectangle
            // distance.
            Measure::Hausdorff => endpoint_mbr_bound(a, b),
            // Frechet dominates Hausdorff and must align start with start
            // and end with end.
            Measure::Frechet => endpoint_mbr_bound(a, b)
                .max(a.first.dist(&b.first))
                .max(a.last.dist(&b.last)),
            // A warping path visits every point of the longer trajectory
            // at least once, each pairing costing at least the
            // rectangle-to-rectangle distance; it also pairs the two
            // starts and the two ends.
            Measure::Dtw => {
                let rect = a.mbr.min_dist_mbr(&b.mbr);
                (a.len.max(b.len) as f64 * rect)
                    .max(a.first.dist(&b.first))
                    .max(a.last.dist(&b.last))
            }
            // Triangle inequality through the empty trajectory (Chen & Ng).
            Measure::Erp => (a.gap_sum - b.gap_sum).abs(),
            // If the ε-expanded rectangles are disjoint in a dimension, no
            // pair of points can match: LCSS length 0, distance 1.
            Measure::Lcss => {
                if boxes_cannot_match(&a.mbr, &b.mbr, self.eps) {
                    1.0
                } else {
                    0.0
                }
            }
            // Length difference always; with disjoint ε-boxes every point
            // of either trajectory costs one edit.
            Measure::Edr => {
                let len_diff = a.len.abs_diff(b.len) as f64;
                if boxes_cannot_match(&a.mbr, &b.mbr, self.eps) {
                    len_diff.max(a.len.max(b.len) as f64)
                } else {
                    len_diff
                }
            }
        }
    }

    /// The staged lower bound on the exact distance between `query` and
    /// `cand` (see the module docs): the summary bound, then
    /// [`MeasureParams::stage_lower_bound`] of the query against `csum`,
    /// then of the candidate against `qsum`. Returns as soon as the bound
    /// so far is refuted at `threshold` by the prefilter's own test
    /// ([`crate::prefilter_rejects`]), so a hopeless candidate costs `O(1)`
    /// or `O(m)` instead of `O(m + n)`.
    ///
    /// Hausdorff and Fréchet stop after the summary stage: their kernels
    /// abandon on the first row whose nearest-point distance reaches the
    /// threshold, which is the per-point stages' own test at the same
    /// cost, so the stages only added work in front of them (a net loss
    /// for both in the `kernels` experiment's cascade arm).
    ///
    /// `qsum` and `csum` must be the summaries of `query` and `cand` under
    /// these parameters. Every stage is sound on its own, so the result is
    /// a valid `lb` for [`MeasureParams::distance_within_from_lb`] and
    /// [`MeasureParams::distance_within_batch_in`]: it only moves *where*
    /// a refutation happens, never whether.
    pub fn cascade_lower_bound(
        &self,
        measure: Measure,
        query: &[Point],
        qsum: &TrajSummary,
        cand: &[Point],
        csum: &TrajSummary,
        threshold: f64,
    ) -> f64 {
        let lb = self.summary_lower_bound(measure, qsum, csum);
        if matches!(measure, Measure::Hausdorff | Measure::Frechet)
            || prefilter_rejects(lb, threshold)
        {
            return lb;
        }
        let lb = lb.max(self.stage_lower_bound(measure, query, csum));
        if prefilter_rejects(lb, threshold) {
            return lb;
        }
        lb.max(self.stage_lower_bound(measure, cand, qsum))
    }

    /// One cascade stage: a lower bound on the distance between the
    /// trajectory `pts` and the trajectory summarized by `other`, from
    /// `pts`'s points and `other`'s rectangle and endpoints alone — `O(|pts|)`.
    /// Every point of the other trajectory lies inside `other.mbr`, so a
    /// point of `pts` is at least `minDist(p, other.mbr)` from any point it
    /// is paired with. Per measure:
    ///
    /// * **Hausdorff, Fréchet** — `max_p minDist(p, mbr)`: every point of
    ///   `pts` has a nearest neighbour (Hausdorff) or a coupling partner
    ///   (Fréchet, which dominates Hausdorff) in the other trajectory.
    /// * **DTW** — `d(p₁, first) + d(p_m, last) + Σ_{i=2}^{m−1} minDist(p_i,
    ///   mbr)`: each row of a warping path holds at least one cell, row 1
    ///   holds `(1, 1)` and row `m` holds `(m, n)`; the rows are disjoint,
    ///   so these costs add (the end term is dropped when `(1, 1)` and
    ///   `(m, n)` are the same cell).
    /// * **ERP** — `Σ_p min(d(p, gap), minDist(p, mbr))`: every point is
    ///   either matched to a point of the other trajectory or gapped, once.
    /// * **EDR** — the number of points with no possible `ε`-match inside
    ///   the `ε`-expanded rectangle: each costs at least one edit.
    /// * **LCSS** — `1 − c / min(m, n)` with `c` the points that could
    ///   `ε`-match at all, which caps the common subsequence.
    ///
    /// Empty inputs yield 0 (the summary stage covers their length terms).
    pub fn stage_lower_bound(&self, measure: Measure, pts: &[Point], other: &TrajSummary) -> f64 {
        let (Some(first), Some(last)) = (pts.first(), pts.last()) else {
            return 0.0;
        };
        if other.len == 0 {
            return 0.0;
        }
        let mbr = &other.mbr;
        match measure {
            Measure::Hausdorff | Measure::Frechet => {
                pts.iter().map(|p| mbr.min_dist(*p)).fold(0.0f64, f64::max)
            }
            Measure::Dtw => {
                let mut lb = first.dist(&other.first);
                if pts.len() > 1 || other.len > 1 {
                    lb += last.dist(&other.last);
                }
                let inner = pts.get(1..pts.len() - 1).unwrap_or_default();
                lb + inner.iter().map(|p| mbr.min_dist(*p)).sum::<f64>()
            }
            Measure::Erp => pts
                .iter()
                .map(|p| p.dist(&self.erp_gap).min(mbr.min_dist(*p)))
                .sum(),
            Measure::Edr => pts.iter().filter(|p| !could_match(**p, mbr, self.eps)).count() as f64,
            Measure::Lcss => {
                let minlen = pts.len().min(other.len as usize);
                let c = pts.iter().filter(|p| could_match(**p, mbr, self.eps)).count();
                1.0 - c.min(minlen) as f64 / minlen as f64
            }
        }
    }
}

/// `max` over the four endpoint-to-rectangle distances — a lower bound on
/// the (symmetric) Hausdorff distance between the summarized trajectories.
fn endpoint_mbr_bound(a: &TrajSummary, b: &TrajSummary) -> f64 {
    b.mbr
        .min_dist(a.first)
        .max(b.mbr.min_dist(a.last))
        .max(a.mbr.min_dist(b.first))
        .max(a.mbr.min_dist(b.last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_layout_has_no_hidden_padding() {
        // mbr (4 f64) + first + last (2 f64 each) + gap_sum + len + pad.
        assert_eq!(std::mem::size_of::<TrajSummary>(), 8 * 9 + 4 + 4);
        assert_eq!(std::mem::align_of::<TrajSummary>(), 8);
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

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
            (pts(&[(2.0, 2.0)]), pts(&[(2.5, 2.0), (7.0, 7.0)])),
        ]
    }

    #[test]
    fn summary_bound_never_exceeds_exact_distance() {
        for eps in [0.2, 1.5] {
            let params = MeasureParams::with_eps(eps);
            for (a, b) in fixtures() {
                let sa = params.summary_of(&a);
                let sb = params.summary_of(&b);
                for m in Measure::ALL {
                    let lb = params.summary_lower_bound(m, &sa, &sb);
                    let d = params.distance(m, &a, &b);
                    assert!(lb <= d + 1e-9, "{m} eps={eps}: summary lb {lb} > exact {d}");
                }
            }
        }
    }

    #[test]
    fn summary_bound_never_exceeds_full_bound_usefulness() {
        // Not a soundness requirement, but the summary bound should still
        // separate far-apart trajectories (the case it exists for).
        let params = MeasureParams::with_eps(0.3);
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(100.0, 100.0), (101.0, 100.0)]);
        let (sa, sb) = (params.summary_of(&a), params.summary_of(&b));
        for m in Measure::ALL {
            let lb = params.summary_lower_bound(m, &sa, &sb);
            assert!(lb > 0.0, "{m}: separated trajectories got zero bound");
        }
    }

    #[test]
    fn empty_inputs_are_conservative() {
        let params = MeasureParams::with_eps(0.5);
        let empty = params.summary_of(&[]);
        let one = params.summary_of(&pts(&[(3.0, 4.0)]));
        assert_eq!(empty.len, 0);
        assert_eq!(params.summary_lower_bound(Measure::Hausdorff, &empty, &one), 0.0);
        assert_eq!(params.summary_lower_bound(Measure::Edr, &empty, &one), 1.0);
        // ERP to the empty trajectory is exactly the gap sum.
        assert_eq!(params.summary_lower_bound(Measure::Erp, &empty, &one), 5.0);
    }

    #[test]
    fn stages_separate_candidates_inside_overlapping_rectangles() {
        // Same bounding box, opposite directions: the summary bound sees
        // only the endpoints, the per-point DTW stages see every row.
        let params = MeasureParams::default();
        let q = pts(&[(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0)]);
        let c = pts(&[(4.0, 0.0), (0.0, 0.0), (0.0, 4.0), (4.0, 4.0)]);
        let (qs, cs) = (params.summary_of(&q), params.summary_of(&c));
        let summary = params.summary_lower_bound(Measure::Dtw, &qs, &cs);
        let full = params.cascade_lower_bound(Measure::Dtw, &q, &qs, &c, &cs, f64::INFINITY);
        assert_eq!(summary, 4.0);
        assert_eq!(full, 8.0, "first pair 4 + last pair 4, interior rows free");
        assert!(full <= params.distance(Measure::Dtw, &q, &c));
        assert_eq!(full, params.lower_bound(Measure::Dtw, &q, &c));
    }

    #[test]
    fn cascade_stops_at_the_first_refuting_stage() {
        let params = MeasureParams::default();
        let q = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let c = pts(&[(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)]);
        let (qs, cs) = (params.summary_of(&q), params.summary_of(&c));
        for m in Measure::ALL {
            // A threshold of 0 is refuted by any bound: only stage 1 runs.
            let at_zero = params.cascade_lower_bound(m, &q, &qs, &c, &cs, 0.0);
            assert_eq!(at_zero, params.summary_lower_bound(m, &qs, &cs), "{m}");
            let full = params.cascade_lower_bound(m, &q, &qs, &c, &cs, f64::INFINITY);
            assert!(full >= at_zero, "{m}");
            assert!(full <= params.lower_bound(m, &q, &c), "{m}");
            assert!(params.lower_bound(m, &q, &c) <= params.distance(m, &q, &c), "{m}");
        }
    }

    #[test]
    fn gap_sum_tracks_params() {
        let params = MeasureParams { erp_gap: Point::new(1.0, 0.0), ..Default::default() };
        let s = params.summary_of(&pts(&[(1.0, 3.0), (1.0, 4.0)]));
        assert_eq!(s.gap_sum, 7.0);
        assert_eq!(s.first, Point::new(1.0, 3.0));
        assert_eq!(s.last, Point::new(1.0, 4.0));
        assert_eq!(s.len, 2);
    }
}
