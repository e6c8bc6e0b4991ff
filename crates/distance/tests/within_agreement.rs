//! The `distance_within` contract, property-tested over all six measures:
//! for any trajectories and any threshold, the early-abandoning kernel
//! returns `Some(d)` with `d` *bit-identical* to the unbounded kernel
//! whenever `d < threshold`, and `None` exactly when the true distance is
//! `>= threshold`. This is what lets every verification site in the system
//! swap `distance` for `distance_within` without changing a single result.

use proptest::prelude::*;
use repose_distance::{bound_exceeds, DistScratch, Measure, MeasureParams};
use repose_model::Point;

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn check_contract(
    params: &MeasureParams,
    measure: Measure,
    a: &[Point],
    b: &[Point],
    threshold: f64,
) -> Result<(), TestCaseError> {
    let exact = params.distance(measure, a, b);
    let got = params.distance_within(measure, a, b, threshold);
    if exact < threshold {
        match got {
            Some(d) => prop_assert_eq!(
                d.to_bits(),
                exact.to_bits(),
                "{}: within returned {} but exact is {}",
                measure,
                d,
                exact
            ),
            None => prop_assert!(
                false,
                "{}: within abandoned although {} < {}",
                measure,
                exact,
                threshold
            ),
        }
    } else {
        prop_assert_eq!(
            got,
            None,
            "{}: within returned a value although {} >= {}",
            measure,
            exact,
            threshold
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random trajectories × random absolute thresholds.
    #[test]
    fn within_matches_unbounded_at_random_thresholds(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..12),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..12),
        threshold in 0.0f64..60.0,
        eps in 0.05f64..2.0,
        measure_idx in 0usize..6,
    ) {
        let a = pts(&xs);
        let b = pts(&ys);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(eps);
        check_contract(&params, measure, &a, &b, threshold)?;
    }

    /// Thresholds built *from the exact distance* hit the boundary cases a
    /// uniform threshold almost never finds: just below, exactly at, and
    /// just above the true distance.
    #[test]
    fn within_matches_unbounded_at_boundary_thresholds(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        eps in 0.05f64..2.0,
        measure_idx in 0usize..6,
    ) {
        let a = pts(&xs);
        let b = pts(&ys);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(eps);
        let exact = params.distance(measure, &a, &b);
        let mut thresholds = vec![exact * 0.5, exact, exact * 1.5 + 1e-9, f64::INFINITY];
        if exact > 0.0 && exact.is_finite() {
            thresholds.push(exact.next_up());
            thresholds.push(exact.next_down());
        }
        for thr in thresholds {
            check_contract(&params, measure, &a, &b, thr)?;
        }
    }

    /// The prefilter must never overshoot the exact distance (soundness of
    /// the O(m+n) lower bound each kernel consults first).
    #[test]
    fn lower_bound_never_exceeds_exact(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        ys in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        eps in 0.05f64..2.0,
        measure_idx in 0usize..6,
    ) {
        let a = pts(&xs);
        let b = pts(&ys);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(eps);
        let lb = params.lower_bound(measure, &a, &b);
        let exact = params.distance(measure, &a, &b);
        prop_assert!(
            lb <= exact + 1e-9,
            "{}: lower bound {} exceeds exact {}",
            measure,
            lb,
            exact
        );
    }
}

/// A trajectory of one of three shapes, shifted by `offset`: free points,
/// a short walk that repeats every point (duplicates), or points on one
/// line (collinear). Lengths start at 1, so the single-point and two-point
/// corner cases of the DTW endpoint terms come up often.
fn shaped(kind: usize, raw: &[(f64, f64)], offset: f64) -> Vec<Point> {
    let p = |x: f64, y: f64| Point::new(x + offset, y + offset);
    match kind {
        0 => raw.iter().map(|&(x, y)| p(x, y)).collect(),
        1 => raw
            .iter()
            .take(raw.len().div_ceil(2))
            .flat_map(|&(x, y)| [p(x, y), p(x, y)])
            .take(raw.len())
            .collect(),
        _ => {
            let (x0, y0) = raw[0];
            let (dx, dy) = raw.get(1).map_or((1.0, 0.5), |&(x, y)| (x * 0.1, y * 0.1));
            (0..raw.len()).map(|i| p(x0 + dx * i as f64, y0 + dy * i as f64)).collect()
        }
    }
}

fn point_vec(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..max_len)
}

/// Every stage of the cascade — the summary bound, the query-side and the
/// candidate-side stage, the cascade at `threshold`, and the standalone
/// `lower_bound` — stays at or below the exact distance after the
/// prefilter's safety margin, for all six measures, so none can refute a
/// candidate the kernel would accept.
fn check_stages(
    q: &[Point],
    c: &[Point],
    eps: f64,
    thr_scale: f64,
) -> Result<(), TestCaseError> {
    let params = MeasureParams::with_eps(eps);
    let (qs, cs) = (params.summary_of(q), params.summary_of(c));
    for measure in Measure::ALL {
        let exact = params.distance(measure, q, c);
        let stages = [
            ("summary", params.summary_lower_bound(measure, &qs, &cs)),
            ("query side", params.stage_lower_bound(measure, q, &cs)),
            ("candidate side", params.stage_lower_bound(measure, c, &qs)),
            ("cascade", params.cascade_lower_bound(measure, q, &qs, c, &cs, exact * thr_scale)),
            ("cascade, no threshold",
                params.cascade_lower_bound(measure, q, &qs, c, &cs, f64::INFINITY)),
            ("lower_bound", params.lower_bound(measure, q, c)),
        ];
        for (stage, lb) in stages {
            prop_assert!(
                !bound_exceeds(lb, exact),
                "{} {}: bound {} exceeds exact {} (q {:?}, c {:?})",
                measure, stage, lb, exact, q, c
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_cascade_stage_lower_bounds_the_exact_distance(
        xs in point_vec(10),
        ys in point_vec(10),
        kinds in (0usize..3, 0usize..3),
        offset in prop_oneof![Just(0.0f64), Just(108.9f64), Just(-5.0e4f64)],
        eps in 0.05f64..2.0,
        thr_scale in 0.0f64..2.0,
    ) {
        check_stages(&shaped(kinds.0, &xs, offset), &shaped(kinds.1, &ys, offset), eps, thr_scale)?;
    }

    /// One- and two-point trajectories on either side: where the DTW
    /// endpoint cells `(1, 1)` and `(m, n)` coincide or are neighbours.
    #[test]
    fn cascade_stages_are_sound_on_one_and_two_point_trajectories(
        xs in point_vec(3),
        ys in point_vec(3),
        kinds in (0usize..3, 0usize..3),
        eps in 0.05f64..2.0,
        thr_scale in 0.0f64..2.0,
    ) {
        check_stages(&shaped(kinds.0, &xs, 0.0), &shaped(kinds.1, &ys, 0.0), eps, thr_scale)?;
    }

    /// Raising each candidate's bound through the cascade moves only
    /// *where* a refutation happens: the batched verification returns the
    /// same `Option<f64>`, bit for bit, as with the plain summary bound.
    #[test]
    fn cascade_raised_bounds_leave_batch_results_bitwise_unchanged(
        xs in point_vec(12),
        cands in proptest::collection::vec((0usize..3, point_vec(12)), 1..7),
        eps in 0.05f64..2.0,
        measure_idx in 0usize..6,
        thr_pick in 0usize..4,
        thr_scale in 0.3f64..1.5,
    ) {
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(eps);
        let q = pts(&xs);
        let qs = params.summary_of(&q);
        let cands: Vec<Vec<Point>> =
            cands.iter().map(|(kind, raw)| shaped(*kind, raw, 0.0)).collect();
        let mut exact: Vec<f64> = cands.iter().map(|c| params.distance(measure, &q, c)).collect();
        exact.sort_by(f64::total_cmp);
        // Thresholds at, just above and between the candidates' distances.
        let base = exact[thr_pick.min(exact.len() - 1)];
        let sums: Vec<_> = cands.iter().map(|c| params.summary_of(c)).collect();
        for thr in [base, base.next_up(), base * thr_scale, f64::INFINITY] {
            let plain: Vec<(f64, &[Point])> = cands
                .iter()
                .zip(&sums)
                .map(|(c, cs)| (params.summary_lower_bound(measure, &qs, cs), c.as_slice()))
                .collect();
            let raised: Vec<(f64, &[Point])> = cands
                .iter()
                .zip(&sums)
                .map(|(c, cs)| {
                    (params.cascade_lower_bound(measure, &q, &qs, c, cs, thr), c.as_slice())
                })
                .collect();
            let mut scratch = DistScratch::new();
            let mut out_plain = vec![None; cands.len()];
            let mut out_raised = vec![None; cands.len()];
            for (cands, out) in [(&plain, &mut out_plain), (&raised, &mut out_raised)] {
                params.distance_within_batch_in(measure, &q, cands, thr, &mut scratch, out);
            }
            prop_assert_eq!(
                out_plain.iter().map(|o| o.map(f64::to_bits)).collect::<Vec<_>>(),
                out_raised.iter().map(|o| o.map(f64::to_bits)).collect::<Vec<_>>(),
                "{} at threshold {}", measure, thr
            );
        }
    }
}
