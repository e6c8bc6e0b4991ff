//! Property tests of the paper's lemmas: every lower bound computed during
//! a trie descent must actually lower-bound the exact distance to every
//! trajectory stored below that node (Lemmas 1–4), and internal bounds
//! must be monotone along root-to-leaf paths (the best-first invariant).

use proptest::prelude::*;
use repose_distance::{Measure, MeasureParams};
use repose_model::{Mbr, Point, TrajStore, Trajectory};
use repose_rptrie::{RpTrie, RpTrieConfig};
use repose_zorder::Grid;

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn region() -> Mbr {
    Mbr::new(Point::new(0.0, 0.0), Point::new(32.0, 32.0))
}

/// Exhaustively checks soundness through the public API: run top-k with
/// k = N (so nothing may be pruned away incorrectly) and verify the result
/// set is complete and exactly ranked. If any bound over-estimated, some
/// trajectory would be missing or mis-ranked.
fn check_complete_ranking(
    trajs: &[Trajectory],
    query: &[Point],
    measure: Measure,
    params: MeasureParams,
    level: u8,
) -> Result<(), TestCaseError> {
    let grid = Grid::new(region(), level);
    let store = TrajStore::from_trajectories(trajs);
    let trie = RpTrie::build(
        &store,
        grid,
        RpTrieConfig::for_measure(measure).with_params(params).with_np(2),
    );
    let r = trie.top_k(&store, query, trajs.len());
    prop_assert_eq!(r.hits.len(), trajs.len(), "{} lost trajectories", measure);
    let mut expect: Vec<(f64, u64)> = trajs
        .iter()
        .map(|t| (params.distance(measure, query, &t.points), t.id))
        .collect();
    expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (h, e) in r.hits.iter().zip(&expect) {
        prop_assert!(
            (h.dist - e.0).abs() < 1e-9,
            "{}: rank distance mismatch {} vs {}",
            measure,
            h.dist,
            e.0
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn no_bound_ever_loses_a_trajectory(
        raw in proptest::collection::vec(
            proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 1..10),
            1..25,
        ),
        query in proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 1..8),
        level in 2u8..6,
        measure_idx in 0usize..6,
    ) {
        let trajs: Vec<Trajectory> = raw
            .into_iter()
            .enumerate()
            .map(|(i, p)| Trajectory::new(i as u64, pts(&p)))
            .collect();
        let query = pts(&query);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(1.5);
        check_complete_ranking(&trajs, &query, measure, params, level)?;
    }

    /// Degenerate geometries: collinear points, repeated points, single-cell
    /// clusters — the classic breakers of geometric index bounds.
    #[test]
    fn degenerate_geometries_survive(
        x in 0.0f64..32.0,
        y in 0.0f64..32.0,
        reps in 1usize..6,
        level in 2u8..5,
        measure_idx in 0usize..6,
    ) {
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(0.5);
        let trajs = vec![
            // all points identical
            Trajectory::new(0, vec![Point::new(x, y); reps]),
            // horizontal line through the same cell row
            Trajectory::new(1, (0..reps + 1).map(|i| Point::new(
                (x + i as f64 * 0.01).min(31.9), y)).collect()),
            // a normal trajectory elsewhere
            Trajectory::new(2, pts(&[(1.0, 1.0), (5.0, 7.0), (9.0, 3.0)])),
        ];
        let query = vec![Point::new(x, (y + 3.0) % 32.0)];
        check_complete_ranking(&trajs, &query, measure, params, level)?;
    }

    /// Small k keeps the running k-th distance `dk` finite, so exact
    /// verification runs through the early-abandoning kernels — the result
    /// must still match brute force exactly, and abandons can never exceed
    /// attempted verifications.
    #[test]
    fn early_abandoning_verification_matches_brute_force(
        raw in proptest::collection::vec(
            proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 1..10),
            3..25,
        ),
        query in proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 1..8),
        k in 1usize..4,
        level in 1u8..5,
        measure_idx in 0usize..6,
    ) {
        let trajs: Vec<Trajectory> = raw
            .into_iter()
            .enumerate()
            .map(|(i, p)| Trajectory::new(i as u64, pts(&p)))
            .collect();
        let query = pts(&query);
        let measure = Measure::ALL[measure_idx];
        let params = MeasureParams::with_eps(1.5);
        let grid = Grid::new(region(), level);
        let store = TrajStore::from_trajectories(&trajs);
        let trie = RpTrie::build(
            &store,
            grid,
            RpTrieConfig::for_measure(measure).with_params(params).with_np(2),
        );
        let r = trie.top_k(&store, &query, k);
        prop_assert!(r.stats.exact_abandoned <= r.stats.exact_computations);
        prop_assert!(r.stats.exact_prefiltered <= r.stats.exact_abandoned);
        let mut expect: Vec<(f64, u64)> = trajs
            .iter()
            .map(|t| (params.distance(measure, &query, &t.points), t.id))
            .collect();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Ties at the k-th distance may resolve to either id (Definition 3
        // permits any tied subset), so compare the distance sequence — it
        // must match brute force bit-for-bit — and check each reported
        // (id, dist) pair is that trajectory's true exact distance.
        prop_assert_eq!(r.hits.len(), k.min(trajs.len()), "{} k={}", measure, k);
        for (h, e) in r.hits.iter().zip(&expect) {
            prop_assert_eq!(h.dist.to_bits(), e.0.to_bits(), "{}: dist drifted", measure);
            let t = trajs.iter().find(|t| t.id == h.id).expect("hit id exists");
            let exact = params.distance(measure, &query, &t.points);
            prop_assert_eq!(h.dist.to_bits(), exact.to_bits(), "{}: wrong hit dist", measure);
        }
    }

    /// Duplicated trajectories: many ids share one leaf; Dmax and the tie
    /// handling must cope.
    #[test]
    fn duplicated_trajectories_share_leaves(
        n in 2usize..12,
        level in 2u8..5,
        measure_idx in 0usize..6,
    ) {
        let measure = Measure::ALL[measure_idx];
        let base = pts(&[(3.0, 4.0), (8.0, 9.0), (14.0, 6.0)]);
        let trajs: Vec<Trajectory> = (0..n)
            .map(|i| Trajectory::new(i as u64, base.clone()))
            .collect();
        let query = pts(&[(3.5, 4.5), (9.0, 9.5)]);
        let params = MeasureParams::with_eps(1.0);
        check_complete_ranking(&trajs, &query, measure, params, level)?;
    }
}

// The search must behave identically whatever dense/sparse split the
// frozen trie uses — a differential test pitting layouts against each
// other on random data.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn layouts_are_observationally_equivalent(
        raw in proptest::collection::vec(
            proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 2..8),
            2..20,
        ),
        query in proptest::collection::vec((0.0f64..32.0, 0.0f64..32.0), 1..6),
        k in 1usize..6,
    ) {
        let trajs: Vec<Trajectory> = raw
            .into_iter()
            .enumerate()
            .map(|(i, p)| Trajectory::new(i as u64, pts(&p)))
            .collect();
        let query = pts(&query);
        let grid = Grid::new(region(), 4);
        let store = TrajStore::from_trajectories(&trajs);
        let mut results = Vec::new();
        for dense in [0u8, 1, 3] {
            let trie = RpTrie::build(
                &store,
                grid.clone(),
                RpTrieConfig::for_measure(Measure::Hausdorff).with_dense_levels(dense),
            );
            results.push(
                trie.top_k(&store, &query, k)
                    .hits
                    .iter()
                    .map(|h| (h.id, h.dist))
                    .collect::<Vec<_>>(),
            );
        }
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[0], &results[2]);
    }
}
