//! The brute-force correctness gate: `MeasureParams::distance` against
//! every live trajectory, compared with what the system answered.

use repose_distance::{Measure, MeasureParams};
use repose_model::{Point, TrajId};
use repose_rptrie::Hit;

/// The exact top-`k` of `query` over `live`, ascending by (distance, id),
/// plus every id tied with the k-th distance (which may exceed `k`).
pub fn brute_force(
    live: &[(TrajId, &[Point])],
    measure: Measure,
    params: MeasureParams,
    query: &[Point],
    k: usize,
) -> (Vec<Hit>, Vec<TrajId>) {
    let mut all: Vec<Hit> = live
        .iter()
        .map(|&(id, pts)| Hit {
            id,
            dist: params.distance(measure, query, pts),
        })
        .collect();
    all.sort_by(Hit::cmp_by_dist_then_id);
    let tied = match all.get(k.saturating_sub(1)) {
        Some(kth) if k > 0 => all
            .iter()
            .filter(|h| h.dist.to_bits() == kth.dist.to_bits())
            .map(|h| h.id)
            .collect(),
        _ => Vec::new(),
    };
    all.truncate(k);
    (all, tied)
}

/// How one answer compared with the expected one.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Answers checked.
    pub checked: usize,
    /// Answers that differ: a distance not bit-identical, or an id that
    /// differs below the k-th distance, or a k-th-distance id outside the
    /// tie set.
    pub mismatches: usize,
    /// Answers whose ids differ only among hits tied at the k-th distance
    /// — allowed, and counted so the tie stays visible.
    pub kth_tie_differences: usize,
}

impl Verdict {
    /// Checks `got` against `want`; `tied` lists every id whose distance
    /// equals the k-th distance (any of them may fill the tied ranks).
    pub fn check(&mut self, got: &[Hit], want: &[Hit], tied: &[TrajId]) {
        self.checked += 1;
        let same_len = got.len() == want.len();
        let dists_match = same_len
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.dist.to_bits() == w.dist.to_bits());
        if !dists_match {
            self.mismatches += 1;
            return;
        }
        let kth = want.last().map(|h| h.dist.to_bits());
        let mut tie_only = true;
        let mut differs = false;
        for (g, w) in got.iter().zip(want) {
            if g.id != w.id {
                differs = true;
                tie_only &= Some(g.dist.to_bits()) == kth && tied.contains(&g.id);
            }
        }
        if differs && !tie_only {
            self.mismatches += 1;
        } else if differs {
            self.kth_tie_differences += 1;
        }
    }

    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.kth_tie_differences += other.kth_tie_differences;
    }
}

/// Checks each `(query, answer)` against the brute force over `live`, on
/// two threads.
pub fn check_against_oracle(
    live: &[(TrajId, &[Point])],
    measure: Measure,
    params: MeasureParams,
    k: usize,
    answers: &[(Vec<Point>, Vec<Hit>)],
) -> Verdict {
    let half = answers.len().div_ceil(2);
    let run = |chunk: &[(Vec<Point>, Vec<Hit>)]| {
        let mut v = Verdict::default();
        for (q, got) in chunk {
            let (want, tied) = brute_force(live, measure, params, q, k);
            v.check(got, &want, &tied);
        }
        v
    };
    let mut verdict = Verdict::default();
    std::thread::scope(|s| {
        let chunks: Vec<_> = answers.chunks(half.max(1)).collect();
        let handles: Vec<_> = chunks.iter().map(|c| s.spawn(|| run(c))).collect();
        for h in handles {
            verdict.merge(h.join().expect("oracle thread panicked"));
        }
    });
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(id: TrajId, dist: f64) -> Hit {
        Hit { id, dist }
    }

    #[test]
    fn ids_may_differ_only_among_kth_ties() {
        let want = [h(1, 0.5), h(2, 1.0), h(3, 2.0)];
        let mut v = Verdict::default();
        v.check(&[h(1, 0.5), h(2, 1.0), h(9, 2.0)], &want, &[3, 9]);
        assert_eq!((v.mismatches, v.kth_tie_differences), (0, 1));
        v.check(&[h(1, 0.5), h(2, 1.0), h(8, 2.0)], &want, &[3, 9]);
        assert_eq!(v.mismatches, 1, "id outside the tie set");
        v.check(&[h(7, 0.5), h(2, 1.0), h(3, 2.0)], &want, &[3]);
        assert_eq!(v.mismatches, 2, "id differs below the k-th distance");
        v.check(
            &[h(1, 0.5), h(2, 1.0), h(3, 2.000_000_000_000_1)],
            &want,
            &[3],
        );
        assert_eq!(v.mismatches, 3, "distance bits differ");
        v.check(&want, &want, &[3]);
        assert_eq!((v.checked, v.mismatches), (5, 3));
    }

    #[test]
    fn brute_force_reports_the_whole_kth_tie() {
        let pts = [Point::new(0.0, 0.0)];
        let far = [Point::new(1.0, 0.0)];
        let live: Vec<(TrajId, &[Point])> = vec![(4, &far), (1, &pts), (3, &far), (2, &far)];
        let (top, tied) = brute_force(&live, Measure::Hausdorff, MeasureParams::default(), &pts, 2);
        assert_eq!(top.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(tied, vec![2, 3, 4]);
    }
}
