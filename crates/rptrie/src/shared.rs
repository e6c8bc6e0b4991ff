//! The cross-search shared top-k collector: one live, monotonically
//! tightening global k-th-distance bound that every concurrently executing
//! local search consults and feeds.
//!
//! # How the bound works
//!
//! Each local search publishes every exact distance it accepts into its
//! local result heap. The collector keeps the best `k` published `(dist,
//! id)` pairs (deduplicated by id) in a mutex-guarded pool; whenever the
//! pool holds `k` entries, its worst distance is a sound **upper bound on
//! the global k-th distance** — any `k` real candidate distances have a
//! k-th smallest no smaller than the k-th smallest over *all* candidates.
//! Adding entries can only lower that worst distance, so the bound is
//! monotone non-increasing, which makes a lock-free read path possible:
//! the current bound is cached in an [`AtomicU64`] holding the distance's
//! IEEE-754 bits (for non-negative floats, bit order equals numeric order),
//! updated with `fetch_min` after each publish. Readers pay one relaxed
//! atomic load per refresh — never the mutex.
//!
//! # Why pruning with it is exact
//!
//! A search holding local threshold `dk_local` prunes with
//! `min(dk_local, bound())`. The bound over-approximates the global k-th
//! distance at all times, so any candidate it rejects has an exact distance
//! at least the final global k-th distance — it could only ever appear in
//! the global top-k as a tie at the k-th slot, and by the time the bound
//! has tightened to the k-th distance the pool already holds `k` published
//! hits at or below it, every one of which survives in some local result
//! heap (a local heap only evicts an entry for a strictly better one, and
//! each local heap retains its best `k`). The merged local results
//! therefore always contain `k` hits whose distance multiset equals the
//! exact answer's (Definition 3 of the paper permits any tied subset).

use repose_distance::{RunningTopK, ThresholdSource};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Pool {
    /// Best `k` published hits, worst on top.
    heap: RunningTopK,
    /// Ids ever published — publish is idempotent per id, so re-publishing
    /// (e.g. a delta hit that is also passed as a trie seed) can never make
    /// one trajectory occupy two of the `k` slots and over-tighten the
    /// bound.
    seen: HashSet<u64>,
}

/// A shared global top-k threshold collector (see module docs).
///
/// One `SharedTopK` serves one logical query; every partition's local
/// search (and, in the serving layer, every delta scan) runs against the
/// same collector, so a hit found anywhere prunes everywhere. Create with
/// [`SharedTopK::new`], hand out `&SharedTopK` (it is `Sync`), and read the
/// final bound with [`SharedTopK::bound`] if desired — results themselves
/// still come from merging the local searches' hits.
pub struct SharedTopK {
    k: usize,
    /// Bit-encoded cached bound (non-negative f64 bits order numerically).
    bound_bits: AtomicU64,
    pool: Mutex<Pool>,
}

impl SharedTopK {
    /// A collector for a top-`k` query, starting from an infinite bound.
    pub fn new(k: usize) -> Self {
        SharedTopK::with_initial_bound(k, f64::INFINITY)
    }

    /// A collector whose bound starts at `initial` — for callers that
    /// already hold a sound upper bound on the global k-th distance (e.g.
    /// a completed seed-partition search).
    pub fn with_initial_bound(k: usize, initial: f64) -> Self {
        assert!(initial >= 0.0, "distance bounds are non-negative");
        SharedTopK {
            k,
            bound_bits: AtomicU64::new(initial.to_bits()),
            pool: Mutex::new(Pool {
                heap: RunningTopK::new(k),
                seen: HashSet::new(),
            }),
        }
    }

    /// The `k` this collector was created for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current upper bound on the global k-th distance (monotone
    /// non-increasing; `INFINITY` until `k` distinct hits were published).
    pub fn bound(&self) -> f64 {
        f64::from_bits(self.bound_bits.load(Ordering::Acquire))
    }

    /// Folds in an externally computed sound upper bound on the global
    /// k-th distance — e.g. one received from a remote coordinator whose
    /// pool merged hits from other shards. Monotone like every other
    /// bound update: a looser `bound` is a no-op, a tighter one wins via
    /// the same `fetch_min` the publish path uses, so remote and local
    /// tightenings compose without ordering constraints.
    pub fn tighten(&self, bound: f64) {
        debug_assert!(bound >= 0.0 && !bound.is_nan(), "bounds are non-negative");
        self.bound_bits.fetch_min(bound.to_bits(), Ordering::AcqRel);
    }

    /// Publishes the exact distance of candidate `id`. Idempotent per id.
    pub fn publish(&self, dist: f64, id: u64) {
        debug_assert!(dist >= 0.0 && !dist.is_nan(), "exact distances are non-negative");
        if self.k == 0 {
            return;
        }
        let mut pool = self.pool.lock().expect("shared top-k pool");
        if !pool.seen.insert(id) {
            return;
        }
        pool.heap.push(dist, id);
        if let Some(kth) = pool.heap.kth() {
            // fetch_min keeps the bound monotone under racing publishers:
            // whichever k-th value is smallest wins, and every k-th value
            // ever computed is a valid upper bound.
            self.bound_bits.fetch_min(kth.to_bits(), Ordering::AcqRel);
        }
    }
}

impl ThresholdSource for SharedTopK {
    fn bound(&self) -> f64 {
        SharedTopK::bound(self)
    }
    fn publish(&self, dist: f64, id: u64) {
        SharedTopK::publish(self, dist, id)
    }
}

impl std::fmt::Debug for SharedTopK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTopK")
            .field("k", &self.k)
            .field("bound", &self.bound())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_kth_of_published() {
        let s = SharedTopK::new(3);
        assert_eq!(s.bound(), f64::INFINITY);
        s.publish(5.0, 1);
        s.publish(2.0, 2);
        assert_eq!(s.bound(), f64::INFINITY, "fewer than k hits bound nothing");
        s.publish(9.0, 3);
        assert_eq!(s.bound(), 9.0);
        s.publish(1.0, 4); // evicts 9.0
        assert_eq!(s.bound(), 5.0);
        s.publish(0.5, 5);
        assert_eq!(s.bound(), 2.0);
    }

    #[test]
    fn publish_is_idempotent_per_id() {
        let s = SharedTopK::new(2);
        s.publish(3.0, 7);
        s.publish(3.0, 7);
        s.publish(3.0, 7);
        assert_eq!(s.bound(), f64::INFINITY, "one trajectory must not fill two slots");
        s.publish(4.0, 8);
        assert_eq!(s.bound(), 4.0);
    }

    #[test]
    fn initial_bound_only_tightens() {
        let s = SharedTopK::with_initial_bound(2, 3.5);
        assert_eq!(s.bound(), 3.5);
        s.publish(10.0, 1);
        s.publish(11.0, 2);
        assert_eq!(s.bound(), 3.5, "a looser pool k-th must not loosen the bound");
        s.publish(1.0, 3);
        s.publish(2.0, 4);
        assert_eq!(s.bound(), 2.0);
    }

    #[test]
    fn zero_k_is_inert() {
        let s = SharedTopK::new(0);
        s.publish(1.0, 1);
        assert_eq!(s.bound(), f64::INFINITY);
    }

    /// The satellite-required contention test: many threads publish
    /// concurrently; the final bound must equal the k-th smallest distinct
    /// published distance, and the bound observed by any thread must never
    /// increase.
    #[test]
    fn fetch_min_under_contention() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        const K: usize = 10;
        for round in 0..20u64 {
            let s = SharedTopK::new(K);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let s = &s;
                    scope.spawn(move || {
                        let mut last = f64::INFINITY;
                        for i in 0..PER_THREAD {
                            let id = t * PER_THREAD + i;
                            // deterministic pseudo-random positive distance
                            let h = (id ^ (round * 0x9E37_79B9)).wrapping_mul(0x2545_F491_4F6C_DD1D);
                            let dist = (h % 1_000_000) as f64 / 1000.0;
                            s.publish(dist, id);
                            // every thread also re-publishes its first id
                            s.publish(dist, t * PER_THREAD);
                            let b = s.bound();
                            assert!(b <= last, "bound went up: {last} -> {b}");
                            last = b;
                        }
                    });
                }
            });
            // Recompute the expected k-th over all (id-deduped) publishes.
            let mut all: Vec<f64> = (0..THREADS * PER_THREAD)
                .map(|id| {
                    let h = (id ^ (round * 0x9E37_79B9)).wrapping_mul(0x2545_F491_4F6C_DD1D);
                    (h % 1_000_000) as f64 / 1000.0
                })
                .collect();
            all.sort_by(f64::total_cmp);
            assert_eq!(s.bound(), all[K - 1], "round {round}");
        }
    }
}
