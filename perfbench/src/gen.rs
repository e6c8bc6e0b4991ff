//! Seeded generation of every operation stream the benchmark issues:
//! query picks, open-loop arrival times, Zipf draws and the ingest write
//! mix. Everything is a pure function of the workload seed, so one seed
//! always replays the identical stream.

use repose_model::{Point, TrajId, Trajectory};
use std::collections::BTreeMap;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one workload seed, so
    /// adding draws to one stream never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Uniform in `[-a, a)`.
    pub fn sym(&mut self, a: f64) -> f64 {
        (self.unit() * 2.0 - 1.0) * a
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Stream tags: one independent generator per purpose.
pub const STREAM_QUERIES: u64 = 1;
pub const STREAM_ARRIVALS: u64 = 2;
pub const STREAM_WRITE_ARRIVALS: u64 = 3;
pub const STREAM_WRITES: u64 = 4;
pub const STREAM_ZIPF: u64 = 5;

/// Open-loop due times (seconds from the phase start) of a Poisson
/// process of `rate` per second over `secs`, conditioned on its expected
/// count: `round(rate * secs)` arrivals placed as sorted uniforms. The
/// fixed count keeps every percentile's sample count the same on every
/// seed.
pub fn poisson_schedule(seed: u64, stream: u64, rate: f64, secs: f64) -> Vec<f64> {
    let n = (rate * secs).round() as usize;
    let mut rng = Rng::new(seed, stream);
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * secs).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Length strata of the query stream: every run of `STRATA` consecutive
/// queries takes one member from each, so every stretch of the stream has
/// about the dataset's mix of short and long trajectories whatever the
/// seed, and a run's cost varies less from seed to seed.
const STRATA: usize = 16;

/// Distinct queries drawn from a dataset: query `i` is member `order[i %
/// n]` of a seeded, length-stratified permutation. Past the last member
/// the permutation repeats with every point shifted by `1e-5` degrees per
/// pass — well above the result cache's `1e-7` key lattice — so no two
/// queries of a run share a cache key.
pub struct QueryStream<'a> {
    members: &'a [Trajectory],
    order: Vec<usize>,
}

impl<'a> QueryStream<'a> {
    pub fn new(members: &'a [Trajectory], seed: u64) -> Self {
        let mut rng = Rng::new(seed, STREAM_QUERIES);
        let mut by_len: Vec<usize> = (0..members.len()).collect();
        by_len.sort_by_key(|&i| (members[i].points.len(), members[i].id));
        let size = members.len().div_ceil(STRATA).max(1);
        let strata: Vec<Vec<usize>> = by_len
            .chunks(size)
            .map(|c| {
                let mut c = c.to_vec();
                rng.shuffle(&mut c);
                c
            })
            .collect();
        let mut order = Vec::with_capacity(members.len());
        for round in 0..size {
            let mut visit: Vec<usize> = (0..strata.len()).collect();
            rng.shuffle(&mut visit);
            order.extend(
                visit
                    .into_iter()
                    .filter_map(|s| strata[s].get(round).copied()),
            );
        }
        QueryStream { members, order }
    }

    /// Query `i` of the stream.
    pub fn get(&self, i: usize) -> Vec<Point> {
        let pass = (i / self.order.len()) as f64;
        self.members[self.order[i % self.order.len()]]
            .points
            .iter()
            .map(|p| Point::new(p.x + pass * 1e-5, p.y + pass * 1e-5))
            .collect()
    }

    /// Queries `from..from + n`.
    pub fn range(&self, from: usize, n: usize) -> Vec<Vec<Point>> {
        (from..from + n).map(|i| self.get(i)).collect()
    }
}

/// Zipf(`s`) ranks over `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `n` Zipf-skewed picks from a hot set of `hot` items.
pub fn zipf_picks(seed: u64, hot: usize, s: f64, n: usize) -> Vec<usize> {
    let zipf = Zipf::new(hot, s);
    let mut rng = Rng::new(seed, STREAM_ZIPF);
    (0..n).map(|_| zipf.draw(&mut rng)).collect()
}

/// One write of the ingest stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert or replace trajectory `id` (an existing id or a fresh one).
    Upsert { id: TrajId, points: Vec<Point> },
    /// Delete live trajectory `id`.
    Delete { id: TrajId },
}

impl WriteOp {
    /// The caller's payload bytes: 8 per id plus 16 per point.
    pub fn user_bytes(&self) -> u64 {
        match self {
            WriteOp::Upsert { points, .. } => 8 + 16 * points.len() as u64,
            WriteOp::Delete { .. } => 8,
        }
    }
}

/// Shares of the ingest write mix.
#[derive(Debug, Clone, Copy)]
pub struct WriteMix {
    pub upsert_existing: f64,
    pub insert_fresh: f64,
    pub delete: f64,
}

/// The ingest write stream: `n` operations of `mix` over the live set that
/// starts as `base`. Deletes and upserts target ids live at that point of
/// the stream, so every write is valid when applied in order. A written
/// trajectory is a random base member moved by up to `2e-3` degrees with
/// `2e-4` degrees of per-point noise, clamped into the base set's bounding
/// box so compaction keeps its incremental path.
pub fn write_stream(seed: u64, base: &[Trajectory], mix: WriteMix, n: usize) -> Vec<WriteOp> {
    let mut rng = Rng::new(seed, STREAM_WRITES);
    let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for p in base.iter().flat_map(|t| &t.points) {
        (x0, y0, x1, y1) = (x0.min(p.x), y0.min(p.y), x1.max(p.x), y1.max(p.y));
    }
    let mut live: Vec<TrajId> = base.iter().map(|t| t.id).collect();
    let mut next_id = live.iter().max().map_or(0, |m| m + 1);
    let moved = |rng: &mut Rng| -> Vec<Point> {
        let src = &base[rng.below(base.len())].points;
        let (dx, dy) = (rng.sym(2e-3), rng.sym(2e-3));
        src.iter()
            .map(|p| {
                Point::new(
                    (p.x + dx + rng.sym(2e-4)).clamp(x0, x1),
                    (p.y + dy + rng.sym(2e-4)).clamp(y0, y1),
                )
            })
            .collect()
    };
    (0..n)
        .map(|_| {
            let u = rng.unit() * (mix.upsert_existing + mix.insert_fresh + mix.delete);
            if u < mix.upsert_existing && !live.is_empty() {
                let id = live[rng.below(live.len())];
                WriteOp::Upsert {
                    id,
                    points: moved(&mut rng),
                }
            } else if u < mix.upsert_existing + mix.insert_fresh || live.is_empty() {
                let id = next_id;
                next_id += 1;
                live.push(id);
                WriteOp::Upsert {
                    id,
                    points: moved(&mut rng),
                }
            } else {
                let id = live.swap_remove(rng.below(live.len()));
                WriteOp::Delete { id }
            }
        })
        .collect()
}

/// The live set after applying `ops` to `base` — the oracle's shadow copy.
pub fn apply_writes(shadow: &mut BTreeMap<TrajId, Vec<Point>>, ops: &[WriteOp]) {
    for op in ops {
        match op {
            WriteOp::Upsert { id, points } => {
                shadow.insert(*id, points.clone());
            }
            WriteOp::Delete { id } => {
                shadow.remove(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<Trajectory> {
        (0..50)
            .map(|i| {
                let y = i as f64 * 0.01;
                Trajectory::new(i, (0..6).map(|j| Point::new(j as f64 * 0.01, y)).collect())
            })
            .collect()
    }

    const MIX: WriteMix = WriteMix {
        upsert_existing: 0.5,
        insert_fresh: 0.3,
        delete: 0.2,
    };

    /// Query picks, read and write arrival bits, Zipf draws, writes.
    type Stream = (
        Vec<Vec<Point>>,
        Vec<u64>,
        Vec<u64>,
        Vec<usize>,
        Vec<WriteOp>,
    );

    /// Everything one seed generates, in one comparable value.
    fn stream(seed: u64) -> Stream {
        let b = base();
        let queries = QueryStream::new(&b, seed).range(0, 120);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let reads = bits(poisson_schedule(seed, STREAM_ARRIVALS, 40.0, 5.0));
        let writes = bits(poisson_schedule(seed, STREAM_WRITE_ARRIVALS, 30.0, 5.0));
        let zipf = zipf_picks(seed, 16, 1.1, 200);
        (
            queries,
            reads,
            writes,
            zipf,
            write_stream(seed, &b, MIX, 300),
        )
    }

    #[test]
    fn same_seed_gives_the_identical_operation_stream() {
        assert_eq!(stream(7), stream(7));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let (a, b) = (stream(7), stream(8));
        assert_ne!(a.0, b.0, "query picks");
        assert_ne!(a.1, b.1, "read arrivals");
        assert_ne!(a.2, b.2, "write arrivals");
        assert_ne!(a.3, b.3, "zipf draws");
        assert_ne!(a.4, b.4, "write mix");
    }

    #[test]
    fn queries_never_repeat_across_passes() {
        let b = base();
        let qs = QueryStream::new(&b, 3).range(0, 3 * b.len());
        let keys: std::collections::HashSet<Vec<(u64, u64)>> = qs
            .iter()
            .map(|q| q.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect())
            .collect();
        assert_eq!(keys.len(), qs.len());
    }

    #[test]
    fn every_stretch_of_the_stream_spans_the_length_strata() {
        let b: Vec<Trajectory> = (0..64)
            .map(|i| {
                let pts = (0..2 + i as usize)
                    .map(|j| Point::new(j as f64, 0.0))
                    .collect();
                Trajectory::new(i, pts)
            })
            .collect();
        let qs = QueryStream::new(&b, 9).range(0, 2 * STRATA);
        for round in qs.chunks(STRATA) {
            let mut strata: Vec<usize> = round.iter().map(|q| (q.len() - 2) / 4).collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..STRATA).collect::<Vec<_>>());
        }
    }

    #[test]
    fn schedule_has_the_fixed_count_in_order_and_in_range() {
        let due = poisson_schedule(1, STREAM_ARRIVALS, 52.0, 20.0);
        assert_eq!(due.len(), 1040);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| (0.0..20.0).contains(&t)));
    }

    #[test]
    fn writes_only_touch_live_ids_and_keep_the_mix() {
        let b = base();
        let ops = write_stream(5, &b, MIX, 2000);
        let mut live: std::collections::HashSet<TrajId> = b.iter().map(|t| t.id).collect();
        let (mut deletes, mut fresh) = (0, 0);
        for op in &ops {
            match op {
                WriteOp::Upsert { id, .. } => fresh += usize::from(live.insert(*id)),
                WriteOp::Delete { id } => {
                    assert!(live.remove(id), "delete of a dead id");
                    deletes += 1;
                }
            }
        }
        assert!((300..500).contains(&deletes), "{deletes}");
        assert!((500..700).contains(&fresh), "{fresh}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let picks = zipf_picks(2, 64, 1.1, 5000);
        let top = picks.iter().filter(|&&r| r == 0).count();
        let tail = picks.iter().filter(|&&r| r == 63).count();
        assert!(top > 10 * tail.max(1), "{top} vs {tail}");
        assert!(picks.iter().all(|&r| r < 64));
    }
}
