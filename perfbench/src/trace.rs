//! The traced replay: times calls into each layer's public functions from
//! the benchmark's side, on the workload's own queries, with no other
//! load. Spans inside the program are a later change; these numbers are
//! what the layer boundaries cost when called directly.

use crate::stats::{mean, median, Report};
use repose::{Repose, ReposeConfig};
use repose_model::{Dataset, Point, TrajId};
use repose_rptrie::{Hit, SearchStats, SharedTopK};
use repose_service::{ReposeService, ServiceConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Queries each replay times.
pub const REPLAY_QUERIES: usize = 40;

/// Kernel calls timed per (query, answer) pair.
const KERNEL_REPEATS: usize = 3;

/// One query through the local indexes alone: every partition's
/// `RpTrie::top_k_shared` in `root_bound` order against one `SharedTopK`,
/// as the service schedules them. Returns the merged top-k, the work
/// counters and the seconds spent.
pub fn search_partitions(repose: &Repose, q: &[Point], k: usize) -> (Vec<Hit>, SearchStats, f64) {
    let t0 = Instant::now();
    let mut order: Vec<(f64, usize)> = (0..repose.num_partitions())
        .map(|pi| (repose.partition_view(pi).trie.root_bound(q), pi))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let shared = SharedTopK::new(k);
    let mut stats = SearchStats::default();
    let mut hits = Vec::new();
    for (_, pi) in order {
        let view = repose.partition_view(pi);
        let res = view.trie.top_k_shared(view.store, q, k, &[], None, &shared);
        stats.merge(&res.stats);
        hits.extend(res.hits);
    }
    hits.sort_by(Hit::cmp_by_dist_then_id);
    hits.truncate(k);
    (hits, stats, t0.elapsed().as_secs_f64())
}

/// The query-path layers: `repose-distance`, `repose-rptrie`,
/// `repose-cluster` (when `with_pool`) and the service's own time.
pub fn query_layers(
    report: &mut Report,
    data: &Dataset,
    cfg: ReposeConfig,
    queries: &[Vec<Point>],
    k: usize,
    with_pool: bool,
) {
    let measure = cfg.measure();
    let params = cfg.trie.params;
    let points: HashMap<TrajId, &[Point]> = data
        .trajectories()
        .iter()
        .map(|t| (t.id, t.points.as_slice()))
        .collect();
    let repose = Repose::build(data, cfg);
    let service = |threads: usize| {
        let scfg = ServiceConfig {
            pool_threads: threads,
            ..ServiceConfig::default()
        };
        ReposeService::try_with_config(Repose::build(data, cfg), scfg)
            .expect("a volatile service cannot fail to start")
    };
    let sequential = service(1);
    let pooled = with_pool.then(|| service(ServiceConfig::default().pool_threads));

    let (mut search_s, mut seq_s, mut pool_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kernel_s, mut kernel_calls) = (0.0, 0usize);
    let mut tasks_us = Vec::new();
    let mut stats = SearchStats::default();
    for q in queries {
        let (hits, s, secs) = search_partitions(&repose, q, k);
        stats.merge(&s);
        search_s.push(secs);
        let dk = hits.last().map_or(f64::INFINITY, |h| h.dist);
        for h in &hits {
            let t = points[&h.id];
            let t0 = Instant::now();
            for _ in 0..KERNEL_REPEATS {
                black_box(params.distance_within(measure, black_box(q), t, dk));
            }
            kernel_s += t0.elapsed().as_secs_f64();
            kernel_calls += KERNEL_REPEATS;
        }
        let t0 = Instant::now();
        sequential.query(q, k).expect("sequential query");
        seq_s.push(t0.elapsed().as_secs_f64());
        if let Some(p) = &pooled {
            let t0 = Instant::now();
            let out = p.query(q, k).expect("pooled query");
            pool_s.push(t0.elapsed().as_secs_f64());
            tasks_us.extend(out.partition_times.iter().map(|d| d.as_secs_f64() * 1e6));
        }
    }
    let n = queries.len();
    let per_q = |v: usize| v as f64 / n.max(1) as f64;
    report.add(
        "distance.kernel_us",
        kernel_s * 1e6 / kernel_calls.max(1) as f64,
        "us",
        kernel_calls,
    );
    report.add("rptrie.search_ms", mean(&search_s) * 1e3, "ms", n);
    for (name, v) in [
        ("rptrie.nodes_visited", stats.nodes_visited),
        ("rptrie.nodes_pruned", stats.nodes_pruned),
        ("rptrie.leaves_visited", stats.leaves_visited),
        ("rptrie.leaves_pruned", stats.leaves_pruned),
        ("rptrie.bounds_abandoned", stats.bounds_abandoned),
        ("rptrie.exact_computations", stats.exact_computations),
        ("rptrie.exact_abandoned", stats.exact_abandoned),
    ] {
        report.add(name, per_q(v), "count", n);
    }
    let seq_ms = mean(&seq_s) * 1e3;
    report.add("service.query_seq_ms", seq_ms, "ms", n);
    report.add("service.self_ms", seq_ms - mean(&search_s) * 1e3, "ms", n);
    if pooled.is_some() {
        let speedup = seq_s.iter().sum::<f64>() / pool_s.iter().sum::<f64>();
        report.add("cluster.pool_speedup", speedup, "x", n);
        report.add("cluster.task_us", median(&tasks_us), "us", tasks_us.len());
    }
    report.add("core.index_mb", repose.index_bytes() as f64 / 1e6, "MB", 1);
}
