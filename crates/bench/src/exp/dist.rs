//! Early-abandoning distance-kernel experiment (beyond the paper): how
//! much exact-verification work the threshold-aware kernels save, per
//! measure.
//!
//! Two vantage points, reported side by side with QT:
//!
//! * **index level** — run the normal REPOSE top-k queries and report the
//!   search counters: how many exact verifications ran, how many of them
//!   the running k-th distance refuted before full `O(m·n)` cost
//!   (`exact_abandoned`), and how many of those the staged lower bound
//!   refuted before any kernel ran (`exact_prefiltered`).
//! * **kernel level** — scan the whole dataset against one query, once
//!   with the unbounded kernels and once with `distance_within` under the
//!   true k-th distance as threshold (the selectivity an ideal index gives
//!   every verification), and compare host wall times directly.

use crate::runner::{load, params_for, ExpConfig};
use crate::{fmt_secs, print_table};
use repose::{Repose, ReposeConfig};
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use repose_model::Dataset;
use repose_rptrie::SearchStats;
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

struct KernelScan {
    full_s: f64,
    within_s: f64,
    abandoned: usize,
    scanned: usize,
}

/// Full-dataset scan with and without the threshold: the per-kernel cost
/// comparison, decoupled from index pruning.
fn kernel_scan(
    data: &Dataset,
    query: &[repose_model::Point],
    measure: Measure,
    params: &repose_distance::MeasureParams,
    k: usize,
) -> KernelScan {
    let t0 = Instant::now();
    let mut dists: Vec<f64> = data
        .trajectories()
        .iter()
        .map(|t| black_box(params.distance(measure, query, &t.points)))
        .collect();
    let full_s = t0.elapsed().as_secs_f64();
    dists.sort_by(f64::total_cmp);
    let dk = dists[k.clamp(1, dists.len()) - 1];

    let t0 = Instant::now();
    let mut abandoned = 0usize;
    for t in data.trajectories() {
        if black_box(params.distance_within(measure, query, &t.points, dk)).is_none() {
            abandoned += 1;
        }
    }
    let within_s = t0.elapsed().as_secs_f64();
    KernelScan { full_s, within_s, abandoned, scanned: data.len() }
}

/// Runs the early-abandoning experiment over all six measures.
pub fn run(exp: &ExpConfig) -> Value {
    let ds = PaperDataset::TDrive;
    let (data, queries) = load(ds, exp);
    if data.is_empty() || queries.is_empty() {
        eprintln!("[dist] nothing to measure (empty dataset or --queries 0)");
        return Value::Array(Vec::new());
    }

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for measure in Measure::ALL {
        let params = params_for(ds, measure);
        let cfg = ReposeConfig::new(measure)
            .with_cluster(exp.cluster)
            .with_partitions(exp.partitions)
            .with_delta(ds.paper_delta(measure))
            .with_params(params)
            .with_seed(exp.seed);
        let r = Repose::build(&data, cfg);
        let mut qt = 0.0;
        let mut search = SearchStats::default();
        for q in &queries {
            let o = r.query(&q.points, exp.k);
            qt += o.query_time().as_secs_f64();
            search.merge(&o.search);
        }
        let qt_s = qt / queries.len().max(1) as f64;

        let scan = kernel_scan(&data, &queries[0].points, measure, &params, exp.k);
        let speedup = if scan.within_s > 0.0 { scan.full_s / scan.within_s } else { 0.0 };
        let share = |n: usize| {
            if search.exact_computations > 0 {
                n as f64 / search.exact_computations as f64
            } else {
                0.0
            }
        };
        let abandon_rate = share(search.exact_abandoned);
        let prefilter_rate = share(search.exact_prefiltered);
        rows.push(vec![
            measure.name().to_string(),
            fmt_secs(qt_s),
            search.exact_computations.to_string(),
            search.exact_abandoned.to_string(),
            format!("{:.0}%", abandon_rate * 100.0),
            search.exact_prefiltered.to_string(),
            format!("{:.0}%", prefilter_rate * 100.0),
            fmt_secs(scan.full_s),
            fmt_secs(scan.within_s),
            format!("{speedup:.1}x"),
        ]);
        out.push(json!({
            "measure": measure.name(),
            "qt_s": qt_s,
            "exact_computations": search.exact_computations,
            "exact_abandoned": search.exact_abandoned,
            "abandon_rate": abandon_rate,
            "exact_prefiltered": search.exact_prefiltered,
            "prefilter_rate": prefilter_rate,
            "scan_trajectories": scan.scanned,
            "scan_abandoned": scan.abandoned,
            "scan_full_s": scan.full_s,
            "scan_within_s": scan.within_s,
            "scan_speedup": speedup,
        }));
    }
    println!(
        "\n== dist: early-abandoning verification, k = {}, {} queries, scale {} ==",
        exp.k, exp.queries, exp.scale
    );
    print_table(
        &[
            "Measure", "QT", "exact", "abandoned", "abandon %", "prefiltered",
            "prefilter %", "scan full", "scan within", "speedup",
        ],
        &rows,
    );
    Value::Array(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_cluster::ClusterConfig;

    #[test]
    fn dist_experiment_shows_abandoning_on_selective_queries() {
        let exp = ExpConfig {
            scale: 0.05,
            queries: 2,
            k: 3,
            partitions: 4,
            cluster: ClusterConfig { workers: 2, cores_per_worker: 2, timing_repeats: 1 },
            seed: 9,
            ..ExpConfig::default()
        };
        let v = run(&exp);
        let rows = v.as_array().expect("one row per measure");
        assert_eq!(rows.len(), 6);
        let mut any_index_abandons = false;
        for row in rows {
            assert!(row["qt_s"].as_f64().unwrap() >= 0.0);
            let exact = row["exact_computations"].as_u64().unwrap();
            let abandoned = row["exact_abandoned"].as_u64().unwrap();
            assert!(abandoned <= exact, "abandons exceed attempts");
            let prefiltered = row["exact_prefiltered"].as_u64().unwrap();
            assert!(prefiltered <= abandoned, "prefilter refutations exceed abandons");
            any_index_abandons |= abandoned > 0;
            // A selective threshold (true k-th over the whole set) must
            // let the kernel-level scan abandon most of the dataset.
            let scanned = row["scan_trajectories"].as_u64().unwrap();
            let scan_abandoned = row["scan_abandoned"].as_u64().unwrap();
            assert!(
                scan_abandoned > scanned / 2,
                "{:?}: only {scan_abandoned}/{scanned} scans abandoned",
                row["measure"].as_str()
            );
        }
        assert!(any_index_abandons, "no measure abandoned inside the index search");
    }
}
