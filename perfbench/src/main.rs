//! The REPOSE benchmark: one workload per process, timed through the
//! public serving entry points, checked against a brute-force oracle.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           --work-dir <dir> [--commit <id>]
//! ```
//!
//! `--trace 0` runs the workload and reports the end-to-end metrics;
//! `--trace 1` runs the same workload and then the traced replay, which
//! times calls into each layer's public functions from here and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A run whose
//! percentiles lack samples or whose open-loop backlog kept growing is
//! invalid: it prints why and exits with code 3 without a result.

mod gen;
mod ingest;
mod load;
mod oracle;
mod read;
mod sharded;
mod spec;
mod stats;
mod trace;

use oracle::Verdict;
use serde_json::{json, Map, Value};
use spec::{Shape, Spec, WorkloadSpec};
use stats::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every `--trace 0` run reports (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [&str; 4] = ["setup_s", "query_p50_ms", "query_qps", "peak_rss_mb"];

/// The per-layer metrics every `--trace 1` run reports, with their units
/// (the `per_layer` list of `BENCHMARK.json`). A metric a workload does
/// not exercise reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("query_tail_ms", "ms"),
    ("distance.kernel_us", "us"),
    ("rptrie.search_ms", "ms"),
    ("rptrie.nodes_visited", "count"),
    ("rptrie.nodes_pruned", "count"),
    ("rptrie.leaves_visited", "count"),
    ("rptrie.leaves_pruned", "count"),
    ("rptrie.bounds_abandoned", "count"),
    ("rptrie.exact_computations", "count"),
    ("rptrie.exact_abandoned", "count"),
    ("cluster.pool_speedup", "x"),
    ("cluster.task_us", "us"),
    ("service.query_seq_ms", "ms"),
    ("service.self_ms", "ms"),
    ("service.delta_candidates", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.hint_seeded_ratio", "ratio"),
    ("service.insert_self_us", "us"),
    ("service.compact_partitions_rebuilt", "count"),
    ("service.query_tail_in_compact_ms", "ms"),
    ("durability.append_us", "us"),
    ("durability.fsyncs_per_write", "count"),
    ("durability.wal_bytes_per_write", "bytes"),
    ("durability.replayed_records", "count"),
    ("archive.write_ms", "ms"),
    ("archive.open_ms", "ms"),
    ("archive.from_archive", "bool"),
    ("shard.work_ms", "ms"),
    ("shard.overhead_ms", "ms"),
    ("shard.msgs_per_query", "count"),
    ("shard.tightenings_per_query", "count"),
    ("shard.retries_hedges", "count"),
    ("shard.codec_us", "us"),
    ("core.build_s", "s"),
    ("core.index_mb", "MB"),
    ("loadgen.lag_tail_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("insert_p99_ms", "ms"),
    ("compact_s", "s"),
    ("restart_s", "s"),
    ("wal_bytes_per_user_byte", "ratio"),
    ("error_rate", "ratio"),
    ("oracle.kth_tie_differences", "count"),
    ("oracle.answers_checked", "count"),
];

/// Everything one workload run needs to know.
pub struct Ctx {
    pub spec: Spec,
    pub w: WorkloadSpec,
    pub seed: u64,
    pub secs: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    /// Client threads of the closed loop: one per core (one on `sharded`,
    /// whose coordinator takes `&mut self`).
    pub clients: usize,
    /// Cores available to the process.
    pub nproc: usize,
}

impl Ctx {
    /// Seconds of the closed-loop (capacity) phase.
    pub fn closed_secs(&self) -> f64 {
        self.secs * self.spec.closed_share
    }

    /// Seconds of the open-loop (latency) phase.
    pub fn open_secs(&self) -> f64 {
        self.secs - self.closed_secs()
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    pub verdict: Verdict,
    pub attempted: usize,
    pub failed: usize,
    /// Run-record entries particular to the workload.
    pub record: Map,
    /// Why the run cannot be reported, if it cannot.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Marks the run invalid (the first reason wins).
    pub fn reject(&mut self, why: String) {
        self.invalid.get_or_insert(why);
    }

    /// Adds the tail latency of `samples_ms` (see [`stats::tail`]) and
    /// records its quantile; rejects the run if it is not reportable.
    pub fn tail(&mut self, name: &'static str, samples_ms: &[f64]) {
        match stats::tail(samples_ms) {
            Some((q, v)) if v.is_finite() => {
                self.report.add(name, v, "ms", samples_ms.len());
                self.record.insert(format!("{name}_quantile"), json!(q));
            }
            Some(_) => self.reject(format!("{name}: failed operations reach the tail")),
            None => self.reject(format!("{name}: {} samples are too few", samples_ms.len())),
        }
    }

    /// Adds an open-loop percentile, rejecting the run if it lacks samples.
    pub fn percentile(&mut self, name: &'static str, samples_ms: &[f64], q: f64) {
        if let Err(why) = self.report.add_percentile(name, samples_ms, q) {
            self.reject(why);
        }
    }
}

/// The process's peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `path` (longest mount-point prefix in
/// `/proc/self/mountinfo`).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|l| {
            let fields: Vec<&str> = l.split(' ').collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fs = *fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

struct Args {
    workload: String,
    seed: u64,
    secs: f64,
    trace: bool,
    work_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        secs: 0.0,
        trace: false,
        work_dir: PathBuf::new(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.secs = val.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = val != "0",
            "--work-dir" => a.work_dir = PathBuf::from(val),
            "--commit" => a.commit = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() || a.secs <= 0.0 || a.work_dir.as_os_str().is_empty() {
        return Err("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--commit <id>]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let Some(w) = spec.workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        clients: if w.shape == Shape::Sharded { 1 } else { nproc },
        nproc,
        spec,
        w,
        seed: args.seed,
        secs: args.secs,
        trace: args.trace,
        work_dir: args.work_dir,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        return ExitCode::from(2);
    }

    let mut out = match ctx.w.shape {
        Shape::Read => read::run(&ctx),
        Shape::Ingest => ingest::run(&ctx),
        Shape::Sharded => sharded::run(&ctx),
    };
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.report
        .add("error_rate", error_rate, "ratio", out.attempted);
    out.report.add(
        "oracle.answers_checked",
        out.verdict.checked as f64,
        "count",
        1,
    );
    out.report.add(
        "oracle.kth_tie_differences",
        out.verdict.kth_tie_differences as f64,
        "count",
        out.verdict.checked,
    );
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            if !out.report.metrics.iter().any(|m| m.name == name) {
                out.report.add(name, 0.0, unit, 0);
            }
        }
    }

    let mut record = json!({
        "workload": ctx.w.name.as_str(),
        "nproc": nproc,
        "backend": repose_distance::active_backend().name(),
        "dataset": ctx.w.dataset.name(),
        "measure": ctx.w.measure.name(),
        "scale": ctx.spec.scale,
        "dataset_seed": ctx.spec.dataset_seed,
        "seed": ctx.seed,
        "k": ctx.spec.k,
        "partitions": ctx.spec.partitions,
        "seconds": ctx.secs,
        "closed_clients": ctx.clients,
        "query_rate_per_s": ctx.w.query_rate,
        "git_commit": args.commit.as_str(),
        "trace": ctx.trace,
    });
    if let Value::Object(m) = &mut record {
        for (k, v) in out.record.iter() {
            m.insert(k.clone(), v.clone());
        }
        let samples: Map = out.report.metrics.iter().fold(Map::new(), |mut acc, m| {
            acc.insert(m.name.to_string(), json!(m.samples));
            acc
        });
        m.insert("samples".into(), Value::Object(samples));
    }
    println!(
        "run_record {}",
        serde_json::to_string(&record).expect("render record")
    );
    println!(
        "workload {} (attempted {}, failed {}):",
        ctx.w.name, out.attempted, out.failed
    );
    print!("{}", out.report.table());
    println!(
        "oracle: {} answers checked, {} mismatches, {} differ only among ties at the k-th distance",
        out.verdict.checked, out.verdict.mismatches, out.verdict.kth_tie_differences
    );

    if let Some(why) = &out.invalid {
        eprintln!("perfbench: invalid run: {why}");
        return ExitCode::from(3);
    }
    let names: Vec<&str> = if ctx.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics = match out.report.json_metrics(&names) {
        Ok(m) => m,
        Err(why) => {
            eprintln!("perfbench: invalid run: {why}");
            return ExitCode::from(3);
        }
    };
    let correct = out.verdict.mismatches == 0 && out.verdict.checked > 0;
    let result = json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("render result"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` are the same.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let bench: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            bench[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("per_layer"), per_layer);
        for m in bench["per_layer"].as_array().expect("per_layer") {
            let name = m["name"].as_str().expect("name");
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .expect("listed")
                .1;
            assert_eq!(m["unit"].as_str(), Some(unit), "{name}");
        }
        let spec: Value =
            serde_json::from_str(include_str!("../workloads.json")).expect("workloads.json");
        let workloads = bench["workloads"].as_array().expect("workloads");
        assert_eq!(workloads.len(), Spec::load().names().len());
        for (w, name) in workloads.iter().zip(Spec::load().names()) {
            assert_eq!(w["name"].as_str(), Some(name.as_str()));
            assert_eq!(
                w["why"].as_str(),
                spec["workloads"][name.as_str()]["why"].as_str(),
                "{name}"
            );
        }
    }
}
