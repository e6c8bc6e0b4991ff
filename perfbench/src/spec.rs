//! The workload definitions, read from `workloads.json` (compiled in, so
//! the binary and its record of fixed rates cannot drift apart).

use crate::gen::WriteMix;
use repose_datagen::PaperDataset;
use repose_distance::Measure;
use serde_json::Value;

const SPEC_JSON: &str = include_str!("../workloads.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Read-only service queries.
    Read,
    /// Durable writes, compaction, a hot-set reader, then restart.
    Ingest,
    /// Queries through the sharded coordinator.
    Sharded,
}

#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: String,
    pub shape: Shape,
    pub dataset: PaperDataset,
    pub measure: Measure,
    /// Open-loop query arrivals per second.
    pub query_rate: f64,
    /// Open-loop write arrivals per second (`ingest`).
    pub write_rate: f64,
    /// Acknowledged writes between compactions (`ingest`).
    pub compact_every: usize,
    /// Distinct queries the `ingest` reader draws from.
    pub hot_set: usize,
    pub zipf_s: f64,
    pub mix: WriteMix,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub k: usize,
    pub partitions: usize,
    pub scale: f64,
    pub dataset_seed: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Share of `--seconds` spent in the closed loop; the rest is open.
    pub closed_share: f64,
    /// Seconds of untimed closed-loop warm-up before the timed phases.
    pub warmup_s: f64,
    /// Answers per run checked against the brute-force oracle.
    pub oracle_sample: usize,
    workloads: Vec<WorkloadSpec>,
}

fn num(v: &Value, key: &str) -> f64 {
    v[key]
        .as_f64()
        .unwrap_or_else(|| panic!("workloads.json: {key} must be a number"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v[key]
        .as_str()
        .unwrap_or_else(|| panic!("workloads.json: {key} must be a string"))
}

fn workload(name: &str, w: &Value) -> WorkloadSpec {
    let opt = |key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let mix = w.get("write_mix");
    let share = |key: &str| mix.map_or(0.0, |m| num(m, key));
    WorkloadSpec {
        name: name.to_string(),
        shape: match text(w, "shape") {
            "read" => Shape::Read,
            "ingest" => Shape::Ingest,
            "sharded" => Shape::Sharded,
            s => panic!("workloads.json: unknown shape {s}"),
        },
        dataset: match text(w, "dataset") {
            "xian" => PaperDataset::Xian,
            "porto" => PaperDataset::Porto,
            d => panic!("workloads.json: unknown dataset {d}"),
        },
        measure: match text(w, "measure") {
            "dtw" => Measure::Dtw,
            "hausdorff" => Measure::Hausdorff,
            m => panic!("workloads.json: unknown measure {m}"),
        },
        query_rate: num(w, "query_rate_per_s"),
        write_rate: opt("write_rate_per_s"),
        compact_every: opt("compact_every") as usize,
        hot_set: opt("hot_set") as usize,
        zipf_s: opt("zipf_s"),
        mix: WriteMix {
            upsert_existing: share("upsert_existing"),
            insert_fresh: share("insert_fresh"),
            delete: share("delete"),
        },
    }
}

impl Spec {
    pub fn load() -> Spec {
        let v: Value = serde_json::from_str(SPEC_JSON).expect("workloads.json parses");
        let workloads = match &v["workloads"] {
            Value::Object(m) => m.iter().map(|(name, w)| workload(name, w)).collect(),
            _ => panic!("workloads.json: workloads must be an object"),
        };
        Spec {
            k: num(&v, "k") as usize,
            partitions: num(&v, "partitions") as usize,
            scale: num(&v, "scale"),
            dataset_seed: num(&v, "dataset_seed") as u64,
            setup_repeats: num(&v, "setup_repeats") as usize,
            closed_share: num(&v, "closed_share"),
            warmup_s: num(&v, "warmup_s"),
            oracle_sample: num(&v, "oracle_sample") as usize,
            workloads,
        }
    }

    pub fn workload(&self, name: &str) -> Option<WorkloadSpec> {
        self.workloads.iter().find(|w| w.name == name).cloned()
    }

    pub fn names(&self) -> Vec<String> {
        self.workloads.iter().map(|w| w.name.clone()).collect()
    }
}
