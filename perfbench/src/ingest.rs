//! `ingest`: durable open-loop writes with periodic compaction, a Zipf
//! hot-set reader alongside, then a drop without a final compaction and a
//! `recover`.

use crate::gen::{
    apply_writes, poisson_schedule, write_stream, zipf_picks, QueryStream, WriteOp,
    STREAM_ARRIVALS, STREAM_WRITE_ARRIVALS,
};
use crate::load::{keep_awake, open_loop, Sample};
use crate::oracle::check_against_oracle;
use crate::read::{
    dataset, deployment, repeated_setup, report_capacity, report_lag, report_queries, serve,
    QueryOut,
};
use crate::stats::median;
use crate::{filesystem_of, trace, Ctx, Outcome};
use repose::{Repose, ReposeConfig};
use repose_archive::{write_archive, Archive};
use repose_durability::{DurabilityConfig, FailPlan, Wal, WalRecord};
use repose_model::{Dataset, Point, TrajId, Trajectory};
use repose_rptrie::Hit;
use repose_service::{ReposeService, ServiceConfig, ServiceStats};
use serde_json::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// WAL records the scratch-WAL append replay times.
const APPEND_REPLAY: usize = 400;

/// Where one service instance keeps its journal and archives.
struct Dirs {
    wal: DurabilityConfig,
    archive: PathBuf,
}

impl Dirs {
    fn fresh(root: &Path) -> Dirs {
        let _ = std::fs::remove_dir_all(root);
        Dirs {
            wal: DurabilityConfig::new(root.join("wal")),
            archive: root.join("archive"),
        }
    }

    /// The production configuration plus durability (fsync on every
    /// write, the default policy) and archives.
    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            durability: Some(self.wal.clone()),
            archive: Some(self.archive.clone()),
            ..ServiceConfig::default()
        }
    }
}

/// What the writer keeps of one acknowledged write.
struct WriteOut {
    /// Seconds inside `insert_acked` / `remove_acked`.
    ack_s: f64,
}

/// One inline compaction: seconds from the open-loop start, and the
/// delta's share of the live set just before it.
struct Compaction {
    start: f64,
    end: f64,
    ok: bool,
    delta_share: f64,
}

fn write(svc: &ReposeService, op: &WriteOp) -> Option<WriteOut> {
    let t0 = Instant::now();
    match op {
        WriteOp::Upsert { id, points } => svc.insert_acked(Trajectory::new(*id, points.clone())),
        WriteOp::Delete { id } => svc.remove_acked(*id),
    }
    .ok()?;
    Some(WriteOut {
        ack_s: t0.elapsed().as_secs_f64(),
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let data = dataset(ctx);
    let cfg = deployment(ctx);
    let k = ctx.spec.k;
    let ((svc, dirs), setup_s, build_s) = repeated_setup(ctx.spec.setup_repeats, |r| {
        let dirs = Dirs::fresh(&ctx.work_dir.join(format!("ingest-{r}")));
        let t0 = Instant::now();
        let repose = Repose::build(&data, cfg);
        let build = t0.elapsed().as_secs_f64();
        let svc = ReposeService::try_with_config(repose, dirs.service_config())
            .expect("durable service starts in an empty directory");
        ((svc, dirs), t0.elapsed().as_secs_f64(), build)
    });
    out.report
        .add("setup_s", setup_s, "s", ctx.spec.setup_repeats);
    out.report
        .add("core.build_s", build_s, "s", ctx.spec.setup_repeats);
    out.record
        .insert("pool_threads".into(), json!(svc.pool_threads()));
    out.record
        .insert("fsync".into(), json!(format!("{:?}", dirs.wal.fsync)));
    out.record
        .insert("wal_filesystem".into(), json!(filesystem_of(&dirs.wal.dir)));

    let stream = QueryStream::new(data.trajectories(), ctx.seed);
    let hot = stream.range(0, ctx.w.hot_set);
    let read_due = poisson_schedule(ctx.seed, STREAM_ARRIVALS, ctx.w.query_rate, ctx.open_secs());
    let write_due = poisson_schedule(
        ctx.seed,
        STREAM_WRITE_ARRIVALS,
        ctx.w.write_rate,
        ctx.open_secs(),
    );
    let picks = zipf_picks(ctx.seed, hot.len(), ctx.w.zipf_s, read_due.len().max(1));
    let ops = write_stream(ctx.seed, data.trajectories(), ctx.w.mix, write_due.len());

    // Capacity is measured on distinct queries beyond the hot set: with no
    // writes yet, hot-set queries would all be cache hits, and the closed
    // loop would time the cache lookup instead of a query.
    report_capacity(ctx, &mut out, ctx.clients, |i, warm| {
        let q = stream.get(ctx.w.hot_set + 2 * i + usize::from(warm));
        serve(&svc, &q, k).is_some()
    });
    // The writer compacts inline before every `compact_every`-th write, so
    // the compaction stalls the writes queued behind it.
    let compactions: Mutex<Vec<Compaction>> = Mutex::new(Vec::new());
    let (writes, reads) = keep_awake(ctx.nproc, || {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                open_loop(t0, 1, &write_due, |i| {
                    if i > 0 && i % ctx.w.compact_every.max(1) == 0 {
                        let delta_share = svc.stats().delta_len as f64 / svc.len().max(1) as f64;
                        let start = t0.elapsed().as_secs_f64();
                        let ok = svc.compact().is_ok();
                        let end = t0.elapsed().as_secs_f64();
                        let c = Compaction {
                            start,
                            end,
                            ok,
                            delta_share,
                        };
                        compactions.lock().expect("compaction log").push(c);
                    }
                    write(&svc, &ops[i])
                })
            });
            let reads = open_loop(t0, 1, &read_due, |i| serve(&svc, &hot[picks[i]], k));
            (writer.join().expect("writer panicked"), reads)
        })
    });
    let compactions = compactions.into_inner().expect("compaction log");

    report_queries(&mut out, &reads);
    report_lag(&mut out, "read", &reads);
    report_lag(&mut out, "write", &writes);
    let insert_ms: Vec<f64> = writes.iter().map(Sample::latency_ms).collect();
    out.percentile("insert_p50_ms", &insert_ms, 0.5);
    out.percentile("insert_p99_ms", &insert_ms, 0.99);
    out.attempted += writes.len() + compactions.len();
    out.failed += writes.iter().filter(|w| w.out.is_none()).count();
    out.failed += compactions.iter().filter(|c| !c.ok).count();
    let compact_s: Vec<f64> = compactions.iter().map(|c| c.end - c.start).collect();
    out.report
        .add("compact_s", median(&compact_s), "s", compact_s.len());

    let acked: Vec<WriteOp> = ops
        .iter()
        .zip(&writes)
        .filter(|(_, w)| w.out.is_some())
        .map(|(op, _)| op.clone())
        .collect();
    let mut shadow: BTreeMap<TrajId, Vec<Point>> = data
        .trajectories()
        .iter()
        .map(|t| (t.id, t.points.clone()))
        .collect();
    apply_writes(&mut shadow, &acked);
    let stats = svc.stats();
    let user_bytes: u64 = acked.iter().map(WriteOp::user_bytes).sum();
    out.report.add(
        "wal_bytes_per_user_byte",
        stats.wal_bytes as f64 / user_bytes.max(1) as f64,
        "ratio",
        acked.len(),
    );
    out.record.insert(
        "delta_share_at_compaction".into(),
        json!(compactions
            .iter()
            .map(|c| c.delta_share)
            .collect::<Vec<_>>()),
    );

    // The correctness sample: hot-set queries from the most to the least
    // popular, answered before the drop and again after `recover`.
    let step = (hot.len() / ctx.spec.oracle_sample.max(1)).max(1);
    let sample: Vec<&Vec<Point>> = hot.iter().step_by(step).collect();
    let answer = |svc: &ReposeService| -> Vec<Vec<Hit>> {
        sample
            .iter()
            .map(|q| svc.query(q, k).map(|o| o.hits).unwrap_or_default())
            .collect()
    };
    let before = answer(&svc);
    out.report.add("peak_rss_mb", crate::peak_rss_mb(), "MB", 1);
    drop(svc);

    let t0 = Instant::now();
    let (recovered, report) =
        ReposeService::recover(cfg, dirs.service_config()).expect("recover the dropped service");
    out.report
        .add("restart_s", t0.elapsed().as_secs_f64(), "s", 1);
    let after = answer(&recovered);
    drop(recovered);
    let differing = before
        .iter()
        .zip(&after)
        .filter(|(b, a)| !same_bits(b, a))
        .count();
    out.record
        .insert("recovered_answers_differing".into(), json!(differing));
    out.record
        .insert("recovered_from_archive".into(), json!(report.from_archive));

    let live: Vec<(TrajId, &[Point])> = shadow.iter().map(|(id, p)| (*id, p.as_slice())).collect();
    let answers: Vec<(Vec<Point>, Vec<Hit>)> = sample
        .iter()
        .zip(before.into_iter().zip(after))
        .flat_map(|(q, (b, a))| [((*q).clone(), b), ((*q).clone(), a)])
        .collect();
    out.verdict = check_against_oracle(&live, ctx.w.measure, cfg.trie.params, k, &answers);

    if ctx.trace {
        trace_writes(ctx, &mut out, &stats, &acked, &writes, &reads, &compactions);
        out.report.add(
            "durability.replayed_records",
            report.replayed_records as f64,
            "count",
            1,
        );
        out.report.add(
            "archive.from_archive",
            f64::from(u8::from(report.from_archive)),
            "bool",
            1,
        );
        trace_archive(ctx, &mut out, cfg, &shadow);
        let replay: Vec<Vec<Point>> = hot.into_iter().take(trace::REPLAY_QUERIES).collect();
        trace::query_layers(&mut out.report, &data, cfg, &replay, k, true);
    }
    out
}

fn same_bits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

/// Write-side layers: the service's own share of an acknowledged write,
/// WAL appends replayed in a scratch journal, fsync and byte counts, and
/// the reads that overlapped a compaction.
fn trace_writes(
    ctx: &Ctx,
    out: &mut Outcome,
    stats: &ServiceStats,
    acked: &[WriteOp],
    writes: &[Sample<WriteOut>],
    reads: &[Sample<QueryOut>],
    compactions: &[Compaction],
) {
    let dir = ctx.work_dir.join("append-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = Wal::create(&DurabilityConfig::new(&dir)).expect("scratch WAL");
    let mut append_us = Vec::new();
    for (seq, op) in (1u64..).zip(acked.iter().take(APPEND_REPLAY)) {
        let record = match op {
            WriteOp::Upsert { id, points } => WalRecord::Upsert {
                seq,
                id: *id,
                points: points.clone(),
            },
            WriteOp::Delete { id } => WalRecord::Delete { seq, id: *id },
        };
        let t0 = Instant::now();
        wal.append(&record).expect("scratch WAL append");
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    let append = median(&append_us);
    out.report
        .add("durability.append_us", append, "us", append_us.len());

    let ack_us: Vec<f64> = writes
        .iter()
        .filter_map(|w| w.out.as_ref())
        .map(|w| w.ack_s * 1e6)
        .collect();
    out.report.add(
        "service.insert_self_us",
        median(&ack_us) - append,
        "us",
        ack_us.len(),
    );
    let n = acked.len().max(1) as f64;
    out.report.add(
        "durability.fsyncs_per_write",
        stats.wal_fsyncs as f64 / n,
        "count",
        acked.len(),
    );
    out.report.add(
        "durability.wal_bytes_per_write",
        stats.wal_bytes as f64 / n,
        "bytes",
        acked.len(),
    );
    out.report.add(
        "service.compact_partitions_rebuilt",
        stats.partitions_rebuilt as f64 / stats.compactions.max(1) as f64,
        "count",
        stats.compactions as usize,
    );

    let overlapping: Vec<f64> = reads
        .iter()
        .filter(|r| {
            compactions
                .iter()
                .any(|c| r.start < c.end && r.end > c.start)
        })
        .map(Sample::latency_ms)
        .collect();
    out.tail("service.query_tail_in_compact_ms", &overlapping);
}

/// `write_archive` and `Archive::open` on the final live set.
fn trace_archive(
    ctx: &Ctx,
    out: &mut Outcome,
    cfg: ReposeConfig,
    shadow: &BTreeMap<TrajId, Vec<Point>>,
) {
    let live = Dataset::from_trajectories(
        shadow
            .iter()
            .map(|(id, p)| Trajectory::new(*id, p.clone()))
            .collect(),
    );
    let repose = Repose::build(&live, cfg);
    let (mut write_ms, mut open_ms) = (Vec::new(), Vec::new());
    for r in 0..ctx.spec.setup_repeats.max(1) {
        let dir = ctx.work_dir.join(format!("archive-replay-{r}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let path = write_archive(&dir, &repose, 1, &FailPlan::new()).expect("write archive");
        write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let archive = Archive::open(&path, &FailPlan::new()).expect("open archive");
        open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(archive);
    }
    out.report
        .add("archive.write_ms", median(&write_ms), "ms", write_ms.len());
    out.report
        .add("archive.open_ms", median(&open_ms), "ms", open_ms.len());
}
