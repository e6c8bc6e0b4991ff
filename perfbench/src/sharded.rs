//! `sharded`: distinct queries through `ShardCluster` over `Loopback`,
//! one shard per core, no replication, one client.

use crate::gen::{poisson_schedule, QueryStream, STREAM_ARRIVALS};
use crate::load::{keep_awake, open_loop};
use crate::oracle::check_against_oracle;
use crate::read::{
    dataset, deployment, live_set, oracle_sample, repeated_setup, report_capacity, report_lag,
    report_queries, Queries, QueryOut,
};
use crate::stats::mean;
use crate::{trace, Ctx, Outcome};
use repose::{Repose, ReposeConfig};
use repose_distance::Measure;
use repose_model::{Dataset, Point, Trajectory};
use repose_rptrie::Hit;
use repose_shard::{Message, NetFaultPlan, ShardCluster, ShardClusterConfig};
use serde_json::json;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// One coordinated query; `None` when the answer came back degraded.
fn serve(cluster: &Mutex<ShardCluster>, q: &[Point], k: usize) -> Option<QueryOut> {
    let out = cluster.lock().expect("cluster lock").query(q, k);
    (!out.degraded).then(|| QueryOut {
        hits: out.hits,
        cache_hit: out.cache_hit,
        tightenings: out.tightenings,
        retries_hedges: out.retries + out.hedges,
        ..QueryOut::default()
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let data = dataset(ctx);
    let cfg = deployment(ctx);
    let k = ctx.spec.k;
    let ccfg = ShardClusterConfig {
        shards: ctx.nproc,
        replicate: false,
        ..ShardClusterConfig::default()
    };
    let (cluster, setup_s, _) = repeated_setup(ctx.spec.setup_repeats, |_| {
        let data = data.clone();
        let t0 = Instant::now();
        let c = ShardCluster::build(data, cfg, ccfg, NetFaultPlan::default(), None);
        (c, t0.elapsed().as_secs_f64(), 0.0)
    });
    out.report
        .add("setup_s", setup_s, "s", ctx.spec.setup_repeats);
    out.record.insert("shards".into(), json!(ccfg.shards));
    out.record.insert("pool_threads".into(), json!(1));
    out.record
        .insert("fsync".into(), json!("none (volatile shards)"));
    let cluster = Mutex::new(cluster);

    let stream = QueryStream::new(data.trajectories(), ctx.seed);
    let due = poisson_schedule(ctx.seed, STREAM_ARRIVALS, ctx.w.query_rate, ctx.open_secs());
    let qs = Queries::new(ctx, &stream, due.len());
    report_capacity(ctx, &mut out, 1, |i, warm| {
        serve(&cluster, &qs.closed(i, warm), k).is_some()
    });
    let samples = keep_awake(ctx.nproc, || {
        open_loop(Instant::now(), 1, &due, |i| serve(&cluster, &qs.open[i], k))
    });
    out.report.add("peak_rss_mb", crate::peak_rss_mb(), "MB", 1);
    report_queries(&mut out, &samples);
    report_lag(&mut out, "query", &samples);

    let answers = oracle_sample(ctx, &qs.open, &samples);
    out.verdict = check_against_oracle(
        &live_set(&data),
        ctx.w.measure,
        cfg.trie.params,
        k,
        &answers,
    );

    if ctx.trace {
        let ok: Vec<&QueryOut> = samples.iter().filter_map(|s| s.out.as_ref()).collect();
        let per_q =
            |f: fn(&QueryOut) -> u32| mean(&ok.iter().map(|o| f64::from(f(o))).collect::<Vec<_>>());
        out.report.add(
            "shard.tightenings_per_query",
            per_q(|o| o.tightenings),
            "count",
            ok.len(),
        );
        out.report.add(
            "shard.retries_hedges",
            per_q(|o| o.retries_hedges),
            "count",
            ok.len(),
        );
        let mut cluster = cluster.into_inner().expect("cluster lock");
        trace_shards(&mut out, &mut cluster, ctx.w.measure, &qs.replay, k);
        cluster.shutdown();
        core_build(&mut out, &data, cfg, ccfg.shards);
        trace::query_layers(&mut out.report, &data, cfg, &qs.replay, k, false);
    } else {
        cluster.into_inner().expect("cluster lock").shutdown();
    }
    out
}

/// Coordinator latency against the slowest shard's own `query_scatter`,
/// transport message counts, and the protocol codec on each query's
/// messages.
fn trace_shards(
    out: &mut Outcome,
    cluster: &mut ShardCluster,
    measure: Measure,
    queries: &[Vec<Point>],
    k: usize,
) {
    let (mut coord_ms, mut work_ms, mut codec_us) = (Vec::new(), Vec::new(), Vec::new());
    let sent_before = cluster.transport().net_stats().sent;
    for q in queries {
        let t0 = Instant::now();
        let answer = cluster.query(q, k);
        coord_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let slowest = (0..cluster.shards())
            .map(|s| {
                let t0 = Instant::now();
                cluster
                    .leader_service(s)
                    .query_scatter(q, k, f64::INFINITY, |_, _| {})
                    .expect("shard scatter");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(0.0, f64::max);
        work_ms.push(slowest);
        codec_us.push(codec_time_us(cluster.shards(), measure, q, k, &answer.hits));
    }
    let sent = cluster.transport().net_stats().sent - sent_before;
    let n = queries.len();
    out.report.add("shard.work_ms", mean(&work_ms), "ms", n);
    out.report.add(
        "shard.overhead_ms",
        mean(&coord_ms) - mean(&work_ms),
        "ms",
        n,
    );
    out.report.add(
        "shard.msgs_per_query",
        sent as f64 / n.max(1) as f64,
        "count",
        n,
    );
    out.report.add("shard.codec_us", mean(&codec_us), "us", n);
}

/// `encode_frame` + `decode_frame` over one query's messages, rebuilt from
/// its answer: a `Query` and a `Done` per shard and a `Hit` per answer.
fn codec_time_us(shards: usize, measure: Measure, q: &[Point], k: usize, hits: &[Hit]) -> f64 {
    let query = Message::Query {
        qid: 1,
        attempt: 0,
        k: k as u32,
        measure,
        seed_dk: f64::INFINITY,
        points: q.to_vec(),
    };
    let done = Message::Done {
        qid: 1,
        attempt: 0,
        hits_sent: hits.len() as u32,
        exact_computations: 0,
        exact_abandoned: 0,
    };
    let mut msgs = vec![query; shards];
    msgs.extend(std::iter::repeat_n(done, shards));
    msgs.extend(hits.iter().map(|h| Message::Hit {
        qid: 1,
        attempt: 0,
        id: h.id,
        dist: h.dist,
    }));
    let t0 = Instant::now();
    for m in &msgs {
        let frame = black_box(m).encode_frame();
        let mut cur = frame.as_slice();
        black_box(Message::decode_frame(&mut cur).expect("decode own frame"));
    }
    t0.elapsed().as_secs_f64() * 1e6
}

/// `Repose::build` over each shard's subset (`id % shards`), summed: the
/// core build share of the cluster's set-up.
fn core_build(out: &mut Outcome, data: &Dataset, cfg: ReposeConfig, shards: usize) {
    let mut subsets: Vec<Vec<Trajectory>> = vec![Vec::new(); shards];
    for t in data.trajectories() {
        subsets[(t.id % shards as u64) as usize].push(t.clone());
    }
    let t0 = Instant::now();
    for s in subsets {
        black_box(Repose::build(&Dataset::from_trajectories(s), cfg));
    }
    out.report
        .add("core.build_s", t0.elapsed().as_secs_f64(), "s", shards);
}
