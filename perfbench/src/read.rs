//! `dense_read` and `wide_read`: distinct read-only queries against one
//! `ReposeService` with the production configuration; and the set-up,
//! query and reporting helpers every workload shares.

use crate::gen::{poisson_schedule, QueryStream, STREAM_ARRIVALS};
use crate::load::{backlog_grew, closed_loop, keep_awake, open_loop, Sample};
use crate::oracle::check_against_oracle;
use crate::stats::{median, tail};
use crate::{trace, Ctx, Outcome};
use repose::{Repose, ReposeConfig};
use repose_model::{Dataset, Point, TrajId};
use repose_rptrie::Hit;
use repose_service::{ReposeService, ServiceConfig};
use serde_json::json;
use std::time::Instant;

/// What the load generator keeps of one served query.
#[derive(Default)]
pub struct QueryOut {
    pub hits: Vec<Hit>,
    pub cache_hit: bool,
    pub delta_candidates: usize,
    pub hint_seeded: bool,
    /// Coordinator `Tighten` broadcasts (`sharded` only).
    pub tightenings: u32,
    /// Coordinator retries plus hedges (`sharded` only).
    pub retries_hedges: u32,
}

/// One `ReposeService::query`; `None` for an error or a degraded answer.
pub fn serve(svc: &ReposeService, q: &[Point], k: usize) -> Option<QueryOut> {
    let out = svc.query(q, k).ok().filter(|o| !o.degraded)?;
    Some(QueryOut {
        hits: out.hits,
        cache_hit: out.cache_hit,
        delta_candidates: out.delta_candidates,
        hint_seeded: out.threshold_seed.is_finite(),
        ..QueryOut::default()
    })
}

/// The deployment configuration of a workload: the paper's `δ` for its
/// dataset and measure, the spec's partition count.
pub fn deployment(ctx: &Ctx) -> ReposeConfig {
    ReposeConfig::new(ctx.w.measure)
        .with_partitions(ctx.spec.partitions)
        .with_delta(ctx.w.dataset.paper_delta(ctx.w.measure))
}

pub fn dataset(ctx: &Ctx) -> Dataset {
    ctx.w
        .dataset
        .generate(ctx.spec.scale, ctx.spec.dataset_seed)
}

/// `(id, points)` of every member, for the oracle.
pub fn live_set(data: &Dataset) -> Vec<(TrajId, &[Point])> {
    data.trajectories()
        .iter()
        .map(|t| (t.id, t.points.as_slice()))
        .collect()
}

/// Runs `setup` `repeats` times and keeps the last result; returns it with
/// the median set-up and build seconds, which `setup` measures itself so
/// that preparing its inputs stays outside the timing.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> (T, f64, f64),
) -> (T, f64, f64) {
    let (mut totals, mut builds, mut kept) = (Vec::new(), Vec::new(), None);
    for r in 0..repeats.max(1) {
        drop(kept.take());
        let (value, total_s, build_s) = setup(r);
        totals.push(total_s);
        builds.push(build_s);
        kept = Some(value);
    }
    (
        kept.expect("at least one set-up"),
        median(&totals),
        median(&builds),
    )
}

/// A run's queries, as disjoint seed-determined ranges of one stream:
/// traced replay, open loop, then the closed loop and its warm-up, which
/// interleave (even and odd indices) and take as many as they complete.
pub struct Queries<'a> {
    stream: &'a QueryStream<'a>,
    pub replay: Vec<Vec<Point>>,
    pub open: Vec<Vec<Point>>,
    closed_from: usize,
}

impl<'a> Queries<'a> {
    pub fn new(ctx: &Ctx, stream: &'a QueryStream<'a>, open: usize) -> Queries<'a> {
        let replay = if ctx.trace { trace::REPLAY_QUERIES } else { 0 };
        Queries {
            stream,
            replay: stream.range(0, replay),
            open: stream.range(trace::REPLAY_QUERIES, open),
            closed_from: trace::REPLAY_QUERIES + open,
        }
    }

    /// Query `i` of the closed loop (`warm`: of its warm-up).
    pub fn closed(&self, i: usize, warm: bool) -> Vec<Point> {
        self.stream
            .get(self.closed_from + 2 * i + usize::from(warm))
    }
}

/// An untimed warm-up of `warmup_s`, then the timed closed loop on
/// `clients` threads; adds `query_qps`. `op(i, warm)` runs request `i` of
/// the warm-up or of the closed loop and says whether it succeeded.
pub fn report_capacity(
    ctx: &Ctx,
    out: &mut Outcome,
    clients: usize,
    op: impl Fn(usize, bool) -> bool + Sync,
) {
    closed_loop(clients, ctx.spec.warmup_s, |i| op(i, true));
    let (done, failed, secs) = closed_loop(clients, ctx.closed_secs(), |i| op(i, false));
    out.report
        .add("query_qps", (done - failed) as f64 / secs, "1/s", done);
    out.attempted += done;
    out.failed += failed;
}

/// `oracle_sample` open-loop (query, answer) pairs, evenly spaced.
pub fn oracle_sample(
    ctx: &Ctx,
    queries: &[Vec<Point>],
    samples: &[Sample<QueryOut>],
) -> Vec<(Vec<Point>, Vec<Hit>)> {
    let stride = (samples.len() / ctx.spec.oracle_sample.max(1)).max(1);
    samples
        .iter()
        .zip(queries)
        .step_by(stride)
        .filter_map(|(s, q)| Some((q.clone(), s.out.as_ref()?.hits.clone())))
        .collect()
}

/// Adds the open-loop query metrics shared by every workload.
pub fn report_queries(out: &mut Outcome, samples: &[Sample<QueryOut>]) {
    let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    out.percentile("query_p50_ms", &lat, 0.5);
    out.tail("query_tail_ms", &lat);
    let ok: Vec<&QueryOut> = samples.iter().filter_map(|s| s.out.as_ref()).collect();
    let n = ok.len().max(1) as f64;
    let count = |f: fn(&QueryOut) -> bool| ok.iter().filter(|o| f(o)).count() as f64 / n;
    let deltas: f64 = ok.iter().map(|o| o.delta_candidates as f64).sum();
    out.report
        .add("service.delta_candidates", deltas / n, "count", ok.len());
    let cache_hits = count(|o| o.cache_hit);
    out.report
        .add("service.cache_hit_ratio", cache_hits, "ratio", ok.len());
    let seeded = count(|o| o.hint_seeded);
    out.report
        .add("service.hint_seeded_ratio", seeded, "ratio", ok.len());
    out.attempted += samples.len();
    out.failed += samples.iter().filter(|s| s.out.is_none()).count();
}

/// Adds the generator's lateness (the worst tail over the run's open
/// loops) and rejects a run whose backlog grew.
pub fn report_lag<R>(out: &mut Outcome, name: &str, samples: &[Sample<R>]) {
    let lag: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
    if let Some((_, t)) = tail(&lag) {
        match out
            .report
            .metrics
            .iter_mut()
            .find(|m| m.name == "loadgen.lag_tail_ms")
        {
            Some(m) => m.value = m.value.max(t),
            None => out.report.add("loadgen.lag_tail_ms", t, "ms", lag.len()),
        }
    }
    if backlog_grew(samples) {
        out.reject(format!(
            "the {name} open loop fell behind and its backlog kept growing"
        ));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let data = dataset(ctx);
    let cfg = deployment(ctx);
    let k = ctx.spec.k;
    let (svc, setup_s, build_s) = repeated_setup(ctx.spec.setup_repeats, |_| {
        let t0 = Instant::now();
        let repose = Repose::build(&data, cfg);
        let build = t0.elapsed().as_secs_f64();
        let svc = ReposeService::try_with_config(repose, ServiceConfig::default())
            .expect("a volatile service cannot fail to start");
        (svc, t0.elapsed().as_secs_f64(), build)
    });
    out.report
        .add("setup_s", setup_s, "s", ctx.spec.setup_repeats);
    out.report
        .add("core.build_s", build_s, "s", ctx.spec.setup_repeats);
    out.record
        .insert("pool_threads".into(), json!(svc.pool_threads()));
    out.record
        .insert("fsync".into(), json!("none (volatile service)"));

    let stream = QueryStream::new(data.trajectories(), ctx.seed);
    let due = poisson_schedule(ctx.seed, STREAM_ARRIVALS, ctx.w.query_rate, ctx.open_secs());
    let qs = Queries::new(ctx, &stream, due.len());
    let open = &qs.open;
    report_capacity(ctx, &mut out, ctx.clients, |i, warm| {
        serve(&svc, &qs.closed(i, warm), k).is_some()
    });
    let samples = keep_awake(ctx.nproc, || {
        open_loop(Instant::now(), ctx.clients, &due, |i| {
            serve(&svc, &open[i], k)
        })
    });
    out.report.add("peak_rss_mb", crate::peak_rss_mb(), "MB", 1);
    report_queries(&mut out, &samples);
    report_lag(&mut out, "query", &samples);

    let answers = oracle_sample(ctx, open, &samples);
    out.verdict = check_against_oracle(
        &live_set(&data),
        ctx.w.measure,
        cfg.trie.params,
        k,
        &answers,
    );

    if ctx.trace {
        drop(svc);
        trace::query_layers(&mut out.report, &data, cfg, &qs.replay, k, true);
    }
    out
}
