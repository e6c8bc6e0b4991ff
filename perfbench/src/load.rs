//! The load generator: closed loops for capacity, open loops for latency.
//!
//! An open loop sends each request at its scheduled due time whether or
//! not earlier ones finished, and times it from that due time, so a stall
//! also charges the requests that queued behind it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One open-loop request: seconds from the phase start.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    pub due: f64,
    pub start: f64,
    pub end: f64,
    /// `None` when the operation failed, was refused or degraded.
    pub out: Option<R>,
}

impl<R> Sample<R> {
    /// Latency from the due time in milliseconds; `INFINITY` for a
    /// failure, which misses every latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.out.is_some() {
            (self.end - self.due) * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator issued the request, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.start - self.due) * 1e3
    }
}

/// Runs `f` while `threads` threads do nothing but yield the CPU, so no
/// core ever idles. On a virtual machine an idle virtual CPU halts, and
/// waking it to run a request waits for the host scheduler: milliseconds
/// that swing with the host's load, not with the code under test. The
/// yielding threads give way to every runnable thread of the program.
pub fn keep_awake<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        let _stop = Stop(&stop);
        f()
    })
}

/// Runs `op(i)` for `i = 0, 1, ...` on `clients` threads, each issuing its
/// next request as soon as its previous one returns, for `secs` seconds.
/// Returns (completed, failed, elapsed seconds until the last in-flight
/// request returned).
pub fn closed_loop(
    clients: usize,
    secs: f64,
    op: impl Fn(usize) -> bool + Sync,
) -> (usize, usize, f64) {
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let t0 = Instant::now();
    let stop = Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                while t0.elapsed() < stop {
                    if !op(next.fetch_add(1, Ordering::Relaxed)) {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    (
        next.into_inner(),
        failed.into_inner(),
        t0.elapsed().as_secs_f64(),
    )
}

/// Issues request `i` at `t0 + due[i]` from a pool of `clients` threads
/// (a request due while every client is busy starts late, and its lateness
/// counts in its latency).
pub fn open_loop<R: Send>(
    t0: Instant,
    clients: usize,
    due: &[f64],
    op: impl Fn(usize) -> Option<R> + Sync,
) -> Vec<Sample<R>> {
    let next = AtomicUsize::new(0);
    let mut samples: Vec<Sample<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&d) = due.get(i) else { break };
                        let wait = d - t0.elapsed().as_secs_f64();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let start = t0.elapsed().as_secs_f64();
                        let out = op(i);
                        let end = t0.elapsed().as_secs_f64();
                        mine.push((
                            i,
                            Sample {
                                due: d,
                                start,
                                end,
                                out,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<(usize, Sample<R>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, s)| s).collect()
    });
    samples.shrink_to_fit();
    samples
}

/// Whether the open loop fell behind for good: the median lateness of the
/// last twentieth of its requests exceeds 100 ms. A stall the system
/// recovers from (a compaction) leaves the end of the run on time; a rate
/// above capacity does not.
pub fn backlog_grew<R>(samples: &[Sample<R>]) -> bool {
    let tail = &samples[samples.len() - samples.len() / 20..];
    let lags: Vec<f64> = tail.iter().map(Sample::lag_ms).collect();
    !tail.is_empty() && crate::stats::median(&lags) > 100.0
}
