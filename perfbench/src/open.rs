//! `dlrm_open`: an open loop of 1-row DLRM requests against a `Server`
//! (buckets 8 and 32, 1 ms coalesce window, no shed or degrade). One
//! generator thread submits on a fixed schedule with `try_submit`; one
//! collector thread waits on the replies. Phases: a low rate, a high
//! rate, then a rate ladder climbed until a step misses the limit.

use crate::common::*;
use aiga::prelude::*;
use aiga::util::hist::LatencyHistogram;
use aiga_perfbench::inputs;
use aiga_perfbench::openloop::{self, Step};
use aiga_perfbench::stats::{median, nearest_rank, sorted};
use aiga_perfbench::trace::Trace;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
pub const BUCKETS: [u64; 2] = [8, 32];
const COALESCE: Duration = Duration::from_millis(1);
/// Large enough that no step of the ladder is refused at admission:
/// overload shows as latency, not as failures.
const QUEUE_CAPACITY: usize = 16_384;
pub const LOW_RATE: f64 = 50.0;
pub const HIGH_RATE: f64 = 2000.0;
pub const P99_LIMIT_MS: f64 = 100.0;
const LADDER_RATIO: f64 = 1.1;
/// Alternating segments the low and high rates are each split into.
const SEGMENTS: usize = 4;
/// Ladder phases per run, retries included.
const LADDER_MAX_TRIALS: usize = 20;
/// Full bucket-32 batches served without the server.
const BATCHES: usize = 32;
/// Distinct request rows per run; requests cycle through them.
const ROW_POOL: usize = 256;

fn session() -> Session {
    Session::builder_network(Cfg::Planned.planner(), "dlrm", dlrm_net)
        .buckets(BUCKETS)
        .build()
}

fn server(base: &Session) -> Server {
    Server::builder(base.shard())
        .workers(WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .coalesce_window(COALESCE)
        .build()
}

/// Warms every worker's workspace at both buckets: two bursts sized
/// to fill each bucket, waited on before anything is timed.
fn warm_up(server: &Server, rows: &[Matrix]) -> Res<()> {
    let client = server.client();
    for burst in [8, 64] {
        let pending: Vec<_> = (0..burst)
            .map(|k| client.submit(&rows[k % rows.len()]))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("warm-up submit: {e}"))?;
        for p in pending {
            p.wait().map_err(|e| format!("warm-up reply: {e}"))?;
        }
    }
    Ok(())
}

/// One request's record, in send order.
struct Sent {
    row: usize,
    due_ms: f64,
    sent_ms: f64,
    submit_us: f64,
    /// `(done_ms, bucket, output bits)`, or `None` if refused or failed.
    reply: Option<(f64, u64, u32)>,
}

struct Phase {
    sent: Vec<Sent>,
    /// Requests served and passes run during the phase (warm-up excluded).
    served: u64,
    passes: u64,
    /// See [`openloop::max_in_flight`].
    max_in_flight: usize,
    /// Latencies of traced and untraced requests (traced runs only).
    traced: (Vec<f64>, Vec<f64>),
}

impl Phase {
    fn latency_from_due(&self) -> Vec<f64> {
        let (due, done): (Vec<f64>, Vec<f64>) = self
            .sent
            .iter()
            .filter_map(|s| s.reply.map(|r| (s.due_ms, r.0)))
            .unzip();
        openloop::latency_from_due_ms(&due, &done)
    }

    fn failed(&self) -> u64 {
        self.sent.iter().filter(|s| s.reply.is_none()).count() as u64
    }
}

/// Runs one open-loop phase at `rate` for `duration` against a fresh
/// warmed server.
fn run_phase(
    base: &Session,
    rows: &[Matrix],
    rate: f64,
    duration: Duration,
    tr: &mut Trace,
    request_base: u64,
) -> Res<Phase> {
    let server = server(base);
    warm_up(&server, rows)?;
    let warm = server.stats();
    let due = openloop::schedule_ms(rate, ms(duration));
    let origin = Instant::now() + Duration::from_millis(2);
    let at = |t: Instant| ms(t.saturating_duration_since(origin));
    let (tx, rx) = mpsc::channel();
    let client = server.client();
    let mut sent = Vec::with_capacity(due.len());
    let mut traced = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let gen = scope.spawn(move || {
            for (k, &d) in due.iter().enumerate() {
                let due_at = origin + Duration::from_secs_f64(d / 1e3);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let t_sent = Instant::now();
                let row = k % rows.len();
                let r = client.try_submit(&rows[row]);
                let t_submitted = Instant::now();
                if tx.send((k, row, due_at, t_sent, t_submitted, r)).is_err() {
                    return;
                }
            }
        });
        for (k, row, due_at, t_sent, t_submitted, r) in rx {
            let reply = r.ok().and_then(|p| {
                let w0 = Instant::now();
                let res = p.wait();
                let done = Instant::now();
                let id = request_base + k as u64;
                if tr.enabled() && k.is_multiple_of(2) {
                    let root = tr.record("request", None, id, due_at, done);
                    tr.record("client.try_submit", root, id, t_sent, t_submitted);
                    tr.record("pending.wait", root, id, w0, done);
                }
                let rep = res.ok()?;
                if tr.enabled() {
                    let l = ms(done - due_at);
                    if k.is_multiple_of(2) {
                        &mut traced.0
                    } else {
                        &mut traced.1
                    }
                    .push(l);
                }
                let out = *rep.report.output.first()?;
                Some((at(done), rep.bucket, out.to_bits()))
            });
            sent.push(Sent {
                row,
                due_ms: at(due_at),
                sent_ms: at(t_sent),
                submit_us: ms(t_submitted - t_sent) * 1e3,
                reply,
            });
        }
        gen.join().expect("generator thread panicked");
    });
    let stats = server.shutdown();
    let (answered_sent, done): (Vec<f64>, Vec<f64>) = sent
        .iter()
        .filter_map(|s| s.reply.map(|r| (s.sent_ms, r.0)))
        .unzip();
    Ok(Phase {
        max_in_flight: openloop::max_in_flight(&answered_sent, &done),
        sent,
        served: stats.completed - warm.completed,
        passes: stats.batches - warm.batches,
        traced,
    })
}

/// Joins the segments of one rate into one phase. Latencies stay
/// comparable: each request's due and done times share its segment's
/// origin.
fn join(segments: Vec<Phase>) -> Phase {
    let mut all = Phase {
        sent: Vec::new(),
        served: 0,
        passes: 0,
        max_in_flight: 0,
        traced: (Vec::new(), Vec::new()),
    };
    for p in segments {
        all.sent.extend(p.sent);
        all.served += p.served;
        all.passes += p.passes;
        all.max_in_flight = all.max_in_flight.max(p.max_in_flight);
        all.traced.0.extend(p.traced.0);
        all.traced.1.extend(p.traced.1);
    }
    all
}

/// Per-request queue wait estimate (ms): latency minus the measured
/// pass time at the bucket the request's batch ran at.
fn queue_wait_ms(phase: &Phase, pass_ms: &HashMap<u64, f64>) -> Vec<f64> {
    phase
        .sent
        .iter()
        .filter_map(|s| {
            let (done, bucket, _) = s.reply?;
            Some(done - s.due_ms - pass_ms.get(&bucket).copied().unwrap_or(0.0))
        })
        .collect()
}

/// `pass_ms` maps bucket → measured pass time (traced runs; empty
/// otherwise).
pub fn run(seed: u64, seconds: f64, tr: &mut Trace, pass_ms: &HashMap<u64, f64>) -> Res<RunResult> {
    let rows: Vec<Matrix> = (0..ROW_POOL as u64)
        .map(|i| inputs::dlrm_rows(seed, 0, i, 1))
        .collect();

    let (base, setups) = set_up(|| {
        let s = session();
        for b in BUCKETS {
            tr.time(&format!("session.compile.b{b}"), None, 0, || {
                s.compiled_for_bucket(b)
            });
        }
        let srv = server(&s);
        tr.time("server.warmup", None, 0, || warm_up(&srv, &rows))?;
        srv.shutdown();
        Ok(s)
    })?;

    // The low and high rates each get a quarter of the run, in
    // alternating segments, so a slow spell of the host lands on both
    // and on a fraction of each one's samples.
    let segment = Duration::from_secs_f64(seconds / 4.0 / SEGMENTS as f64);
    let (mut low, mut high) = (Vec::new(), Vec::new());
    for i in 0..SEGMENTS as u64 {
        low.push(run_phase(
            &base,
            &rows,
            LOW_RATE,
            segment,
            tr,
            (2 * i + 1) << 32,
        )?);
        high.push(run_phase(
            &base,
            &rows,
            HIGH_RATE,
            segment,
            tr,
            (2 * i + 2) << 32,
        )?);
    }
    let (low, high) = (join(low), join(high));
    let step_len = Duration::from_secs_f64(seconds / 20.0);
    // Each rate that misses is run once more before the climb stops:
    // one slow second on a shared host must not end the ladder.
    let mut steps = Vec::new();
    let mut trials = Vec::new();
    let mut ladder = Vec::new();
    let mut rate = HIGH_RATE;
    let mut retried = false;
    while ladder.len() < LADDER_MAX_TRIALS {
        let id = (2 * SEGMENTS as u64 + 1 + ladder.len() as u64) << 32;
        let p = run_phase(&base, &rows, rate, step_len, tr, id)?;
        let lat = p.latency_from_due();
        let step = Step {
            rate,
            p99_ms: if lat.is_empty() {
                f64::INFINITY
            } else {
                nearest_rank(&sorted(lat.clone()), 0.99)
            },
            refused: p.failed(),
            backlog_growing: openloop::backlog_growing(&lat),
        };
        ladder.push(p);
        trials.push(step);
        if !step.passes(P99_LIMIT_MS) && !retried {
            retried = true;
            continue;
        }
        steps.push(step);
        if !step.passes(P99_LIMIT_MS) {
            break;
        }
        retried = false;
        rate *= LADDER_RATIO;
    }
    let goodput = openloop::goodput(&steps, P99_LIMIT_MS)
        .ok_or_else(|| format!("the first ladder step ({HIGH_RATE} req/s) missed the limit"))?;

    // Correctness, outside the timed phases: every reply equals a solo
    // `Session::serve` of its row, byte for byte. The solo serves are
    // also the no-server baseline latency.
    let solo = base.shard();
    let mut solo_lat = Vec::new();
    let mut want = vec![None; rows.len()];
    for p in [&low, &high].into_iter().chain(&ladder) {
        for s in &p.sent {
            let Some((_, _, got)) = s.reply else { continue };
            if want[s.row].is_none() {
                let t = Instant::now();
                let r = solo
                    .serve(&rows[s.row])
                    .map_err(|e| format!("solo serve of row {}: {e}", s.row))?;
                solo_lat.push(ms_since(t));
                want[s.row] = Some(r.report.output[0].to_bits());
            }
            if want[s.row] != Some(got) {
                return Err(format!(
                    "row {}: server reply {got:#x} differs from solo serve {:#x}",
                    s.row,
                    want[s.row].unwrap_or_default()
                ));
            }
        }
    }

    // The same work without the server: full bucket-32 batches through
    // `Session::serve` (the first checked row by row against the solo
    // replies above), and 1-row requests through `infer_into` of the
    // bucket-8 model, without the session.
    let mut batch_lat = Vec::with_capacity(BATCHES);
    for i in 0..BATCHES {
        let batch = Matrix::from_fn(32, rows[0].cols, |r, c| {
            rows[(32 * i + r) % rows.len()].get(0, c)
        });
        let t = Instant::now();
        let r = solo
            .serve(&batch)
            .map_err(|e| format!("solo serve of batch {i}: {e}"))?;
        batch_lat.push(ms_since(t));
        if i == 0 {
            for (k, v) in r.report.output.iter().enumerate() {
                if want[k % rows.len()].is_some_and(|w| w != v.to_bits()) {
                    return Err(format!("batch row {k} differs from its solo serve"));
                }
            }
        }
    }
    let b8 = base.compiled_for_bucket(8);
    let mut ws = Workspace::new();
    let mut infer_lat = Vec::with_capacity(rows.len());
    for row in &rows {
        let t = Instant::now();
        std::hint::black_box(b8.infer_into(row, None, &mut ws));
        infer_lat.push(ms_since(t));
    }

    let attempted: u64 = [&low, &high]
        .into_iter()
        .chain(&ladder)
        .map(|p| p.sent.len() as u64)
        .sum();
    let failed: u64 = [&low, &high]
        .into_iter()
        .chain(&ladder)
        .map(Phase::failed)
        .sum();
    let ok = attempted - failed;
    let (sl, sh) = (
        summary("low", &low.latency_from_due())?,
        summary("high", &high.latency_from_due())?,
    );
    let mut out = RunResult {
        attempted,
        failed,
        ..Default::default()
    };
    out.e2e.put("setup_s", "s", median_setup_s(&setups));
    // Open-loop latencies swing with the host's CPU steal (idle-CPU
    // wake-ups sit on their path), so they are per-layer metrics; the
    // end-to-end roles hold the same requests served without the server.
    out.e2e
        .put("p50_ms", "ms", median(&sorted(solo_lat.clone())));
    out.layer.put("serve.p50_ms.low", "ms", sl.p50);
    out.layer.put("tail_ms", "ms", sl.tail);
    out.e2e.put("alt_p50_ms", "ms", median(&sorted(batch_lat)));
    out.layer.put("serve.p50_ms.high", "ms", sh.p50);
    out.layer.put("alt_tail_ms", "ms", sh.tail);
    out.e2e.put("base_p50_ms", "ms", median(&sorted(infer_lat)));
    out.e2e.put("goodput_rps", "req/s", goodput);
    out.e2e.put("ok_frac", "frac", ok as f64 / attempted as f64);
    out.e2e
        .put("exact_frac", "frac", ok as f64 / attempted as f64);
    out.e2e
        .put("trusted_frac", "frac", ok as f64 / attempted as f64);

    let mut late = 0.0f64;
    for (name, p) in [("low", &low), ("high", &high)] {
        let (due, sent): (Vec<f64>, Vec<f64>) =
            p.sent.iter().map(|s| (s.due_ms, s.sent_ms)).unzip();
        late = late.max(openloop::late_max_ms(&due, &sent));
        let submit: Vec<f64> = p.sent.iter().map(|s| s.submit_us).collect();
        let replies: Vec<_> = p.sent.iter().filter_map(|s| s.reply).collect();
        let raw: Vec<f64> = p
            .sent
            .iter()
            .filter_map(|s| s.reply.map(|r| r.0 - s.sent_ms))
            .collect();
        let rows_per_pass = p.served as f64 / p.passes.max(1) as f64;
        let mean_bucket =
            replies.iter().map(|r| r.1 as f64).sum::<f64>() / replies.len().max(1) as f64;
        let qw = queue_wait_ms(p, pass_ms);
        out.layer.put(
            format!("serve.submit_us.{name}"),
            "us",
            median(&sorted(submit)),
        );
        out.layer.put(
            format!("serve.queue_wait_ms.{name}"),
            "ms",
            if pass_ms.is_empty() || qw.is_empty() {
                0.0
            } else {
                nearest_rank(&sorted(qw), 0.99)
            },
        );
        out.layer
            .put(format!("serve.rows_per_pass.{name}"), "rows", rows_per_pass);
        out.layer.put(
            format!("serve.bucket_fill.{name}"),
            "frac",
            rows_per_pass / mean_bucket.max(1.0),
        );
        out.layer.put(
            format!("serve.max_in_flight.{name}"),
            "count",
            p.max_in_flight as f64,
        );
        out.layer
            .put(format!("serve.failed.{name}"), "count", p.failed() as f64);
        // The server's own log2 histogram also holds the warm-up and
        // cannot be reset, so the same histogram type is filled with
        // this phase's raw samples: the two p99s differ only by the
        // quantile method.
        let hist = LatencyHistogram::new();
        for r in &raw {
            hist.record_ns((r * 1e6) as u64);
        }
        out.layer.put(
            format!("serve.hist_p99_ms.{name}"),
            "ms",
            hist.p99_ns() as f64 / 1e6,
        );
        out.layer.put(
            format!("serve.raw_p99_ms.{name}"),
            "ms",
            nearest_rank(&sorted(raw), 0.99),
        );
    }
    out.layer.put("gen.late_max_ms", "ms", late);
    let (builds, hits) = (base.stats().plan_builds, base.stats().cache_hits);
    out.layer.put("session.plan_builds", "count", builds as f64);
    out.layer.put("session.cache_hits", "count", hits as f64);
    out.layer.put(
        "trace.overhead_pct",
        "pct",
        overhead_pct(&low.traced.0, &low.traced.1),
    );

    out.notes
        .push(describe(&format!("low {LOW_RATE} req/s"), &sl));
    out.notes
        .push(describe(&format!("high {HIGH_RATE} req/s"), &sh));
    for s in &trials {
        out.notes.push(format!(
            "ladder {:.0} req/s: p99 {:.2} ms, failed {}, backlog growing {} -> {}",
            s.rate,
            s.p99_ms,
            s.refused,
            s.backlog_growing,
            if s.passes(P99_LIMIT_MS) {
                "pass"
            } else {
                "miss"
            }
        ));
    }
    out.notes.push(format!(
        "solo baseline: n={} rows; set-ups (s): {setups:.3?}",
        solo_lat.len()
    ));
    Ok(out)
}
