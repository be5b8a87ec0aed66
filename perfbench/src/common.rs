//! Types and helpers shared by the workloads.

use aiga::prelude::*;
use aiga_perfbench::inputs::{DLRM_DIM, DLRM_TABLES, DLRM_TABLE_ROWS, IMAGE_SIDE};
use aiga_perfbench::stats::Summary;
use aiga_perfbench::trace::Trace;
use std::time::{Duration, Instant};

/// A failed correctness check or an unusable measurement.
pub type Res<T> = Result<T, String>;

/// Weight seeds: the models are fixed; only the requests vary with
/// `--seed`.
pub const SQUEEZE_WEIGHTS: u64 = 7;
pub const DLRM_WEIGHTS: u64 = 5;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The three protection configurations the paper compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cfg {
    /// The default intensity-guided planner.
    Planned,
    /// Uniform global ABFT.
    Global,
    /// No protection.
    Unprotected,
}

pub const CFGS: [Cfg; 3] = [Cfg::Planned, Cfg::Global, Cfg::Unprotected];

impl Cfg {
    pub fn name(self) -> &'static str {
        match self {
            Cfg::Planned => "planned",
            Cfg::Global => "global",
            Cfg::Unprotected => "unprotected",
        }
    }

    pub fn planner(self) -> Planner {
        let p = Planner::new(DeviceSpec::t4());
        match self {
            Cfg::Planned => p,
            Cfg::Global => p.candidates([Scheme::GlobalAbft]),
            Cfg::Unprotected => p.candidates([Scheme::Unprotected]),
        }
    }
}

pub fn squeeze_net(batch: u64) -> Network {
    let side = IMAGE_SIDE as u64;
    zoo::squeezenet_v11_net(batch, side, side, SQUEEZE_WEIGHTS)
}

pub fn dlrm_net(batch: u64) -> Network {
    zoo::dlrm_net(batch, DLRM_TABLES, DLRM_TABLE_ROWS, DLRM_DIM, DLRM_WEIGHTS)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (reported with `--trace 0`).
    pub e2e: Metrics,
    /// This workload's own per-layer metrics (reported with `--trace 1`).
    pub layer: Metrics,
    /// Human-readable lines: sample counts, tail percentiles, notes.
    pub notes: Vec<String>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ms_since(t: Instant) -> f64 {
    ms(t.elapsed())
}

pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Median and tail of a latency stream, or an error naming it when the
/// run was too short to give a tail.
pub fn summary(what: &str, samples: &[f64]) -> Res<Summary> {
    Summary::of(samples).ok_or_else(|| {
        format!(
            "{what}: {} samples are too few for a tail; lengthen --seconds",
            samples.len()
        )
    })
}

/// Runs `SETUPS` fresh set-ups; returns the last one's result and the
/// duration of each (s).
pub fn set_up<T>(mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS is positive"), times))
}

/// Builds one session per configuration, compiles its bucket and serves
/// one warm-up request through it, each recorded as a span.
pub fn warm_sessions(
    tr: &mut Trace,
    cfgs: &[Cfg],
    bucket: u64,
    warm: &Matrix,
    make: impl Fn(Cfg) -> Session,
) -> Res<Vec<Session>> {
    cfgs.iter()
        .map(|&cfg| {
            let s = make(cfg);
            tr.time(&format!("session.compile.{}", cfg.name()), None, 0, || {
                s.compiled_for_bucket(bucket)
            });
            tr.time(&format!("session.warmup.{}", cfg.name()), None, 0, || {
                s.serve(warm)
            })
            .map_err(|e| format!("warm-up {}: {e}", cfg.name()))?;
            Ok(s)
        })
        .collect()
}

/// The median set-up time, in seconds.
pub fn median_setup_s(setups: &[f64]) -> f64 {
    aiga_perfbench::stats::median(&aiga_perfbench::stats::sorted(setups.to_vec()))
}

/// Relative tracing overhead (%) on one latency stream: median of the
/// traced requests against the median of the untraced ones.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    use aiga_perfbench::stats::{median, sorted};
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    let (t, u) = (
        median(&sorted(traced.to_vec())),
        median(&sorted(untraced.to_vec())),
    );
    100.0 * (t - u) / u
}

/// A line describing one latency stream.
pub fn describe(what: &str, s: &Summary) -> String {
    format!(
        "{what}: n={} p50={:.3} ms tail=p{:.2} {:.3} ms",
        s.n, s.p50, s.tail_pct, s.tail
    )
}
