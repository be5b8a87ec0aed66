//! Quantiles from raw samples.
//!
//! Every quantile is nearest-rank over the raw samples: the value at
//! 1-based rank `⌈q·n⌉`. No histogram or interpolation sits between the
//! samples and the reported number.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile a tail is ever reported at.
pub const TAIL_CAP_PCT: f64 = 99.0;

/// Sorts samples ascending (NaN-safe total order).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank quantile of ascending samples: the value at 1-based
/// rank `⌈q·n⌉`, clamped into `[1, n]`. Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    // The epsilon keeps q = r/n (computed in floating point) on rank r.
    let rank = ((q * n as f64) - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median by nearest rank.
pub fn median(sorted: &[f64]) -> f64 {
    nearest_rank(sorted, 0.5)
}

/// The tail of a sample: the highest percentile, capped at
/// [`TAIL_CAP_PCT`], with at least [`TAIL_BEYOND`] samples beyond it.
/// Returns `(percentile, value)`, or `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let pct = (100.0 * (n - TAIL_BEYOND) as f64 / n as f64).min(TAIL_CAP_PCT);
    Some((pct, nearest_rank(sorted, pct / 100.0)))
}

/// Median and tail of one latency stream, with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarizes raw samples. `None` when the tail rule has too few
    /// samples to apply.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let s = sorted(samples.to_vec());
        let (tail_pct, tail) = tail(&s)?;
        Some(Summary {
            n: s.len(),
            p50: median(&s),
            tail_pct,
            tail,
        })
    }
}
