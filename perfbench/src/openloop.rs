//! Open-loop accounting: arrival schedules, lateness, latency from the
//! due time, backlog growth, and goodput-ladder selection.

/// Due offsets (ms from phase start) of a fixed-rate schedule covering
/// `duration_ms`: request `k` is due at `k / rate`.
pub fn schedule_ms(rate_per_s: f64, duration_ms: f64) -> Vec<f64> {
    let n = (rate_per_s * duration_ms / 1e3).floor() as usize;
    (0..n).map(|k| k as f64 * 1e3 / rate_per_s).collect()
}

/// How late the generator ran: the largest `sent − due` (ms, ≥ 0).
pub fn late_max_ms(due_ms: &[f64], sent_ms: &[f64]) -> f64 {
    due_ms
        .iter()
        .zip(sent_ms)
        .map(|(d, s)| s - d)
        .fold(0.0, f64::max)
}

/// Latency of each request measured from when it was *due*, not from
/// when it was sent, so a generator stall counts against every request
/// it delayed.
pub fn latency_from_due_ms(due_ms: &[f64], done_ms: &[f64]) -> Vec<f64> {
    due_ms.iter().zip(done_ms).map(|(d, t)| t - d).collect()
}

/// The most requests in the system (sent, not yet answered) that any
/// request found when it was sent. `sent_ms` holds answered requests'
/// send times in send order; `done_ms` their completion times, any order.
pub fn max_in_flight(sent_ms: &[f64], done_ms: &[f64]) -> usize {
    let mut done = done_ms.to_vec();
    done.sort_by(f64::total_cmp);
    sent_ms
        .iter()
        .enumerate()
        .map(|(k, &t)| k.saturating_sub(done.partition_point(|&d| d <= t)))
        .max()
        .unwrap_or(0)
}

/// True when latency climbs across a phase: the median of the last
/// quarter of requests (in send order) exceeds twice the first
/// quarter's median plus 5 ms. A server that keeps up holds latency
/// flat; one that falls behind queues more with every request, by far
/// more than a brief stall of the host adds.
pub fn backlog_growing(latency_in_send_order_ms: &[f64]) -> bool {
    let n = latency_in_send_order_ms.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let med = |s: &[f64]| crate::stats::median(&crate::stats::sorted(s.to_vec()));
    let first = med(&latency_in_send_order_ms[..q]);
    let last = med(&latency_in_send_order_ms[n - q..]);
    last > 2.0 * first + 5.0
}

/// One rate step of the goodput ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    pub rate: f64,
    pub p99_ms: f64,
    pub refused: u64,
    pub backlog_growing: bool,
}

impl Step {
    /// A step passes when nothing was refused or failed, p99 meets the
    /// limit, and the backlog did not grow.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.refused == 0 && self.p99_ms <= limit_ms && !self.backlog_growing
    }
}

/// Goodput: the highest rate of the ladder's passing prefix (the climb
/// stops at the first failing step). `None` when the first step fails.
pub fn goodput(steps: &[Step], limit_ms: f64) -> Option<f64> {
    steps
        .iter()
        .take_while(|s| s.passes(limit_ms))
        .map(|s| s.rate)
        .last()
}
