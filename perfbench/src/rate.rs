//! Open-loop step judging and the sustained-rate search.
//!
//! A rate step offers requests on a fixed schedule and records, per
//! request, when it was due and when its response arrived. The step
//! passes when its tail latency (timed from the due time) stays under
//! the latency limit and the backlog is not growing. The tail is the
//! p99 when the step has the samples to resolve it, else the highest
//! percentile it resolves (see [`tail_level`]). The search looks for
//! the highest offered rate that passes.

use crate::stats::{nearest_rank, sorted, tail_level};

/// What one open-loop step at a fixed offered rate observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub offered_rps: f64,
    /// Answered requests per second over the step, from the first due
    /// time to the last answer. A refused request has an infinite
    /// completion time: it misses every latency limit.
    pub achieved_rps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// The judged tail: percentile level and latency.
    pub tail_q: f64,
    pub tail_ms: f64,
    pub samples: usize,
    /// In-flight requests (sent, not yet answered) at the checkpoints
    /// of [`inflight_checkpoints`].
    pub inflight: Vec<usize>,
    pub backlog: bool,
}

/// Fractions of the sending window at which in-flight is sampled.
const CHECKPOINTS: [f64; 3] = [0.5, 0.75, 1.0];

/// In-flight at each checkpoint, from due and completion times (s).
fn inflight_checkpoints(due_s: &[f64], done_s: &[f64]) -> Vec<usize> {
    let (first, last) = (due_s[0], due_s[due_s.len() - 1]);
    CHECKPOINTS
        .iter()
        .map(|f| {
            let t = first + f * (last - first);
            let sent = due_s.iter().filter(|&&d| d <= t).count();
            let done = done_s.iter().filter(|&&d| d <= t).count();
            sent.saturating_sub(done)
        })
        .collect()
}

/// A backlog is growing when in-flight rises at every checkpoint and
/// ends above what the latency limit allows at this rate (Little's
/// law: rate × limit).
fn backlog_growing(inflight: &[usize], offered_rps: f64, limit_ms: f64) -> bool {
    let allowed = (offered_rps * limit_ms * 1e-3).max(2.0);
    let rising = inflight.windows(2).all(|w| w[1] > w[0]);
    rising && inflight.last().is_some_and(|&n| n as f64 > allowed)
}

impl Step {
    /// Judges one step from per-request due and completion times, s.
    pub fn from_times(offered_rps: f64, due_s: &[f64], done_s: &[f64], limit_ms: f64) -> Self {
        assert!(!due_s.is_empty() && due_s.len() == done_s.len());
        let lat = sorted(
            due_s
                .iter()
                .zip(done_s)
                .map(|(d, c)| (c - d).max(0.0) * 1e3)
                .collect(),
        );
        let last_done = done_s
            .iter()
            .cloned()
            .filter(|d| d.is_finite())
            .fold(due_s[0], f64::max);
        let span = (last_done - due_s[0]).max(1e-9);
        let inflight = inflight_checkpoints(due_s, done_s);
        // Too few samples to resolve any tail: judge on the maximum.
        let tail_q = tail_level(lat.len()).unwrap_or(1.0);
        Self {
            offered_rps,
            achieved_rps: done_s.iter().filter(|d| d.is_finite()).count() as f64 / span,
            p50_ms: nearest_rank(&lat, 0.5),
            p99_ms: nearest_rank(&lat, 0.99),
            tail_q,
            tail_ms: nearest_rank(&lat, tail_q),
            samples: lat.len(),
            backlog: backlog_growing(&inflight, offered_rps, limit_ms),
            inflight,
        }
    }

    pub fn passes(&self, limit_ms: f64) -> bool {
        !self.backlog && self.tail_ms <= limit_ms
    }
}

/// Searches `[lo, hi]` for the highest offered rate whose step passes,
/// with at most `probes` steps: `lo` first, then `hi`, then geometric
/// bisection. Returns every step run and the index of the highest
/// passing one (`None` when even `lo` fails).
pub fn search(
    lo: f64,
    hi: f64,
    probes: usize,
    limit_ms: f64,
    mut probe: impl FnMut(f64) -> Step,
) -> (Vec<Step>, Option<usize>) {
    assert!(probes >= 2 && lo > 0.0 && hi > lo);
    let mut steps = Vec::new();
    let mut run = |rate: f64, steps: &mut Vec<Step>| {
        steps.push(probe(rate));
        steps.len() - 1
    };
    let first = run(lo, &mut steps);
    if !steps[first].passes(limit_ms) {
        return (steps, None);
    }
    let mut best = first;
    let top = run(hi, &mut steps);
    if steps[top].passes(limit_ms) {
        return (steps, Some(top));
    }
    let (mut good, mut bad) = (lo, hi);
    for _ in 2..probes {
        let mid = (good * bad).sqrt();
        let i = run(mid, &mut steps);
        if steps[i].passes(limit_ms) {
            good = mid;
            best = i;
        } else {
            bad = mid;
        }
    }
    (steps, Some(best))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic single-server FIFO with a fixed service time, fed on
    /// an evenly spaced open-loop schedule (Lindley recursion).
    fn fixed_service_step(rate: f64, service_s: f64, n: usize, limit_ms: f64) -> Step {
        let due: Vec<f64> = (0..n).map(|i| i as f64 / rate).collect();
        let mut done = Vec::with_capacity(n);
        let mut free_at = 0.0f64;
        for &d in &due {
            free_at = free_at.max(d) + service_s;
            done.push(free_at);
        }
        Step::from_times(rate, &due, &done, limit_ms)
    }

    #[test]
    fn under_capacity_latency_is_the_service_time() {
        let s = fixed_service_step(50.0, 0.010, 1000, 50.0);
        assert!((s.p99_ms - 10.0).abs() < 1e-9);
        assert!((s.p50_ms - 10.0).abs() < 1e-9);
        assert!(!s.backlog && s.passes(50.0));
        assert!(s.inflight.iter().all(|&n| n <= 1));
    }

    #[test]
    fn over_capacity_backlog_grows_and_fails() {
        let s = fixed_service_step(150.0, 0.010, 1000, 50.0);
        assert!(s.backlog, "in-flight {:?}", s.inflight);
        assert!(!s.passes(50.0));
        assert!((s.achieved_rps - 100.0).abs() < 1.0, "{}", s.achieved_rps);
    }

    #[test]
    fn search_finds_the_fixed_service_capacity() {
        // Capacity is 100 req/s; an evenly spaced schedule below it
        // never queues, above it the queue grows without bound.
        let (steps, best) = search(20.0, 400.0, 8, 50.0, |r| {
            fixed_service_step(r, 0.010, 600, 50.0)
        });
        assert_eq!(steps.len(), 8);
        let best = &steps[best.expect("lo passes")];
        assert!(best.offered_rps <= 100.0, "{}", best.offered_rps);
        assert!(best.offered_rps > 85.0, "{}", best.offered_rps);
        for s in &steps {
            if s.offered_rps <= 100.0 {
                assert!(s.passes(50.0), "{s:?}");
            } else if s.offered_rps >= 105.0 {
                assert!(!s.passes(50.0), "{s:?}");
            }
        }
    }

    #[test]
    fn refused_requests_miss_the_limit() {
        let due: Vec<f64> = (0..1000).map(|i| i as f64 / 50.0).collect();
        let mut done: Vec<f64> = due.iter().map(|d| d + 0.010).collect();
        for d in done.iter_mut().step_by(50) {
            *d = f64::INFINITY;
        }
        let s = Step::from_times(50.0, &due, &done, 50.0);
        assert_eq!(s.tail_q, 0.99);
        assert!(s.p99_ms.is_infinite() && !s.passes(50.0));
        assert!(
            (s.achieved_rps - 980.0 / 19.99).abs() < 0.1,
            "{}",
            s.achieved_rps
        );
    }

    #[test]
    fn short_steps_are_judged_on_a_resolved_percentile() {
        let s = fixed_service_step(50.0, 0.010, 300, 50.0);
        assert_eq!(s.tail_q, 0.95);
        assert!((s.tail_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn search_reports_none_when_the_floor_fails() {
        let (steps, best) = search(200.0, 400.0, 5, 50.0, |r| {
            fixed_service_step(r, 0.010, 600, 50.0)
        });
        assert_eq!(steps.len(), 1);
        assert!(best.is_none());
    }
}
