//! Deterministic parallel scenario sweeps for the aeropack workspace.
//!
//! Every headline result of the reproduction is a *sweep*: the Fig 10
//! ΔT-vs-power curves, the harmonic transmissibility and random-PSD
//! frequency grids, the tilt/altitude ablations. Each point is an
//! independent solve, which makes the grid embarrassingly parallel —
//! but only if parallelism does not perturb the numbers. This crate
//! provides the one runner everything routes through:
//!
//! * [`Sweep::map`] — evaluates a scenario list across worker threads
//!   using [`std::thread::scope`] with **contiguous block
//!   partitioning** (no work stealing, no channels). Scenario `i`
//!   always lands in result slot `i`, each scenario is evaluated by
//!   exactly one deterministic closure call, and results are bitwise
//!   identical at any thread count.
//! * [`Sweep::map_stats`] — the same runner for closures that also
//!   report per-scenario [`ScenarioStats`]; the per-point records are
//!   aggregated into a [`SweepStats`] roll-up (total solver
//!   iterations, accumulated solve time, pattern-cache hits).
//! * [`Sweep::from_env`] — thread-count configuration from the
//!   `AEROPACK_THREADS` environment variable.
//!
//! # Determinism contract
//!
//! The runner never reorders, splits or merges scenario evaluations.
//! Whether results are bitwise identical across thread counts is
//! therefore exactly the closure's property: a closure whose output
//! depends only on its scenario (plus shared read-only state) is
//! reproducible by construction. All aeropack consumers are written
//! that way, and the workspace's tier-1 determinism tests pin it.
//!
//! # Example
//!
//! ```
//! use aeropack_sweep::Sweep;
//!
//! let powers: Vec<f64> = (0..32).map(|i| 10.0 + i as f64 * 5.0).collect();
//! let squares = Sweep::new(4).map(&powers, |&p| p * p);
//! assert_eq!(squares[3], powers[3] * powers[3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

use aeropack_solver::SolverStats;

/// Environment variable read by [`Sweep::from_env`] to pick the worker
/// thread count.
pub const THREADS_ENV: &str = "AEROPACK_THREADS";

/// Default minimum number of scenarios each worker must receive before
/// the runner spawns threads at all (see [`Sweep::with_grain`]).
/// Scenario sweeps in this workspace are dominated by expensive solves,
/// so a low default keeps genuine parallelism; cheap closed-form grids
/// (the harmonic transfer sum) raise it via [`Sweep::grain_hint`].
pub const DEFAULT_GRAIN: usize = 2;

/// A deterministic parallel runner for scenario grids.
///
/// Construction picks the worker count; [`Sweep::map`] /
/// [`Sweep::map_stats`] then evaluate any number of scenario lists with
/// it. The runner is trivially `Copy` — it owns no threads; workers are
/// scoped to each call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    threads: usize,
    /// Minimum scenarios per worker before threads are spawned;
    /// `None` means [`DEFAULT_GRAIN`] and lets callers hint.
    grain: Option<usize>,
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Per-call execution metrics collected by the runner itself: how many
/// workers actually ran and how long each contiguous block took.
struct RunMetrics {
    workers: usize,
    block_times: Vec<Duration>,
}

impl Sweep {
    /// A runner with an explicit worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            grain: None,
        }
    }

    /// A serial runner — the reference the determinism tests compare
    /// against.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Reads the worker count from `AEROPACK_THREADS`, falling back to
    /// the machine's available parallelism when the variable is unset
    /// or unparseable (see [`Sweep::from_env_value`] for the exact
    /// parsing contract).
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var(THREADS_ENV).ok().as_deref())
    }

    /// The pure parsing half of [`Sweep::from_env`], testable without
    /// mutating the process environment: `Some("4")` (whitespace
    /// tolerated) selects 4 workers; `None`, `Some("0")` and anything
    /// unparseable (`"garbage"`, `""`, `"-2"`) fall back to the
    /// machine's available parallelism.
    pub fn from_env_value(value: Option<&str>) -> Self {
        let threads = value
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self::new(threads)
    }

    /// The configured worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pins the minimum number of scenarios per worker (clamped to
    /// ≥ 1). Below `grain` scenarios per worker the runner evaluates
    /// serially on the calling thread instead of spawning — thread
    /// spawn/join overhead otherwise dominates tiny grids (the checked
    /// benchmark history shows the 257-point harmonic sweep at 0.33×
    /// with 2 threads). An explicit grain overrides any later
    /// [`Sweep::grain_hint`], which is how the determinism tests force
    /// genuine parallelism with `with_grain(1)`.
    #[must_use]
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain.max(1));
        self
    }

    /// Suggests a grain for cheap per-scenario workloads, applied only
    /// when no explicit [`Sweep::with_grain`] was set. Library code on
    /// closed-form paths (e.g. the harmonic transfer sum) hints large
    /// grains without clobbering caller overrides.
    #[must_use]
    pub fn grain_hint(mut self, grain: usize) -> Self {
        if self.grain.is_none() {
            self.grain = Some(grain.max(1));
        }
        self
    }

    /// The effective minimum scenarios per worker.
    pub fn grain(&self) -> usize {
        self.grain.unwrap_or(DEFAULT_GRAIN)
    }

    /// How many workers a sweep over `n` scenarios will actually use:
    /// the configured thread count, capped so every worker gets at
    /// least [`Sweep::grain`] scenarios. `1` means the serial fast
    /// path (no threads spawned).
    pub fn effective_workers(&self, n: usize) -> usize {
        self.threads.min((n / self.grain()).max(1))
    }

    /// Evaluates `f` over every scenario, in parallel, preserving input
    /// order in the returned vector: `out[i] = f(&scenarios[i])`.
    ///
    /// Scenarios are partitioned into contiguous blocks, one per
    /// worker, so the assignment of scenario to thread is a pure
    /// function of `(len, threads)` — deterministic, no work stealing.
    /// Each worker reuses whatever state `f` builds internally only
    /// through `f`'s own captures; give workers reusable scratch (e.g.
    /// a [`PcgWorkspace`](aeropack_solver::PcgWorkspace)) by keeping it
    /// inside `f` behind a `thread_local!` or by using
    /// [`Sweep::map_with`].
    pub fn map<S, R, F>(&self, scenarios: &[S], f: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&S) -> R + Sync,
    {
        self.map_with(scenarios, || (), |(), s| f(s))
    }

    /// [`Sweep::map`] with per-worker state: `init` runs once on each
    /// worker thread and the resulting scratch value is passed by
    /// mutable reference to every scenario that worker evaluates. This
    /// is how sweeps reuse solver workspaces without cross-thread
    /// sharing — each worker warms its own buffers once.
    pub fn map_with<S, R, W, I, F>(&self, scenarios: &[S], init: I, f: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &S) -> R + Sync,
    {
        self.run_with_metrics(scenarios, init, f).0
    }

    /// The one execution path behind [`Sweep::map`] / [`Sweep::map_with`]
    /// / [`Sweep::map_stats`]: evaluates the grid and measures each
    /// worker's block wall time. Timing and observability events never
    /// influence scheduling or results — the block partition is still a
    /// pure function of `(len, workers)`.
    fn run_with_metrics<S, R, W, I, F>(
        &self,
        scenarios: &[S],
        init: I,
        f: F,
    ) -> (Vec<R>, RunMetrics)
    where
        S: Sync,
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &S) -> R + Sync,
    {
        let n = scenarios.len();
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let workers = self.effective_workers(n);
        let _sweep_span = aeropack_obs::span!("sweep.map", scenarios = n, workers = workers);
        aeropack_obs::counter!("sweep.maps");
        aeropack_obs::counter!("sweep.scenarios", n);
        let mut block_times;
        if workers <= 1 {
            if self.threads > 1 {
                aeropack_obs::counter!("sweep.serial_fastpath");
            }
            let start = Instant::now();
            let mut scratch = init();
            for (slot, s) in out.iter_mut().zip(scenarios) {
                *slot = Some(f(&mut scratch, s));
            }
            block_times = vec![start.elapsed()];
        } else {
            // Captured once on the dispatching thread so workers record
            // into the same (possibly test-scoped) registry.
            let obs_sink = aeropack_obs::propagation_handle();
            let chunk = n.div_ceil(workers);
            block_times = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                let mut rest = out.as_mut_slice();
                let mut start = 0;
                let mut block_idx = 0usize;
                while start < n {
                    let end = (start + chunk).min(n);
                    let (block, tail) = rest.split_at_mut(end - start);
                    rest = tail;
                    let scenarios = &scenarios[start..end];
                    let init = &init;
                    let f = &f;
                    let obs_sink = obs_sink.clone();
                    handles.push(scope.spawn(move || {
                        let _sink = obs_sink.map(aeropack_obs::attach);
                        let _span = aeropack_obs::span!(
                            "sweep.worker",
                            block = block_idx,
                            scenarios = block.len()
                        );
                        let wall = Instant::now();
                        let mut scratch = init();
                        for (slot, s) in block.iter_mut().zip(scenarios) {
                            *slot = Some(f(&mut scratch, s));
                        }
                        wall.elapsed()
                    }));
                    start = end;
                    block_idx += 1;
                }
                for handle in handles {
                    block_times.push(handle.join().expect("sweep worker panicked"));
                }
            });
            for t in &block_times {
                aeropack_obs::histogram!("sweep.block_seconds", t.as_secs_f64());
            }
        }
        let results = out
            .into_iter()
            .map(|r| r.expect("worker filled every slot"))
            .collect();
        (
            results,
            RunMetrics {
                workers,
                block_times,
            },
        )
    }

    /// Evaluates scenarios that report per-point [`ScenarioStats`]
    /// alongside their result, and rolls the records up into a
    /// [`SweepStats`]. Ordering and determinism are exactly as in
    /// [`Sweep::map`].
    pub fn map_stats<S, R, F>(&self, scenarios: &[S], f: F) -> (Vec<R>, SweepStats)
    where
        S: Sync,
        R: Send,
        F: Fn(&S) -> (R, ScenarioStats) + Sync,
    {
        self.map_stats_with(scenarios, || (), |(), s| f(s))
    }

    /// [`Sweep::map_stats`] with per-worker state, exactly as
    /// [`Sweep::map_with`] extends [`Sweep::map`]: `init` runs once per
    /// worker thread and its scratch value is threaded through every
    /// scenario that worker evaluates. This is how solver-heavy sweeps
    /// (the FV power grids) give each worker one warm model clone — one
    /// symbolic assembly, one sized `PcgWorkspace`, one IC(0)
    /// factorization — instead of paying the setup per scenario.
    pub fn map_stats_with<S, R, W, I, F>(
        &self,
        scenarios: &[S],
        init: I,
        f: F,
    ) -> (Vec<R>, SweepStats)
    where
        S: Sync,
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &S) -> (R, ScenarioStats) + Sync,
    {
        let (pairs, metrics) = self.run_with_metrics(scenarios, init, f);
        let mut stats = SweepStats::new(self.threads);
        stats.engaged_workers = metrics.workers;
        stats.max_block_time = metrics
            .block_times
            .iter()
            .copied()
            .max()
            .unwrap_or_default();
        stats.min_block_time = metrics
            .block_times
            .iter()
            .copied()
            .min()
            .unwrap_or_default();
        let mut out = Vec::with_capacity(pairs.len());
        for (r, s) in pairs {
            stats.absorb(&s);
            out.push(r);
        }
        (out, stats)
    }
}

/// What one scenario cost: solver effort plus cache behaviour,
/// reported by the closure under [`Sweep::map_stats`] and rolled up
/// into [`SweepStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioStats {
    /// Linear-solver iterations spent on this scenario (0 for direct
    /// or closed-form scenarios).
    pub iterations: usize,
    /// Wall-clock time of the scenario's solves.
    pub solve_time: Duration,
    /// Symbolic-pattern cache hits (assemblies that skipped the CSR
    /// sort/merge).
    pub cache_hits: usize,
    /// Cache misses (full symbolic assemblies).
    pub cache_misses: usize,
    /// Whether every solve in the scenario converged.
    pub converged: bool,
}

impl ScenarioStats {
    /// A record for a scenario that needed no linear solve.
    pub fn trivial() -> Self {
        Self {
            converged: true,
            ..Self::default()
        }
    }

    /// Builds a record from one [`SolverStats`].
    pub fn from_solver(stats: &SolverStats) -> Self {
        Self {
            iterations: stats.iterations,
            solve_time: stats.wall_time,
            cache_hits: 0,
            cache_misses: 0,
            converged: stats.converged(),
        }
    }

    /// Folds another solve into this scenario's record.
    pub fn add_solve(&mut self, stats: &SolverStats) {
        self.iterations += stats.iterations;
        self.solve_time += stats.wall_time;
        self.converged &= stats.converged();
    }

    /// Records pattern-cache behaviour for this scenario.
    #[must_use]
    pub fn with_cache(mut self, hits: usize, misses: usize) -> Self {
        self.cache_hits = hits;
        self.cache_misses = misses;
        self
    }
}

/// The roll-up over a whole sweep: totals of every per-scenario
/// [`ScenarioStats`], ready for benchmark tables and JSON emission.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Scenarios evaluated.
    pub scenarios: usize,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Total linear-solver iterations across all scenarios.
    pub total_iterations: usize,
    /// Accumulated solver wall time (sum over scenarios — exceeds the
    /// sweep's elapsed wall time when workers overlap).
    pub total_solve_time: Duration,
    /// Total symbolic-pattern cache hits.
    pub cache_hits: usize,
    /// Total symbolic assemblies (cache misses).
    pub cache_misses: usize,
    /// Scenarios whose solves all converged.
    pub converged: usize,
    /// Workers that actually ran (1 when the grain-based serial fast
    /// path engaged; `threads` otherwise, unless the grid was small).
    pub engaged_workers: usize,
    /// Wall time of the slowest worker block — with
    /// [`SweepStats::min_block_time`], the sweep's load-imbalance
    /// signal.
    pub max_block_time: Duration,
    /// Wall time of the fastest worker block.
    pub min_block_time: Duration,
}

impl SweepStats {
    /// An empty roll-up for a sweep on `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Folds one scenario's record into the roll-up.
    pub fn absorb(&mut self, s: &ScenarioStats) {
        self.scenarios += 1;
        self.total_iterations += s.iterations;
        self.total_solve_time += s.solve_time;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.converged += usize::from(s.converged);
    }

    /// Whether every scenario converged.
    pub fn all_converged(&self) -> bool {
        self.converged == self.scenarios
    }

    /// Mean solver iterations per scenario.
    pub fn mean_iterations(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.scenarios as f64
        }
    }

    /// Whether more than one worker actually ran (false when the
    /// grain-based serial fast path engaged).
    pub fn parallel_engaged(&self) -> bool {
        self.engaged_workers > 1
    }

    /// Slowest-to-fastest worker block wall-time ratio (1.0 for a
    /// perfectly balanced or serial sweep; 0.0 before any run).
    pub fn block_imbalance(&self) -> f64 {
        let min = self.min_block_time.as_secs_f64();
        let max = self.max_block_time.as_secs_f64();
        if min > 0.0 {
            max / min
        } else if max > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios on {} thread(s): {} iterations ({:.1}/scenario), {:.2} ms solve time, cache {}/{} hits, {} converged",
            self.scenarios,
            self.threads,
            self.total_iterations,
            self.mean_iterations(),
            self.total_solve_time.as_secs_f64() * 1e3,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.converged,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let xs: Vec<usize> = (0..103).collect();
        let serial = Sweep::serial().map(&xs, |&x| x * x + 1);
        for threads in [2, 3, 4, 8, 16] {
            let par = Sweep::new(threads).map(&xs, |&x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(Sweep::new(4).map(&empty, |&x| x).is_empty());
        assert_eq!(Sweep::new(8).map(&[5u32], |&x| x + 1), vec![6]);
        // More threads than scenarios.
        assert_eq!(Sweep::new(64).map(&[1u32, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn map_with_gives_each_worker_private_scratch() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let out = Sweep::new(4).map_with(&xs, Vec::<f64>::new, |scratch, &x| {
            scratch.push(x); // private: no cross-worker interference
            x * 2.0 + scratch.len() as f64 * 0.0
        });
        let reference: Vec<f64> = xs.iter().map(|&x| x * 2.0).collect();
        assert_eq!(out, reference);
    }

    #[test]
    fn map_stats_rolls_up() {
        let xs: Vec<usize> = (0..10).collect();
        let (out, stats) = Sweep::new(3).map_stats(&xs, |&x| {
            let s = ScenarioStats {
                iterations: x,
                solve_time: Duration::from_micros(10),
                cache_hits: usize::from(x > 0),
                cache_misses: usize::from(x == 0),
                converged: true,
            };
            (x * 10, s)
        });
        assert_eq!(out[7], 70);
        assert_eq!(stats.scenarios, 10);
        assert_eq!(stats.total_iterations, 45);
        assert_eq!(stats.cache_hits, 9);
        assert_eq!(stats.cache_misses, 1);
        assert!(stats.all_converged());
        assert_eq!(stats.threads, 3);
        assert!((stats.mean_iterations() - 4.5).abs() < 1e-12);
        assert!(stats.to_string().contains("10 scenarios"));
    }

    #[test]
    fn map_stats_with_threads_worker_scratch_through_stats() {
        let xs: Vec<usize> = (0..20).collect();
        let (out, stats) = Sweep::new(4).with_grain(1).map_stats_with(
            &xs,
            || 0usize,
            |count, &x| {
                *count += 1; // private per-worker tally
                let s = ScenarioStats {
                    // Always 1 per scenario, but routed through the
                    // worker-local counter to prove the scratch is live.
                    iterations: usize::from(*count > 0),
                    converged: true,
                    ..ScenarioStats::default()
                };
                (x * 3, s)
            },
        );
        let reference: Vec<usize> = xs.iter().map(|&x| x * 3).collect();
        assert_eq!(out, reference);
        assert_eq!(stats.scenarios, 20);
        assert_eq!(stats.total_iterations, 20);
        assert!(stats.all_converged());
        assert_eq!(stats.engaged_workers, 4);
    }

    #[test]
    fn from_env_parses_thread_count() {
        // Avoid mutating the process environment (unsafe in newer
        // toolchains and racy under the parallel test runner): exercise
        // the fallback path plus the explicit constructor.
        assert!(Sweep::from_env().threads() >= 1);
        assert_eq!(Sweep::new(0).threads(), 1);
        assert_eq!(Sweep::new(6).threads(), 6);
    }

    #[test]
    fn serial_fastpath_engages_below_grain() {
        let xs: Vec<usize> = (0..8).collect();
        let sweep = Sweep::new(4).with_grain(100);
        assert_eq!(sweep.effective_workers(xs.len()), 1);
        let (out, stats) = sweep.map_stats(&xs, |&x| (x, ScenarioStats::trivial()));
        assert_eq!(out, xs);
        assert_eq!(stats.engaged_workers, 1);
        assert!(!stats.parallel_engaged());
        // An explicit grain of 1 forces genuine parallelism back on and
        // wins over any later hint; a hint fills in only when unset.
        let forced = Sweep::new(4).with_grain(1);
        assert_eq!(forced.effective_workers(xs.len()), 4);
        assert_eq!(forced.grain_hint(64).grain(), 1);
        assert_eq!(Sweep::new(4).grain_hint(64).grain(), 64);
        assert_eq!(Sweep::new(4).grain(), DEFAULT_GRAIN);
    }

    #[test]
    fn map_stats_records_block_metrics() {
        let xs: Vec<usize> = (0..12).collect();
        let (_, stats) = Sweep::new(3)
            .with_grain(1)
            .map_stats(&xs, |&x| (x, ScenarioStats::trivial()));
        assert_eq!(stats.engaged_workers, 3);
        assert!(stats.parallel_engaged());
        assert!(stats.max_block_time >= stats.min_block_time);
    }

    #[test]
    fn obs_sees_sweep_events_from_workers() {
        let reg = std::sync::Arc::new(aeropack_obs::Registry::new());
        let _g = aeropack_obs::scoped(reg.clone());
        let xs: Vec<usize> = (0..9).collect();
        let _ = Sweep::new(3).with_grain(1).map(&xs, |&x| x);
        assert_eq!(reg.counter("sweep.maps"), 1);
        assert_eq!(reg.counter("sweep.scenarios"), 9);
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path.starts_with("sweep.map{")));
        assert!(snap
            .spans
            .iter()
            .any(|s| s.path.starts_with("sweep.worker{")));
        // The serial fast path is visible as a counter, not a span.
        let _ = Sweep::new(4).with_grain(100).map(&xs, |&x| x);
        assert_eq!(reg.counter("sweep.serial_fastpath"), 1);
    }

    #[test]
    fn scenario_stats_folds_solver_stats() {
        use aeropack_solver::{CsrMatrix, SolverConfig};
        let a = CsrMatrix::from_row_fn(8, 1, |i, row| row.push((i, 2.0)));
        let sol = aeropack_solver::solve_sparse(&a, &[1.0; 8], &SolverConfig::new()).unwrap();
        let mut s = ScenarioStats::from_solver(&sol.stats);
        assert!(s.converged);
        s.add_solve(&sol.stats);
        assert_eq!(s.iterations, 2 * sol.stats.iterations);
        let s = s.with_cache(3, 1);
        assert_eq!((s.cache_hits, s.cache_misses), (3, 1));
    }
}
