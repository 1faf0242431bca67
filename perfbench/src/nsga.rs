//! `nsga_search`: the NSGA-II packaging optimizer over a two-thread
//! sweep.
//!
//! Seeded `OptimizerConfig`s search the default design space in the
//! paper's 120 W / 25 °C cabin / 22° tilt context. The unit operation is
//! one `Optimizer::run`; a run makes [`RUNS_PER_SECOND`] of them per
//! second of `--seconds`, cycling through [`CONFIGS`] optimizer seeds
//! drawn from the workload seed.

use std::time::Instant;

use aeropack::optimize::{dominates, DesignSpace, EvalContext, Optimizer, OptimizerConfig};
use aeropack::sweep::Sweep;
use aeropack::units::{Celsius, Power, SplitMix64};

use crate::layers;
use crate::rng::Rng;
use crate::stats::{median, nearest_rank, sorted, tail_level};
use crate::trace::Tracer;
use crate::{repeated_setup, Outcome, THREADS};

const POPULATION: usize = 128;
const GENERATIONS: usize = 40;
/// Optimizer runs per second of the requested run length.
const RUNS_PER_SECOND: f64 = 80.0;
/// Distinct optimizer seeds per run.
const CONFIGS: usize = 16;
/// Genomes timed one by one for `optimize.eval_ns`.
const EVAL_SAMPLE: usize = 4000;

fn context() -> EvalContext {
    EvalContext::new(Celsius::new(25.0), Power::new(120.0), 22f64.to_radians())
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(seed);
    let configs: Vec<OptimizerConfig> = (0..CONFIGS)
        .map(|_| OptimizerConfig {
            population: POPULATION,
            generations: GENERATIONS,
            seed: rng.next_u64(),
            ..OptimizerConfig::default()
        })
        .collect();
    let config = configs[0];
    let runs = ((seconds * RUNS_PER_SECOND).ceil() as usize).max(1);
    let sweep = Sweep::new(THREADS);
    let (ctx, optimizers) = repeated_setup(&mut out, || {
        let ctx = context();
        let optimizers: Vec<Optimizer> = configs
            .iter()
            .map(|c| Optimizer::new(DesignSpace::default(), *c))
            .collect();
        // Warm-up outside the timed stream: runs of other seeds.
        for k in 1..=3 {
            let warm = OptimizerConfig {
                seed: config.seed ^ k,
                ..config
            };
            Optimizer::new(DesignSpace::default(), warm).run(&ctx, &sweep);
        }
        (ctx, optimizers)
    });

    let reg = aeropack::obs::global_registry();
    reg.clear();
    let (mut run_ms, mut evaluations) = (Vec::new(), 0u64);
    let mut hashes = vec![None; CONFIGS];
    let t0 = Instant::now();
    for k in 0..runs {
        let optimizer = &optimizers[k % CONFIGS];
        let root = tracer.open("bench.run", None);
        let (result, d) = tracer.time("optimize.run", root, || optimizer.run(&ctx, &sweep));
        run_ms.push(d.as_secs_f64() * 1e3);
        evaluations += result.evaluations;
        let points: Vec<[f64; 3]> = result
            .front
            .points()
            .iter()
            .map(|p| p.minimized())
            .collect();
        let non_dominated = points
            .iter()
            .all(|a| points.iter().all(|b| !dominates(b, a)));
        let fp = result.front.fingerprint();
        let repeats = *hashes[k % CONFIGS].get_or_insert(fp) == fp;
        out.check(non_dominated && repeats && !points.is_empty());
        tracer.close(root);
    }
    let wall = t0.elapsed().as_secs_f64();
    let lat = sorted(run_ms);
    let tail_q = tail_level(runs).unwrap_or(1.0);
    out.p50_ms = nearest_rank(&lat, 0.5);
    out.tail_ms = nearest_rank(&lat, tail_q);
    // Evaluations per second of the median run: a burst of outside load
    // during a few runs does not move it.
    out.throughput_per_s = evaluations as f64 / runs as f64 / (out.p50_ms * 1e-3);
    out.note(format!(
        "population {POPULATION} x {} generations, {runs} runs over {CONFIGS} seeds on Sweep::new({THREADS}), first front hash {:016x}",
        GENERATIONS + 1,
        hashes[0].unwrap_or(0)
    ));
    out.note(format!(
        "evals_per_s={:.0}  run p50={:.2} ms p{}={:.2} ms",
        out.throughput_per_s,
        out.p50_ms,
        tail_q * 100.0,
        out.tail_ms
    ));

    if tracer.enabled() {
        let ctx_s: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(context());
                t.elapsed().as_secs_f64()
            })
            .collect();
        out.layer("optimize.ctx_setup_s", median(&ctx_s));
        let space = DesignSpace::default();
        let mut rng = SplitMix64::new(config.seed);
        let genomes: Vec<_> = (0..EVAL_SAMPLE).map(|_| space.sample(&mut rng)).collect();
        let t = Instant::now();
        for g in &genomes {
            std::hint::black_box(ctx.evaluate(std::hint::black_box(g)));
        }
        let eval_ns = t.elapsed().as_secs_f64() * 1e9 / EVAL_SAMPLE as f64;
        out.layer("optimize.eval_ns", eval_ns);
        // Evaluations run on the sweep's threads; the rest of a run
        // (ranking, selection, breeding) is serial.
        let per_run = evaluations as f64 / runs as f64;
        let run_s = median(&lat) * 1e-3;
        let eval_s = per_run * eval_ns * 1e-9 / THREADS as f64;
        out.layer("optimize.select_share", (run_s - eval_s) / run_s);
        layers::program_counters(&mut out, &reg, runs as f64);
        layers::coverage(&mut out, tracer, wall);
        out.layer(
            "obs.overhead_frac",
            layers::obs_overhead(|| {
                optimizers[0].run(&ctx, &sweep);
            }),
        );
    }
    out
}
