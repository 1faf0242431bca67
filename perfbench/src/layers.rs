//! Per-layer figures shared by the workloads: the program's own
//! `aeropack-obs` counters, span coverage and tracing overhead.

use std::time::Instant;

use aeropack::obs::Registry;

use crate::stats::median;
use crate::trace::{layer_self_seconds, Tracer};
use crate::Outcome;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Solver, thermal and sweep counters the program records when
/// observability is on; counts are per unit of work (`units` of them
/// ran), so they do not depend on how many fitted in the run.
pub fn program_counters(out: &mut Outcome, reg: &Registry, units: f64) {
    let rebuilds = reg.counter("solver.mg.rebuilds");
    let reuses = reg.counter("solver.mg.reuses");
    out.layer("solver.mg.rebuilds", rebuilds as f64 / units);
    out.layer("solver.mg.reuses", reuses as f64 / units);
    out.layer("solver.mg.reuse_ratio", ratio(reuses, rebuilds + reuses));
    out.layer(
        "solver.pcg.solves",
        reg.counter("solver.pcg.solves") as f64 / units,
    );
    let hits = reg.counter("thermal.fv.pattern_cache.hits");
    let misses = reg.counter("thermal.fv.pattern_cache.misses");
    out.layer(
        "thermal.pattern_cache_hit_ratio",
        ratio(hits, hits + misses),
    );
    out.layer(
        "sweep.scenarios",
        reg.counter("sweep.scenarios") as f64 / units,
    );
}

/// Share of the traced wall that spans of program layers (every layer
/// but the benchmark's own `bench`) account for as self time.
pub fn coverage(out: &mut Outcome, tracer: &Tracer, wall_s: f64) {
    let layers = layer_self_seconds(&tracer.spans());
    let program: f64 = layers
        .iter()
        .filter(|(l, _)| **l != "bench")
        .map(|(_, s)| s)
        .sum();
    let summary: Vec<String> = layers
        .iter()
        .map(|(l, s)| format!("{l}={:.1}%", 100.0 * s / wall_s))
        .collect();
    out.note(format!(
        "layer self time share of traced wall: {}",
        summary.join(" ")
    ));
    out.layer("trace.layer_coverage", program / wall_s);
}

/// Tracing overhead of one unit of work: median wall with observability
/// on over median wall with it off, minus one (three of each,
/// alternating). Leaves observability on.
pub fn obs_overhead(mut unit: impl FnMut()) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (enabled, sink) in [(false, &mut off), (true, &mut on)] {
            aeropack::obs::set_enabled(enabled);
            let t0 = Instant::now();
            unit();
            sink.push(t0.elapsed().as_secs_f64());
        }
    }
    aeropack::obs::set_enabled(true);
    median(&on) / median(&off) - 1.0
}
