//! aeropack benchmark: seeded workloads driven through the public API.
//!
//! ```text
//! perfbench --workload <serve_open|orbit_mission|fv_cold|nsga_search>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable report lines go first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics with
//! observability off; `--trace 1` reruns the workload with
//! `aeropack_obs` enabled and the benchmark's own spans recorded, and
//! reports the per-layer metrics. See `README.md` for the definitions.

mod fv_cold;
mod layers;
mod nsga;
mod orbit;
mod rate;
mod rng;
mod serve_open;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Threads the benchmark may give the program (daemon workers, sweep
/// threads) and its own load generator, each.
pub const THREADS: usize = 2;

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload; a
/// layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.received", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_req", "B"),
    ("transport.overhead_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.worker_latency_p99_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_jobs_per_batch", "count"),
    ("serve.rejected", "count"),
    ("workload.seb_ms", "ms"),
    ("workload.fv_ms", "ms"),
    ("workload.board_ms", "ms"),
    ("workload.fem_ms", "ms"),
    ("workload.transient_ms", "ms"),
    ("thermal.assemble_s", "s"),
    ("thermal.pattern_cache_hit_ratio", "ratio"),
    ("solver.setup_s", "s"),
    ("solver.iterate_s", "s"),
    ("solver.iterations", "count"),
    ("solver.iter_ms", "ms"),
    ("solver.mg.hierarchy_nnz", "count"),
    ("solver.ic0.factor_s", "s"),
    ("solver.mg.rebuilds", "count"),
    ("solver.mg.reuses", "count"),
    ("solver.mg.reuse_ratio", "ratio"),
    ("solver.pcg.solves", "count"),
    ("solver.spmv_gbs", "GB/s"),
    ("mission.step_p50_ms", "ms"),
    ("mission.step_p99_ms", "ms"),
    ("mission.accepted", "count"),
    ("mission.reject_ratio", "ratio"),
    ("mission.matrix_rebuilds", "count"),
    ("mission.relinearizations", "count"),
    ("mission.factor_reuse_ratio", "ratio"),
    ("optimize.ctx_setup_s", "s"),
    ("optimize.eval_ns", "ns"),
    ("optimize.select_share", "ratio"),
    ("sweep.scenarios", "count"),
    ("obs.overhead_frac", "ratio"),
    ("trace.layer_coverage", "ratio"),
];

/// What a workload run hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, and those that failed, were refused or
    /// failed their output check.
    pub attempted: u64,
    pub failed: u64,
    /// Set-up wall times, s (one per repetition).
    pub setups_s: Vec<f64>,
    /// Median latency of the workload's unit operation, and its tail:
    /// the highest of p99, p95, p90, p75 that has at least ten samples
    /// beyond it, ms.
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Units of work completed per second.
    pub throughput_per_s: f64,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Report lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times, timing each, and keeps the last.
pub fn repeated_setup<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let state = setup();
        out.setups_s.push(t0.elapsed().as_secs_f64());
        last = Some(state);
    }
    last.expect("at least one set-up")
}

/// Hardware threads of the host.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    if args.trace {
        aeropack::obs::set_enabled(true);
    }
    let run = match args.workload.as_str() {
        "serve_open" => serve_open::run,
        "orbit_mission" => orbit::run,
        "fv_cold" => fv_cold::run,
        "nsga_search" => nsga::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let out = run(args.seed, args.seconds, &tracer);

    let setup_s = stats::median(&out.setups_s);
    let rss = peak_rss_mb();
    println!(
        "workload={} seed={} seconds={} trace={} hardware_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hardware_threads()
    );
    for line in &out.notes {
        println!("  {line}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  error_rate={error_rate} ({} of {} failed)  setup_s={setup_s:.4} (median of {:?})  peak_rss_mb={rss:.1}",
        out.failed, out.attempted, out.setups_s
    );

    let values: Vec<(&str, f64, &str)> = if args.trace {
        let path = format!(
            "{}/traces/{}-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        );
        let spans = tracer.spans();
        let written = std::fs::create_dir_all(format!("{}/traces", env!("CARGO_MANIFEST_DIR")))
            .and_then(|()| std::fs::write(&path, trace::to_json(&spans)));
        match written {
            Ok(()) => println!("  trace: {} spans written to {path}", spans.len()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let e2e = [setup_s, rss, out.p50_ms, out.tail_ms, out.throughput_per_s];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    for (name, value, unit) in &values {
        println!("  {name} = {value} {unit}");
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeropack::obs::report::{parse, JsonValue};

    fn names(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        match v.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("valid JSON");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(
            workloads,
            ["serve_open", "orbit_mission", "fv_cold", "nsga_search"]
        );
    }
}
