#!/usr/bin/env bash
# Offline CI gate for the aeropack workspace. Everything here must pass
# with no network access: the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --release --workspace --offline

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> sweep bench smoke (tiny grids, 2 threads, determinism + preconditioner + optimizer gates)"
# Exits non-zero if any sweep is not bit-identical across thread
# counts, if IC(0)+RCM fails to halve PCG iterations vs Jacobi on the
# large-grid smoke solve, if the preconditioned fields disagree, or if
# the NSGA-II smoke search is not bit-identical at 1/2/8 threads.
# The smoke fv_large comparison also runs the 20³ multigrid and
# Chebyshev solves, so the emitted report can be gated on the solver.mg.
# and solver.cheb. counters below; the optimizer smoke emits the
# optimize.* counters gated alongside them. The mission_precond smoke
# flies the 8³ and 20×20×4 orbit plates under IC(0) and multigrid and
# exits non-zero if the two final fields differ by more than 1e-8 K or
# if any trajectory differs between 1 and 2 solver threads (walls are
# reported, not gated).
# Absolute path: `cargo bench` runs the harness from the package dir,
# not the workspace root, so a relative report path would miss target/.
SWEEPS_OBS_REPORT="$PWD/target/obs_sweeps_smoke.json"
AEROPACK_OBS=1 AEROPACK_OBS_REPORT="$SWEEPS_OBS_REPORT" \
    cargo bench -q --offline -p aeropack-bench --bench sweeps -- --smoke

echo "==> preconditioner + optimizer obs gate (solver.ic0./mg./cheb./optimize. counters must be non-zero)"
cargo run -q --release --offline -p aeropack-obs --bin obs_check -- \
    "$SWEEPS_OBS_REPORT" solver.ic0. solver.mg. solver.cheb. solver.pcg. \
    sweep. mission. solver.transient. optimize.

echo "==> obs smoke (exp02 with observability on, run report must validate)"
# Run a real experiment with events flowing, then gate on the emitted
# report: it must parse as aeropack-obs-report/v1 and carry non-zero
# solver and analysis-service counters (exp02's derating sweep goes
# through the in-process serve Client).
OBS_REPORT=target/obs_exp02.json
AEROPACK_OBS=1 AEROPACK_OBS_REPORT="$OBS_REPORT" \
    cargo run -q --release --offline -p aeropack-bench --bin exp02_three_levels \
    > /dev/null
cargo run -q --release --offline -p aeropack-obs --bin obs_check -- \
    "$OBS_REPORT" solver. serve.

echo "==> serve smoke (daemon + 50-request mixed socket workload + coalescing + mission legs)"
# Starts the analysis daemon on a loopback port, drives a mixed
# SEB/FV/board/FEM workload through the line-JSON socket client,
# provokes a deterministic coalesced multi-RHS batch, then flies a
# short 3-phase climb–cruise–descent Transient request through the
# socket path. The emitted report must carry non-zero service, cache,
# coalescer, mission-driver and transient-solve counters.
SERVE_REPORT=target/obs_serve_smoke.json
AEROPACK_OBS=1 AEROPACK_OBS_REPORT="$SERVE_REPORT" \
    cargo run -q --release --offline -p aeropack-serve --bin serve_smoke \
    > /dev/null
cargo run -q --release --offline -p aeropack-obs --bin obs_check -- \
    "$SERVE_REPORT" serve. serve.cache. serve.coalesce. mission. solver.transient.

echo "==> serve bench smoke (120-request load, cache >=5x + coalesce bit-identity gates)"
cargo bench -q --offline -p aeropack-bench --bench serve -- --smoke

echo "==> golden snapshot gate (tests/golden/, drift prints a per-quantity table)"
# Out-of-tolerance drift fails with golden/current/|drift|/allowed rows;
# regenerate intentionally moved values with scripts/snapshot.sh.
cargo test -q --release --offline --test golden_snapshots

echo "==> MMS smoke (thermal FV slab, observed order must sit near 2)"
cargo test -q --release --offline -p aeropack-verify --test mms \
    thermal_fv_converges_at_second_order

echo "==> mission MMS smoke (trapezoidal θ-scheme, observed temporal order must sit near 2)"
cargo test -q --release --offline -p aeropack-verify --test mms \
    mission_trapezoidal_converges_at_second_order_in_time

echo "==> CI green"
