//! Observability for the aeropack workspace: spans, counters,
//! histograms and run reports — with a zero-cost disabled mode.
//!
//! Every headline number of the reproduction (the Fig 10 curves, the
//! qualification sweeps, the benchmark tables) is only trustworthy if
//! we can see *how* it was produced: how many solver iterations ran,
//! what the residuals were, whether the pattern cache actually hit,
//! how balanced the sweep workers were. This crate is the single
//! instrumentation layer every runtime crate records into:
//!
//! * [`span!`] — hierarchical wall-time spans with nesting
//!   (`span!("fig10.solve", config = ci)`); aggregated per path as
//!   count / total / max.
//! * [`counter!`] / [`counter_add`] — monotonic counters (solver
//!   iterations, cache hits, scenarios dispatched).
//! * [`histogram!`] / [`histogram_record`] — log₂-bucketed value
//!   distributions (final residuals, per-scenario solve times).
//! * [`Registry`] — the thread-safe sink behind all of it. There is
//!   one process-global registry, plus a **test-scoped override**
//!   ([`scoped`]) so tests can observe their own events without
//!   cross-test interference.
//! * [`write_report`] / [`report_json`] — a hand-rolled JSON run-report
//!   emitter (the workspace has a no-serde rule), with a matching
//!   minimal parser ([`validate_report`]) used by the CI smoke gate.
//!
//! # Disabled mode is free
//!
//! Observability defaults to **off**, and in that state every event
//! costs exactly one relaxed atomic load — no allocation, no locking,
//! no formatting (span labels are built behind the enabled check).
//! `crates/solver/tests/zero_alloc.rs` pins this with a counting
//! global allocator around an instrumented hot solve. Enable at
//! runtime with [`set_enabled`], from the environment with
//! [`init_from_env`] (`AEROPACK_OBS=1`), or for a test's dynamic
//! extent with [`scoped`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let reg = Arc::new(aeropack_obs::Registry::new());
//! {
//!     let _obs = aeropack_obs::scoped(reg.clone());
//!     let _span = aeropack_obs::span!("demo.outer", case = 1);
//!     aeropack_obs::counter!("demo.events", 3);
//!     aeropack_obs::histogram!("demo.residual", 1.5e-9);
//! }
//! assert_eq!(reg.counter("demo.events"), 3);
//! let json = aeropack_obs::report::render(&reg.snapshot(), true);
//! assert!(aeropack_obs::validate_report(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
pub mod report;
mod span;

pub use registry::{HistogramSnapshot, Registry, Snapshot, SpanSnapshot};
pub use report::{validate_report, JsonValue, ReportError, ReportSummary};
pub use span::Span;

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable that enables observability when set to `1`,
/// `true`, `on` or `yes` (see [`init_from_env`]).
pub const OBS_ENV: &str = "AEROPACK_OBS";

/// Environment variable naming the run-report output path read by
/// [`write_env_report`].
pub const REPORT_ENV: &str = "AEROPACK_OBS_REPORT";

/// The one flag every event checks. `true` when the base switch is on
/// *or* at least one [`scoped`] override is alive anywhere in the
/// process.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct EnableState {
    base: bool,
    overrides: usize,
}

static ENABLE_STATE: Mutex<EnableState> = Mutex::new(EnableState {
    base: false,
    overrides: 0,
});

thread_local! {
    /// Per-thread registry override installed by [`scoped`]/[`attach`].
    static LOCAL_REGISTRY: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

fn refresh_enabled(state: &EnableState) {
    ENABLED.store(state.base || state.overrides > 0, Ordering::Relaxed);
}

/// Whether observability is on — the single relaxed atomic load that
/// guards every event in disabled mode.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the process-global base switch on or off. Scoped overrides
/// ([`scoped`]) keep events flowing while alive regardless of the base
/// switch.
pub fn set_enabled(on: bool) {
    let mut state = ENABLE_STATE.lock().expect("obs enable state poisoned");
    state.base = on;
    refresh_enabled(&state);
}

/// Reads [`OBS_ENV`] and enables observability when it holds a truthy
/// value (`1`, `true`, `on`, `yes`; case-insensitive). Leaves the
/// switch untouched when the variable is unset.
pub fn init_from_env() {
    if let Ok(v) = std::env::var(OBS_ENV) {
        let v = v.trim().to_ascii_lowercase();
        set_enabled(matches!(v.as_str(), "1" | "true" | "on" | "yes"));
    }
}

fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// The registry events on this thread currently record into: the
/// thread-local override when one is installed, the process-global
/// registry otherwise.
pub fn current() -> Arc<Registry> {
    LOCAL_REGISTRY
        .with(|l| l.borrow().clone())
        .unwrap_or_else(|| global().clone())
}

/// The process-global registry (what [`report_json`] and
/// [`write_report`] serialise).
pub fn global_registry() -> Arc<Registry> {
    global().clone()
}

/// Restores the previous thread-local registry (and, for [`scoped`]
/// guards, releases the enable override) on drop.
pub struct OverrideGuard {
    prev: Option<Arc<Registry>>,
    counted: bool,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        LOCAL_REGISTRY.with(|l| *l.borrow_mut() = self.prev.take());
        if self.counted {
            let mut state = ENABLE_STATE.lock().expect("obs enable state poisoned");
            state.overrides = state.overrides.saturating_sub(1);
            refresh_enabled(&state);
        }
    }
}

/// Test-scoped override: until the returned guard drops, events on
/// this thread (and on any sweep workers the thread spawns through
/// `aeropack-sweep`, which propagates the handle) record into `reg`,
/// and observability is force-enabled for the whole process. Other
/// threads outside the override keep recording into the global
/// registry; a test that reads only its own `reg` is isolated.
#[must_use = "the override ends when the guard is dropped"]
pub fn scoped(reg: Arc<Registry>) -> OverrideGuard {
    let prev = LOCAL_REGISTRY.with(|l| l.borrow_mut().replace(reg));
    let mut state = ENABLE_STATE.lock().expect("obs enable state poisoned");
    state.overrides += 1;
    refresh_enabled(&state);
    OverrideGuard {
        prev,
        counted: true,
    }
}

/// Installs `reg` as this thread's sink **without** touching the
/// enable state — the mechanism worker threads use to inherit their
/// parent's (possibly test-scoped) registry. The parent scope keeps
/// the enable override alive for the workers' lifetime.
#[must_use = "the override ends when the guard is dropped"]
pub fn attach(reg: Arc<Registry>) -> OverrideGuard {
    let prev = LOCAL_REGISTRY.with(|l| l.borrow_mut().replace(reg));
    OverrideGuard {
        prev,
        counted: false,
    }
}

/// The handle a parallel runner captures before spawning workers:
/// `Some(current sink)` when observability is on, `None` (nothing to
/// propagate, zero cost) when off. Workers [`attach`] the handle.
pub fn propagation_handle() -> Option<Arc<Registry>> {
    if enabled() {
        Some(current())
    } else {
        None
    }
}

/// Adds `delta` to the named monotonic counter. Free when disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    current().counter_add(name, delta);
}

/// Records one value into the named log₂-bucketed histogram. Free when
/// disabled.
#[inline]
pub fn histogram_record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    current().histogram_record(name, value);
}

/// Starts an unlabelled span (see [`span!`] for labelled spans). The
/// returned guard records the wall time under the span's nested path
/// when dropped. Free when disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span::start(name, None)
}

/// Starts a span whose leaf is `name{label}`; `label` is only built
/// when observability is on, so disabled callers pay no formatting.
#[inline]
pub fn span_labeled<F: FnOnce() -> String>(name: &'static str, label: F) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span::start(name, Some(label()))
}

/// Increments a counter: `counter!("name")` adds 1,
/// `counter!("name", n)` adds `n`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter_add($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta as u64)
    };
}

/// Records a value into a histogram: `histogram!("name", value)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::histogram_record($name, $value as f64)
    };
}

/// Starts a span guard: `span!("name")` or
/// `span!("name", key = value, ...)` (fields become the
/// `name{key=value}` label; keep field cardinality low). Bind the
/// result — `let _span = span!(...)` — so the guard lives to the end
/// of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span_labeled($name, || {
            let mut label = String::new();
            $(
                if !label.is_empty() {
                    label.push(',');
                }
                label.push_str(stringify!($key));
                label.push('=');
                label.push_str(&format!("{}", $value));
            )+
            label
        })
    };
}

/// Renders the global registry as a run-report JSON string.
pub fn report_json() -> String {
    report::render(&global().snapshot(), enabled())
}

/// Writes the global registry's run report to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<()> {
    std::fs::write(path, report_json())
}

/// Writes the global run report to the path named by [`REPORT_ENV`],
/// returning the path written, or `Ok(None)` when the variable is
/// unset or empty.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_env_report() -> std::io::Result<Option<PathBuf>> {
    match std::env::var(REPORT_ENV) {
        Ok(path) if !path.trim().is_empty() => {
            let path = PathBuf::from(path);
            write_report(&path)?;
            Ok(Some(path))
        }
        _ => Ok(None),
    }
}

/// Serialises unit tests on the process-global enable switch: tests
/// that install a [`scoped`] override hold it shared, and the test
/// that asserts the disabled default holds it exclusively, so no
/// concurrent override can switch observability on underneath it.
#[cfg(test)]
static ENABLE_TEST_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

#[cfg(test)]
fn shared_enable_state() -> std::sync::RwLockReadGuard<'static, ()> {
    ENABLE_TEST_LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_records_nothing() {
        let _lock = ENABLE_TEST_LOCK
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Default state: disabled. Events must be no-ops against the
        // global registry.
        assert!(!enabled());
        counter_add("test.disabled", 5);
        histogram_record("test.disabled.h", 1.0);
        let _s = span("test.disabled.span");
        drop(_s);
        assert_eq!(global_registry().counter("test.disabled"), 0);
    }

    #[test]
    fn scoped_override_isolates_and_enables() {
        let _lock = shared_enable_state();
        let reg = Arc::new(Registry::new());
        {
            let _g = scoped(reg.clone());
            assert!(enabled());
            counter!("test.scoped");
            counter!("test.scoped", 9);
            histogram!("test.scoped.h", 0.25);
            {
                let _outer = span!("test.outer", case = 2);
                let _inner = span!("test.inner");
            }
        }
        assert_eq!(reg.counter("test.scoped"), 10);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"test.outer{case=2}"));
        assert!(paths.contains(&"test.outer{case=2}/test.inner"));
        // Nothing leaked into the global registry.
        assert_eq!(global_registry().counter("test.scoped"), 0);
    }

    #[test]
    fn attach_inherits_without_enable_side_effects() {
        let _lock = shared_enable_state();
        let reg = Arc::new(Registry::new());
        let _g = scoped(reg.clone());
        let handle = propagation_handle().expect("enabled inside scope");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _worker = attach(handle.clone());
                counter!("test.worker.events", 2);
            });
        });
        assert_eq!(reg.counter("test.worker.events"), 2);
    }

    #[test]
    fn nested_scopes_restore_previous_sink() {
        let _lock = shared_enable_state();
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        let _a = scoped(outer.clone());
        {
            let _b = scoped(inner.clone());
            counter!("test.nest");
        }
        counter!("test.nest");
        assert_eq!(inner.counter("test.nest"), 1);
        assert_eq!(outer.counter("test.nest"), 1);
    }
}
