//! Hierarchical wall-time spans: an RAII guard plus a thread-local
//! path stack that gives nested spans their `parent/child` paths.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::registry::Registry;

thread_local! {
    /// Stack of full span paths active on this thread (innermost
    /// last).
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An active span. Dropping it records the elapsed wall time into the
/// registry under the span's nested path. Obtain one with
/// [`span!`](crate::span!) / [`span`](crate::span); a disabled-mode
/// span is inert and free.
#[must_use = "a span records its duration when dropped; bind it with `let _span = ...`"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    path: String,
    start: Instant,
    registry: Arc<Registry>,
}

impl Span {
    /// The inert span handed out while observability is off.
    pub(crate) fn disabled() -> Self {
        Self { inner: None }
    }

    /// Starts an enabled span; `label`, when present, decorates the
    /// leaf as `name{label}`. The full path is the calling thread's
    /// innermost active span path joined with `/`.
    pub(crate) fn start(name: &'static str, label: Option<String>) -> Self {
        let leaf = match label {
            Some(l) if !l.is_empty() => format!("{name}{{{l}}}"),
            _ => name.to_string(),
        };
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{leaf}"),
                None => leaf,
            };
            stack.push(path.clone());
            path
        });
        Self {
            inner: Some(SpanInner {
                path,
                start: Instant::now(),
                registry: crate::current(),
            }),
        }
    }

    /// The span's full nested path (`None` for a disabled-mode span).
    pub fn path(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.path.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed = inner.start.elapsed();
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                // Guards are usually dropped innermost-first; tolerate
                // out-of-order drops by removing this path wherever it
                // sits.
                if let Some(pos) = stack.iter().rposition(|p| *p == inner.path) {
                    stack.remove(pos);
                }
            });
            inner.registry.span_record(&inner.path, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_slash_paths() {
        let _lock = crate::shared_enable_state();
        let reg = Arc::new(Registry::new());
        {
            let _g = crate::scoped(reg.clone());
            let outer = Span::start("outer", None);
            assert_eq!(outer.path(), Some("outer"));
            let inner = Span::start("inner", Some("k=1".to_string()));
            assert_eq!(inner.path(), Some("outer/inner{k=1}"));
            drop(inner);
            drop(outer);
            // After both drop, a fresh span is a root again.
            let next = Span::start("next", None);
            assert_eq!(next.path(), Some("next"));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 3);
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_the_stack() {
        let _lock = crate::shared_enable_state();
        let reg = Arc::new(Registry::new());
        let _g = crate::scoped(reg.clone());
        let a = Span::start("a", None);
        let b = Span::start("b", None);
        drop(a); // dropped before its child
        drop(b);
        let c = Span::start("c", None);
        assert_eq!(c.path(), Some("c"));
    }

    #[test]
    fn disabled_span_is_inert() {
        let s = Span::disabled();
        assert_eq!(s.path(), None);
        drop(s);
    }
}
