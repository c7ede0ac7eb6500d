//! Lightweight span tracing.
//!
//! A span is an RAII guard over a region of code: entering makes its
//! name the thread's innermost open span (so nested spans know their
//! parent), dropping records the elapsed wall-clock nanoseconds into
//! the global histogram of the same name and restores the span it was
//! entered under. Usage:
//!
//! ```
//! {
//!     let _span = prever_obs::span!("ledger.append");
//!     // ... phase work ...
//! } // elapsed ns recorded into histogram "ledger.append" here
//! ```
//!
//! Span names follow the `crate.component.phase` convention (DESIGN.md
//! §8). Parent edges are remembered per child name and queryable via
//! [`parent_of`], which is how the exporter can reconstruct e.g. that
//! `ledger.append` time was spent under `pipeline.incorporate`.

use crate::registry::{self, Handle, Histogram};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// The innermost span open on this thread and how many are open.
    /// Each guard remembers the pair it replaced, so the stack of open
    /// spans is threaded through the guards themselves: entering and
    /// leaving are two `Cell` accesses, no `Vec`, no borrow flag.
    static CURRENT: Cell<(Option<&'static str>, usize)> = const { Cell::new((None, 0)) };
}

/// Observed parent edges: child span name → most recent parent name.
static PARENTS: OnceLock<Mutex<HashMap<&'static str, &'static str>>> = OnceLock::new();

fn parents() -> &'static Mutex<HashMap<&'static str, &'static str>> {
    PARENTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The most recently observed parent of span `name`, if it was ever
/// entered nested inside another span.
pub fn parent_of(name: &str) -> Option<&'static str> {
    parents().lock().expect("span parents poisoned").get(name).copied()
}

/// One place spans are entered from: the span's name, its histogram
/// (resolved on first use, see [`Handle`]) and the parent edge it last
/// wrote to the shared map. Lives in a `static`: [`span!`](crate::span!)
/// declares one per call site.
#[derive(Debug)]
pub struct SpanSite {
    histogram: Handle<Histogram>,
    /// Address and length of the parent name this site last published
    /// (0, 0 before the first). Two live `&'static str` with the same
    /// address and length are the same bytes, so a match means the map
    /// already holds this edge. Both are written under the map's lock.
    parent_addr: AtomicUsize,
    parent_len: AtomicUsize,
}

impl SpanSite {
    /// A site for spans named `name`.
    pub const fn new(name: &'static str) -> Self {
        SpanSite {
            histogram: Handle::<Histogram>::new(name),
            parent_addr: AtomicUsize::new(0),
            parent_len: AtomicUsize::new(0),
        }
    }

    /// The name of the spans entered here (and of their histogram).
    pub fn name(&self) -> &'static str {
        self.histogram.name()
    }

    /// Records `child → parent` in the shared map unless this site's
    /// last write already said so: a span that keeps its parent, which
    /// is nearly every span, takes no lock.
    fn publish_parent(&self, parent: &'static str) {
        let (addr, len) = (parent.as_ptr() as usize, parent.len());
        if self.parent_addr.load(Ordering::Relaxed) == addr
            && self.parent_len.load(Ordering::Relaxed) == len
        {
            return;
        }
        let mut map = parents().lock().expect("span parents poisoned");
        map.insert(self.name(), parent);
        self.parent_addr.store(addr, Ordering::Relaxed);
        self.parent_len.store(len, Ordering::Relaxed);
    }
}

/// A span guard; create one with the [`span!`](crate::span!) macro.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct Span {
    inner: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    site: &'static SpanSite,
    /// The enclosing span.
    parent: Option<&'static str>,
    /// What [`CURRENT`] held when this span was entered.
    outer: (Option<&'static str>, usize),
    start: Instant,
}

impl Span {
    /// Enters a span at `site`. When recording is disabled the guard is
    /// inert and costs one atomic load; otherwise entering swaps a
    /// thread-local `&'static str` and reads the clock — no allocation,
    /// no look-up, and no lock unless the span's parent differs from
    /// last time.
    pub fn enter(site: &'static SpanSite) -> Span {
        if !registry::enabled() {
            return Span { inner: None };
        }
        let outer = CURRENT.with(|c| c.replace((Some(site.name()), c.get().1 + 1)));
        let parent = outer.0;
        if let Some(p) = parent {
            site.publish_parent(p);
        }
        Span { inner: Some(ActiveSpan { site, parent, outer, start: Instant::now() }) }
    }

    /// The parent span active when this one was entered.
    pub fn parent(&self) -> Option<&str> {
        self.inner.as_ref().and_then(|a| a.parent)
    }

    /// This span's name (`None` when recording is disabled).
    pub fn name(&self) -> Option<&str> {
        self.inner.as_ref().map(|a| a.site.name())
    }

    /// Elapsed nanoseconds so far (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|a| a.start.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else { return };
        let ns = active.start.elapsed().as_nanos() as u64;
        active.site.histogram.get().record(ns);
        // Guards drop LIFO under normal control flow. One that outlived
        // a span entered before it finds the thread already shallower
        // than itself and leaves that state alone, so a stale name is
        // never put back.
        CURRENT.with(|c| {
            if c.get().1 > active.outer.1 {
                c.set(active.outer);
            }
        });
    }
}

/// Enters a span named `$name` (a string literal or constant); the
/// returned guard records elapsed nanoseconds into the histogram of the
/// same name when dropped. The call site owns a [`SpanSite`], so the
/// histogram is looked up once.
///
/// ```
/// let _guard = prever_obs::span!("pir.answer");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SITE: $crate::span::SpanSite = $crate::span::SpanSite::new($name);
        $crate::span::Span::enter(&SITE)
    }};
}

/// A started wall-clock timer: *the* timing primitive for code that
/// needs an explicit elapsed value (benches) rather than a scoped span.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Elapsed nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Stops, recording the elapsed nanoseconds into the global
    /// histogram `name`; returns the elapsed nanoseconds.
    pub fn stop_into(self, name: &str) -> u64 {
        let ns = self.elapsed_ns();
        registry::observe_ns(name, ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_span_parent_attribution() {
        let outer = crate::span!("test.span.outer");
        assert_eq!(outer.parent(), None);
        {
            let inner = crate::span!("test.span.inner");
            assert_eq!(inner.parent(), Some("test.span.outer"));
            {
                let leaf = crate::span!("test.span.leaf");
                assert_eq!(leaf.parent(), Some("test.span.inner"));
            }
            let sibling = crate::span!("test.span.sibling");
            assert_eq!(sibling.parent(), Some("test.span.inner"), "the leaf closed");
        }
        drop(outer);
        assert_eq!(crate::span!("test.span.after").parent(), None);
        // Recorded edges survive the spans.
        assert_eq!(parent_of("test.span.inner"), Some("test.span.outer"));
        assert_eq!(parent_of("test.span.leaf"), Some("test.span.inner"));
        assert_eq!(parent_of("test.span.outer"), None);
        // Each drop recorded one observation.
        let s = registry::snapshot();
        for name in ["test.span.outer", "test.span.inner", "test.span.leaf"] {
            assert!(s.histogram(name).is_some_and(|h| h.count >= 1), "{name} not recorded");
        }
    }

    #[test]
    fn a_guard_dropped_out_of_order_does_not_put_a_closed_span_back() {
        std::thread::spawn(|| {
            let a = crate::span!("test.span.unordered_a");
            let b = crate::span!("test.span.unordered_b");
            drop(a);
            let closed = crate::span!("test.span.unordered_closed");
            assert_eq!(closed.parent(), None, "closing the outer span closes the thread's stack");
            drop(closed);
            drop(b);
            let root = crate::span!("test.span.unordered_next");
            assert_eq!(root.parent(), None, "the late guard must not restore `a`");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn spans_are_per_thread() {
        let _outer = crate::span!("test.span.main_thread");
        std::thread::spawn(|| {
            // The other thread's stack is empty: no parent leaks across.
            let inner = crate::span!("test.span.other_thread");
            assert_eq!(inner.parent(), None);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn span_macro_records_elapsed() {
        {
            let guard = crate::span!("test.span.macro");
            assert_eq!(guard.name(), Some("test.span.macro"));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = registry::snapshot();
        let snap = h.histogram("test.span.macro").expect("recorded");
        assert!(snap.max >= 1_000_000, "slept 2ms but max is {}ns", snap.max);
    }

    #[test]
    fn stopwatch_records_into_histogram() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = sw.stop_into("test.span.stopwatch");
        assert!(ns >= 500_000);
        assert!(registry::snapshot().histogram("test.span.stopwatch").is_some());
    }
}
