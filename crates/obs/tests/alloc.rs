//! Allocation audit for the per-event recording path.
//!
//! A span or a counter bump sits on every request path in the
//! workspace, so after a call site's first use — which interns the
//! metric name, allocates its histogram and grows the thread's span
//! stack — an event must allocate nothing: the span stack holds
//! `&'static str`, the metric handle is already resolved, and an
//! unchanged parent edge is not written again. A regression to one
//! `String` per span entry, or to a registry look-up that clones a name,
//! trips this at once.
//!
//! The counting allocator lives in this dedicated integration-test
//! binary so the instrumentation cannot leak into the library (which is
//! `forbid(unsafe_code)`) or other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the measuring thread, so the test harness's own
    /// threads cannot add to the count. No destructor and a constant
    /// initializer: reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was given; the counter beside it
// is an atomic and the flag a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::SeqCst) - before
}

/// What one request does to the recorder: a span, a span nested in it,
/// a counter, a gauge and a histogram sample.
fn one_event(i: u64) {
    let _outer = prever_obs::span!("alloc.outer");
    let _inner = prever_obs::span!("alloc.inner");
    prever_obs::counter!("alloc.events").inc();
    prever_obs::gauge!("alloc.level").set(i as i64);
    prever_obs::histogram!("alloc.size").record(i);
}

#[test]
fn a_span_and_a_counter_allocate_nothing_after_first_use() {
    let first = allocs_during(|| one_event(0));
    assert!(first > 0, "the first use interns names and allocates histograms");

    let steady = allocs_during(|| (1..=1_000).for_each(one_event));
    assert_eq!(steady, 0, "1 000 events after the first allocated {steady} times");

    // The events were recorded, under their names, with the edge kept.
    let s = prever_obs::snapshot();
    assert_eq!(s.counter("alloc.events"), Some(1_001));
    assert_eq!(s.gauge("alloc.level"), Some(1_000));
    assert_eq!(s.histogram("alloc.outer").map(|h| h.count), Some(1_001));
    assert_eq!(s.histogram("alloc.inner").map(|h| h.count), Some(1_001));
    assert_eq!(s.histogram("alloc.size").map(|h| h.count), Some(1_001));
    assert_eq!(prever_obs::parent_of("alloc.inner"), Some("alloc.outer"));
    assert_eq!(prever_obs::parent_of("alloc.outer"), None);
}
