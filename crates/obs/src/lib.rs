//! `clarify-obs` — hermetic, zero-dependency observability for the
//! clarify workspace.
//!
//! The synthesis loop (classify → retrieve → synthesize → verify →
//! disambiguate) is a multi-stage pipeline whose tail latency and failure
//! modes are invisible without per-stage instrumentation. This crate
//! provides the one shared vocabulary every layer records into:
//!
//! - [`Counter`]: a monotonic `AtomicU64`, incremented with relaxed
//!   ordering (events: ite calls, cache hits, questions asked, punts).
//! - [`Gauge`]: a signed level (`AtomicI64`) that can rise and fall
//!   (live BDD nodes, live `ite`-cache entries).
//! - [`Histogram`]: a fixed array of power-of-two buckets plus
//!   count/sum/min/max, all relaxed atomics — no locks, no allocation on
//!   the record path (span durations, per-round latencies).
//! - [`Span`]: an RAII guard from [`Registry::span`] or the [`span!`]
//!   macro that records its wall-clock lifetime into a histogram named
//!   `span.<name>.ns` on drop.
//!
//! # Global or injected
//!
//! Instruments live in a [`Registry`]. Code can take a registry
//! explicitly (the BDD manager's `with_registry` constructor, used by
//! tests that need exact isolated totals) or use the process-wide one via
//! [`global`]. The global registry starts **disabled**: every handle it
//! hands out is a no-op (an `Option` check, no atomics touched, no
//! `Instant::now()` calls), so uninstrumented runs pay almost nothing.
//! The CLIs install an enabled registry when `--trace-json` or `--stats`
//! is passed; [`install`] swaps it in process-wide. A test that needs
//! exact totals of code recording into [`global`], while other tests run
//! on other threads, runs that code [`scoped`] to a registry of its own.
//!
//! # The metrics-never-affect-output invariant
//!
//! Nothing in this crate is ever *read* by the algorithms it observes:
//! handles are write-only until a [`Registry::snapshot`] at exit. Serial
//! and parallel runs of the engine therefore stay byte-identical with
//! tracing enabled — metric *values* may differ run to run (timings,
//! interleavings), but engine output cannot. `tests/par_determinism.rs`
//! pins this with a live registry installed.
//!
//! # The JSON layer
//!
//! The [`json`] module is the workspace's one JSON writer and reader: the
//! `--trace-json` snapshot, lint reports and caches, SARIF, LLM envelopes
//! and transcripts, the daemon's requests and response frames, and the
//! bench records all go through its [`json::Value`] and [`json::parse`].
//! No other crate writes JSON syntax by hand.
//!
//! # Thread safety
//!
//! All instruments are relaxed atomics behind `Arc`s, so handles can be
//! cloned into `clarify-par` worker threads freely. Relaxed ordering is
//! sufficient because no metric value ever gates a memory access in the
//! observed code: each counter is an independent statistic, and the final
//! snapshot happens-after all recording via the pool's thread joins.

#![warn(missing_docs)]

pub mod json;
mod registry;
mod snapshot;

pub use registry::{Counter, Gauge, Histogram, Registry, Span, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramBucket, HistogramSnapshot, Snapshot};

use std::cell::RefCell;
use std::sync::{Arc, OnceLock, RwLock};

/// The process-wide registry cell; starts disabled.
fn global_cell() -> &'static RwLock<Arc<Registry>> {
    static GLOBAL: OnceLock<RwLock<Arc<Registry>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(Registry::disabled())))
}

thread_local! {
    /// The registry [`scoped`] to this thread, if any.
    static SCOPED: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// The current process-wide registry (disabled until [`install`] is
/// called), or the one [`scoped`] to this thread. Handles are captured
/// from whatever registry is current at capture time; instruments created
/// before an `install` keep recording into the old (usually disabled)
/// registry.
pub fn global() -> Arc<Registry> {
    if let Some(registry) = SCOPED.with(|s| s.borrow().clone()) {
        return registry;
    }
    global_cell().read().expect("obs global lock").clone()
}

/// Runs `f` with `registry` standing in for the process-wide one on this
/// thread only, and returns what `f` returns. Threads `f` starts still
/// record into the process-wide registry.
pub fn scoped<T>(registry: Arc<Registry>, f: impl FnOnce() -> T) -> T {
    /// Puts the outer scope back, even if `f` panics.
    struct Restore(Option<Arc<Registry>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(registry))));
    f()
}

/// Installs `registry` as the process-wide registry and returns a handle
/// to it. Pass [`Registry::disabled`] to turn global recording back off.
pub fn install(registry: Registry) -> Arc<Registry> {
    let arc = Arc::new(registry);
    *global_cell().write().expect("obs global lock") = arc.clone();
    arc
}

/// Opens a [`Span`] on the global registry: `let _guard =
/// clarify_obs::span!("pivot_scan");` records the guard's lifetime into
/// the `span.pivot_scan.ns` histogram when it drops. No-op (and no
/// clock read) while the global registry is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
}

#[cfg(test)]
mod tests;
