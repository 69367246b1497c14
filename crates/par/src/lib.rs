//! `clarify-par` — a zero-dependency, `std::thread`-based scoped worker
//! pool for deterministic data parallelism.
//!
//! The linter's per-object rule checks and the E3/E4 population sweeps
//! are embarrassingly parallel: each unit of work builds (or reuses) its
//! own `Manager`-backed BDD space, so there is no shared mutable state to
//! contend over. This crate provides the one primitive they both need —
//! a parallel map over a slice that is *byte-identical* to the serial
//! map:
//!
//! - [`par_map`] / [`par_map_indexed`]: stateless parallel map.
//! - [`par_map_init`]: parallel map with worker-local state (one
//!   `RouteSpace`/`PacketSpace` per worker, reused across its items).
//!
//! # Determinism
//!
//! Results are collected in *input index order* regardless of which worker
//! computed them or in what order chunks were claimed, so the output `Vec`
//! is exactly `items.iter().map(f).collect()` whenever `f` itself is
//! deterministic per item. The callers in this workspace guarantee that by
//! keeping every `Manager` worker-local: ROBDD canonicity means witness
//! extraction depends only on the Boolean function and the fixed variable
//! order, never on manager history, so a fresh space per worker answers
//! identically to a shared space.
//!
//! # Thread count
//!
//! Resolution order: programmatic override ([`set_threads`], used by the
//! CLIs' `--threads` flag) > the `CLARIFY_THREADS` environment variable >
//! [`std::thread::available_parallelism`]. With one thread the map runs
//! inline on the caller's thread — no pool, no synchronization.
//!
//! # Panics
//!
//! A panic in `f` is caught on the worker, the pool drains, and the
//! payload of the panic with the *smallest input index* is re-raised on
//! the caller via [`std::panic::resume_unwind`] — so a panicking workload
//! fails with the same (first) payload serial code would.

#![warn(missing_docs)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide thread-count override (the CLIs' `--threads` flag).
///
/// Passing 0 clears the override, restoring `CLARIFY_THREADS` /
/// `available_parallelism` resolution.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// Parses a `CLARIFY_THREADS`-style value: a positive decimal integer.
///
/// Returns `None` for anything else (empty, zero, garbage), in which case
/// the resolver falls through to the next source.
pub fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Resolves the worker-pool size: [`set_threads`] override, then the
/// `CLARIFY_THREADS` environment variable, then
/// [`std::thread::available_parallelism`] (1 if undetectable).
pub fn current_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(s) = std::env::var("CLARIFY_THREADS") {
        if let Some(n) = parse_threads(&s) {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parallel map preserving input order: `par_map(xs, f)` returns exactly
/// `xs.iter().map(f).collect()`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_init(items, || (), |(), _, item| f(item))
}

/// Parallel map with the input index: returns
/// `xs.iter().enumerate().map(|(i, x)| f(i, x)).collect()`.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_init(items, || (), |(), i, item| f(i, item))
}

/// Parallel map with worker-local state.
///
/// Each worker calls `init()` once (lazily, on its first item) and passes
/// the state mutably to `f` for every item it processes — the shape the
/// disambiguators need to build one `Manager`-backed space per worker and
/// reuse it across a chunk. Equivalent to
/// `{ let mut s = init(); xs.iter().enumerate().map(|(i, x)| f(&mut s, i, x)).collect() }`
/// whenever `f`'s per-item result does not depend on the state's history
/// (which ROBDD canonicity guarantees for the spaces used here).
pub fn par_map_init<T, S, R, FI, F>(items: &[T], init: FI, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    par_map_init_with_threads(current_threads(), items, init, f)
}

/// [`par_map_init`] with an explicit thread count (tests and benches; the
/// public entry points resolve the count via [`current_threads`]).
pub fn par_map_init_with_threads<T, S, R, FI, F>(
    threads: usize,
    items: &[T],
    init: FI,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let len = items.len();
    let threads = threads.clamp(1, len.max(1));
    let obs = clarify_obs::global();
    obs.counter("par.maps").incr();
    obs.counter("par.items").add(len as u64);
    if threads == 1 || len <= 1 {
        // Inline serial path: no pool, natural panic propagation. This is
        // also the reference implementation the parallel path must match.
        obs.counter("par.inline_runs").incr();
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }
    obs.counter("par.pool_runs").incr();
    let _pool_span = obs.span("par_map");

    // Chunked distribution: workers claim fixed-size chunks from a shared
    // atomic counter. ~4 chunks per worker balances load against counter
    // traffic for the skewed per-item costs BDD work produces.
    let chunk = len.div_ceil(threads * 4).max(1);
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);

    let mut slots: Vec<(usize, R)> = Vec::with_capacity(len);
    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;

    std::thread::scope(|scope| {
        let worker = || {
            let mut state: Option<S> = None;
            let mut local: Vec<(usize, R)> = Vec::new();
            let mut caught: Option<(usize, Box<dyn Any + Send>)> = None;
            'claim: while !poisoned.load(Ordering::Relaxed) {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                for (i, item) in items.iter().enumerate().take(end).skip(start) {
                    let state = state.get_or_insert_with(&init);
                    match panic::catch_unwind(AssertUnwindSafe(|| f(state, i, item))) {
                        Ok(r) => local.push((i, r)),
                        Err(payload) => {
                            poisoned.store(true, Ordering::Relaxed);
                            caught = Some((i, payload));
                            break 'claim;
                        }
                    }
                }
            }
            (local, caught)
        };

        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            // Workers never unwind (panics are caught above), so join()
            // only fails if the runtime kills a thread; treat that as a
            // panic at an index past every real one.
            let (local, caught) = handle
                .join()
                .unwrap_or_else(|payload| (Vec::new(), Some((usize::MAX, payload))));
            slots.extend(local);
            if let Some((i, payload)) = caught {
                match &first_panic {
                    Some((j, _)) if *j <= i => {}
                    _ => first_panic = Some((i, payload)),
                }
            }
        }
    });

    if let Some((_, payload)) = first_panic {
        panic::resume_unwind(payload);
    }

    debug_assert_eq!(slots.len(), len);
    slots.sort_unstable_by_key(|&(i, _)| i);
    slots.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests;
