//! A minimal, dependency-free property-testing harness and micro-bench
//! runner for the clarify workspace.
//!
//! # Property testing
//!
//! Properties are written with the [`property!`] macro. Each argument is
//! drawn from a *generator* — any `Fn(&mut Source) -> T` — and the body
//! runs once per case with standard `assert!`-style macros:
//!
//! ```
//! use clarify_testkit::{gens, property, prop_assert, Rng, Source};
//!
//! fn arb_len(g: &mut Source) -> usize {
//!     g.gen_range(0usize..10)
//! }
//!
//! property! {
//!     fn vectors_have_their_length(n in arb_len, fill in gens::ints(0u8..=9)) {
//!         prop_assert!(vec![fill; n].len() == n);
//!     }
//! }
//! ```
//!
//! The harness draws every random decision from a recorded stream of
//! `u64` *choices* ([`Source`]). On failure it greedily shrinks that
//! stream — truncating it and zeroing / halving / decrementing individual
//! choices — and re-runs the property until no smaller stream still fails.
//! Because generators map the all-zeros stream to their simplest value
//! (ranges collapse to their lower bound, lengths to their minimum), this
//! shrinks composite inputs without any per-type shrinker. The final
//! report names the failing case seed (replayable via `CLARIFY_PROP_SEED`)
//! and the shrunk input.
//!
//! Runs are fully deterministic: the base seed is a fixed constant unless
//! `CLARIFY_PROP_SEED` overrides it, so CI failures reproduce locally
//! byte-for-byte.
//!
//! # Micro-benches
//!
//! The [`mod@bench`] module exposes a Criterion-shaped API (`Criterion`,
//! `benchmark_group`, `bench_function`, `criterion_group!`,
//! `criterion_main!`) backed by plain `std::time::Instant` timing, so the
//! workspace's benches build and run with zero external dependencies.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};

pub use clarify_rng::{Rng, RngCore, SplitMix64, StdRng};

pub mod bench;
pub mod edits;
pub mod gens;
pub mod policies;

/// Default number of cases per property (override per-property with
/// `cases N`, or globally with the `CLARIFY_PROP_CASES` env var).
pub const DEFAULT_CASES: u32 = 256;

const SHRINK_BUDGET: usize = 768;

/// The stream of random choices a property draws from.
///
/// In *record* mode (normal generation) every `u64` comes from a seeded
/// [`StdRng`] and is logged. In *replay* mode (shrinking) the stream is a
/// fixed buffer; draws past its end return 0, which by construction maps
/// to each generator's simplest value.
pub struct Source {
    mode: Mode,
}

enum Mode {
    Record { rng: StdRng, choices: Vec<u64> },
    Replay { data: Vec<u64>, pos: usize },
}

impl Source {
    /// A recording source seeded with `seed`.
    pub fn recording(seed: u64) -> Source {
        Source {
            mode: Mode::Record {
                rng: StdRng::seed_from_u64(seed),
                choices: Vec::new(),
            },
        }
    }

    /// A replaying source over a fixed choice buffer.
    pub fn replaying(data: Vec<u64>) -> Source {
        Source {
            mode: Mode::Replay { data, pos: 0 },
        }
    }

    fn choices(&self) -> &[u64] {
        match &self.mode {
            Mode::Record { choices, .. } => choices,
            Mode::Replay { data, .. } => data,
        }
    }

    /// Generates a `Vec` whose length is drawn from `[min, max]` and whose
    /// items come from `item`. Shrinks toward `min` elements.
    pub fn vec<T>(
        &mut self,
        min: usize,
        max: usize,
        mut item: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.gen_range(min..=max);
        (0..n).map(|_| item(self)).collect()
    }

    /// A string of up to `max_len` printable ASCII characters (the
    /// `[ -~]{0,N}` pattern), optionally extended with `extra` characters.
    pub fn ascii(&mut self, max_len: usize, extra: &[char]) -> String {
        let n = self.gen_range(0..=max_len);
        (0..n)
            .map(|_| {
                let printable = ('~' as usize - ' ' as usize) + 1;
                let k = self.gen_range(0..printable + extra.len());
                if k < printable {
                    (b' ' + k as u8) as char
                } else {
                    extra[k - printable]
                }
            })
            .collect()
    }

    /// Picks one of `options`, cloned. Shrinks toward the first option, so
    /// list the simplest alternative first.
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        assert!(!options.is_empty(), "pick from empty options");
        options[self.gen_range(0..options.len())].clone()
    }
}

impl RngCore for Source {
    fn next_u64(&mut self) -> u64 {
        match &mut self.mode {
            Mode::Record { rng, choices } => {
                let v = rng.next_u64();
                choices.push(v);
                v
            }
            Mode::Replay { data, pos } => {
                let v = data.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                v
            }
        }
    }
}

thread_local! {
    static CURRENT_INPUT: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Records a human-readable description of the current case's generated
/// input. Called by the [`property!`] expansion; the last value recorded
/// before a failure is what the report shows as the (shrunk) input.
pub fn record_input(desc: String) {
    CURRENT_INPUT.with(|c| *c.borrow_mut() = desc);
}

fn take_input() -> String {
    CURRENT_INPUT.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Everything known about a property failure after shrinking.
#[derive(Debug)]
pub struct Failure {
    /// Zero-based index of the failing case.
    pub case: u32,
    /// The per-case seed that reproduces the failure from scratch.
    pub seed: u64,
    /// Description of the shrunk input (from [`record_input`]).
    pub input: String,
    /// The panic message of the shrunk failure.
    pub message: String,
    /// How many accepted shrink steps led to the final input.
    pub shrink_steps: u32,
    /// The shrunk choice stream (trailing zeros stripped).
    pub choices: Vec<u64>,
}

/// Drives one property: generates cases, shrinks failures, reports.
pub struct Runner {
    name: String,
    cases: u32,
}

impl Runner {
    /// A runner named after the property (used in failure reports).
    pub fn new(name: &str) -> Runner {
        let cases = std::env::var("CLARIFY_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CASES);
        Runner {
            name: name.to_string(),
            cases,
        }
    }

    /// Sets the number of cases (unless `CLARIFY_PROP_CASES` overrides).
    pub fn cases(mut self, n: u32) -> Runner {
        if std::env::var("CLARIFY_PROP_CASES").is_err() {
            self.cases = n;
        }
        self
    }

    /// Runs the property, panicking with a full report on failure.
    pub fn run<F: Fn(&mut Source)>(&self, f: F) {
        if let Some(fail) = self.run_impl(&f) {
            panic!(
                "[clarify-testkit] property '{}' failed\n  \
                 case {} of {}, seed {:#018x}\n  \
                 shrunk input ({} choices after {} shrink steps):\n    {}\n  \
                 panic: {}\n  \
                 replay: CLARIFY_PROP_SEED={:#x} cargo test {}",
                self.name,
                fail.case + 1,
                self.cases,
                fail.seed,
                fail.choices.len(),
                fail.shrink_steps,
                if fail.input.is_empty() {
                    "<no recorded input>"
                } else {
                    &fail.input
                },
                fail.message,
                fail.seed,
                self.name.rsplit("::").next().unwrap_or(&self.name),
            );
        }
    }

    /// Like [`Runner::run`] but returns the failure instead of panicking
    /// (used by the harness's own tests).
    pub fn run_impl<F: Fn(&mut Source)>(&self, f: &F) -> Option<Failure> {
        // A pinned seed replays exactly one case.
        if let Some(seed) = env_seed() {
            return self.run_case(0, seed, f);
        }
        let base = 0x436c_6172_6966_7921; // "Clarify!"
        for case in 0..self.cases {
            let mix = (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let seed = SplitMix64::new(base ^ mix).next_u64();
            if let Some(fail) = self.run_case(case, seed, f) {
                return Some(fail);
            }
        }
        None
    }

    fn run_case<F: Fn(&mut Source)>(&self, case: u32, seed: u64, f: &F) -> Option<Failure> {
        record_input(String::new());
        let mut src = Source::recording(seed);
        let first = panic::catch_unwind(AssertUnwindSafe(|| f(&mut src)));
        if first.is_ok() {
            return None;
        }
        // Genuine failure: shrink quietly (suppress the per-attempt panic
        // printouts), then replay the winner to capture its input/message.
        let recorded = strip_trailing_zeros(src.choices().to_vec());
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let (choices, shrink_steps) = shrink(recorded, f);
        record_input(String::new());
        let mut replay = Source::replaying(choices.clone());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut replay)));
        panic::set_hook(prev_hook);
        let message = match outcome {
            Err(payload) => payload_message(&*payload),
            // Should be impossible — shrinking only accepts failing
            // candidates — but report rather than hide the original.
            Ok(()) => payload_message(&*first.unwrap_err()),
        };
        Some(Failure {
            case,
            seed,
            input: take_input(),
            message,
            shrink_steps,
            choices,
        })
    }
}

fn env_seed() -> Option<u64> {
    let v = std::env::var("CLARIFY_PROP_SEED").ok()?;
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn strip_trailing_zeros(mut v: Vec<u64>) -> Vec<u64> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// Greedy shrink: repeatedly try simpler choice streams (shorter, then
/// element-wise zero / halve / decrement), keeping the first candidate
/// that still fails, until a full pass makes no progress or the replay
/// budget runs out. Returns the shrunk stream and accepted step count.
fn shrink<F: Fn(&mut Source)>(mut best: Vec<u64>, f: &F) -> (Vec<u64>, u32) {
    let mut budget = SHRINK_BUDGET;
    let mut steps = 0u32;
    let still_fails = |cand: &[u64]| -> bool {
        record_input(String::new());
        let mut src = Source::replaying(cand.to_vec());
        panic::catch_unwind(AssertUnwindSafe(|| f(&mut src))).is_err()
    };
    loop {
        let mut improved = false;

        // Truncation: cut the tail (replay pads with zeros, so this also
        // covers "zero the whole suffix").
        let mut cut = best.len() / 2;
        while cut < best.len() && budget > 0 {
            budget -= 1;
            let cand = strip_trailing_zeros(best[..cut].to_vec());
            if cand.len() < best.len() && still_fails(&cand) {
                best = cand;
                steps += 1;
                improved = true;
                cut = best.len() / 2;
            } else {
                // Move the cut point toward the full length.
                cut += (best.len() - cut).div_ceil(2).max(1);
            }
        }

        // Element-wise simplification: zero fast path, then a binary
        // descent toward the smallest value of this choice that still
        // fails (exact when failure is monotone in the choice, and a
        // cheap downhill step otherwise — the outer loop retries).
        for i in 0.. {
            // `best` may have been truncated by an accepted candidate.
            if i >= best.len() || budget == 0 {
                break;
            }
            if best[i] == 0 {
                continue;
            }
            let mut cand = best.clone();
            cand[i] = 0;
            budget -= 1;
            if still_fails(&cand) {
                best = strip_trailing_zeros(cand);
                steps += 1;
                improved = true;
                continue;
            }
            let (mut lo, mut hi) = (0u64, best[i]);
            while lo < hi && budget > 0 {
                budget -= 1;
                let mid = lo + (hi - lo) / 2;
                cand[i] = mid;
                if still_fails(&cand) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            if hi < best[i] {
                best[i] = hi;
                steps += 1;
                improved = true;
            }
        }

        if !improved || budget == 0 {
            return (best, steps);
        }
    }
}

/// Defines `#[test]` functions that check a property over generated
/// inputs.
///
/// ```ignore
/// property! {
///     /// Doc comments and attributes pass through.
///     fn name(x in gen_a, y in gen_b) cases 512 { body }
///     fn other(x in gens::ints(0u8..=32)) { body }
/// }
/// ```
///
/// Each generator is any expression callable as `Fn(&mut Source) -> T`
/// with `T: Debug`. `cases N` is optional (default
/// [`DEFAULT_CASES`][crate::DEFAULT_CASES]).
#[macro_export]
macro_rules! property {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) cases $cases:literal $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::Runner::new(concat!(module_path!(), "::", stringify!($name)))
                .cases($cases)
                .run(|__g: &mut $crate::Source| {
                    $(let $arg = ($gen)(__g);)+
                    $crate::record_input(format!(
                        concat!($(stringify!($arg), " = {:?}; ",)+),
                        $(&$arg),+
                    ));
                    $body
                });
        }
        $crate::property! { $($rest)* }
    };
    (
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::Runner::new(concat!(module_path!(), "::", stringify!($name)))
                .run(|__g: &mut $crate::Source| {
                    $(let $arg = ($gen)(__g);)+
                    $crate::record_input(format!(
                        concat!($(stringify!($arg), " = {:?}; ",)+),
                        $(&$arg),+
                    ));
                    $body
                });
        }
        $crate::property! { $($rest)* }
    };
}

/// `assert!` under a property (kept distinct so ported suites read the
/// same as their proptest originals).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests;
