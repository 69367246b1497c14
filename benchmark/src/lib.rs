//! `clarify-benchmark`: a closed-loop benchmark of the interactive
//! synthesize → verify → disambiguate → lint loop, served by
//! `clarify-serve` over its real NDJSON/TCP protocol, plus a traced run
//! that breaks each request down by layer. See `README.md` for the
//! workloads, the metrics, and how each metric is measured.

pub mod check;
pub mod closed_loop;
pub mod inputs;
pub mod reference;
pub mod rule;
pub mod session;
pub mod stats;
pub mod trace;

use stats::Metric;

/// Pool threads (`clarify_par::set_threads`), fixed so results do not
/// depend on the host's core count; the output records that count. One,
/// so that a request does the same work in every run: with two, how the
/// pool splits a scan between worker-local spaces, and so the work done,
/// depends on how the host schedules the workers.
pub const THREADS: usize = 1;

/// What one run produced.
pub struct Outcome {
    /// Every metric of the run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation or failed output check.
    pub failures: Vec<String>,
}
