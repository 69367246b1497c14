//! The E3/E4 population sweep: per-config overlap analysis over a
//! generated workload, fanned out with `clarify-par`.
//!
//! Every config in the population gets its own `RouteSpace` (the bins
//! already did this serially — the spaces are per-config because each
//! config declares different community/as-path atoms), so the sweep is
//! embarrassingly parallel and the fan-out changes no output byte:
//! results come back in population order.

use clarify_analysis::{acl_overlaps, overlaps, OverlapReport};
use clarify_analysis::{AnalysisError, RouteSpace};
use clarify_netconfig::{Acl, Config};

/// Overlap reports for every ACL in the population, in input order.
pub fn acl_sweep(acls: &[Acl]) -> Vec<OverlapReport> {
    clarify_par::par_map(acls, acl_overlaps)
}

/// Overlap reports for every route-map in the population, in input
/// order. Each item builds its own space, exactly as the serial loop
/// did, so parallel and serial sweeps are byte-identical.
pub fn route_map_sweep(
    route_maps: &[(Config, String)],
) -> Result<Vec<OverlapReport>, AnalysisError> {
    let reports = clarify_par::par_map(route_maps, |(cfg, name)| {
        let rm = cfg.route_map(name).expect("generated map exists").clone();
        let mut space = RouteSpace::new(&[cfg])?;
        overlaps(&mut space, cfg, &rm)
    });
    reports.into_iter().collect()
}

/// Parses `[seed] [--threads N]` from an experiment binary's argv,
/// applies the thread override, and returns `(seed, threads)`.
///
/// The seed defaults to 42 (the paper-table seed); the thread count
/// defaults to the ambient `CLARIFY_THREADS` / `available_parallelism`
/// resolution.
pub fn sweep_args() -> (u64, usize) {
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().as_deref().and_then(clarify_par::parse_threads) {
                clarify_par::set_threads(n);
            }
        } else if let Ok(s) = a.parse() {
            seed = s;
        }
    }
    (seed, clarify_par::current_threads())
}
