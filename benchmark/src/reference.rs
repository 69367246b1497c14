//! A reference kernel that scales CPU times to one host speed.
//!
//! On a shared virtual machine the same work costs more or less CPU time
//! as other guests load the host's cores and caches, in stretches of
//! seconds to tens of minutes. On a 2-vCPU guest, over fifteen minutes of
//! ten-second windows, the fast cold lints of the `wide_policy` base (the
//! 10th percentile in each window) ranged over 73% of their median; their
//! ratio to this kernel, timed in the same windows, over 31%. A run
//! therefore times the kernel between sessions and reports each CPU time
//! scaled to a host on which the kernel's fast runs take
//! [`REFERENCE_NS`].
//!
//! The kernel is the benchmark's own code and calls nothing of the system
//! under test, so no change to that system moves it. It hash-conses
//! triples into a table and probes it, the access pattern of the BDD
//! kernel's unique and computed tables, on a table of about 4 MiB: larger
//! than a core's own caches, so that it slows, as the system under test
//! does, when other guests take the shared cache. A table of 0.5 MiB
//! tracked the `wide_policy` and `acl_policy` lints less well (ratio
//! ranges of 40% and 52%, against 31% and 35%).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use crate::stats::{percentile, CpuClock};

/// The kernel time that scaled CPU times refer to: about what its fast
/// runs take on the 2-vCPU host the baseline was recorded on.
pub const REFERENCE_NS: u64 = 10_000_000;

/// How often, at most, a [`Meter`] runs the kernel.
const INTERVAL: Duration = Duration::from_millis(500);

/// The kernel's table: triples to ids, with a fixed hasher.
type Table = HashMap<(u32, u32, u32), u32, BuildHasherDefault<DefaultHasher>>;

/// Insertions per kernel run; the kernel also makes twice as many probes.
const KEYS: u32 = 160_000;

/// One run of the kernel: [`KEYS`] insertions into the emptied table,
/// then twice as many probes, with a fixed key sequence, so every run does
/// the same work. The table keeps its allocation between runs, so a run
/// allocates nothing.
fn kernel(table: &mut Table) -> u64 {
    table.clear();
    let mut x: u32 = 1;
    let mut next = |i: u32| {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (x % 997, (x >> 8) % 991, i % 64)
    };
    for i in 0..KEYS {
        let key = next(i);
        let id = table.len() as u32;
        table.entry(key).or_insert(id);
    }
    (0..2 * KEYS)
        .filter_map(|i| table.get(&next(i)))
        .map(|&id| u64::from(id))
        .sum()
}

/// Kernel runs made so far, in CPU time of the calling thread.
pub struct Meter {
    table: Table,
    samples: Vec<u64>,
    last: Option<Instant>,
}

impl Default for Meter {
    fn default() -> Meter {
        Meter {
            table: Table::with_capacity_and_hasher(KEYS as usize, Default::default()),
            samples: Vec::new(),
            last: None,
        }
    }
}

impl Meter {
    /// Times the kernel, unless it ran less than [`INTERVAL`] ago. A first,
    /// untimed run brings the table into the cache, so that the timed one
    /// measures the host rather than how much of the table the system
    /// under test left there.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        self.last = Some(Instant::now());
        std::hint::black_box(kernel(&mut self.table));
        let start = CpuClock::THIS_THREAD.now_ns();
        std::hint::black_box(kernel(&mut self.table));
        self.samples.push(CpuClock::THIS_THREAD.now_ns() - start);
    }

    /// The kernel's fast runs: the 10th percentile of its times. Like a
    /// request's least time over its replays, it leaves out the stretches
    /// in which the host was loaded.
    pub fn fast_ns(&self) -> Option<u64> {
        percentile(&self.samples, 0.1)
    }

    /// The factor that scales CPU times measured alongside these kernel
    /// runs to [`REFERENCE_NS`].
    pub fn scale(&self) -> Option<f64> {
        self.fast_ns()
            .map(|ns| REFERENCE_NS as f64 / ns.max(1) as f64)
    }
}
