//! The host-speed reference: a fixed kernel, frozen in the benchmark and
//! independent of the program, timed between the program's runs.
//!
//! The host's speed drifts by a fifth or more over minutes, and the drift
//! moves the program's run times and this kernel's time together (see
//! `README.md`). Reporting `jobs_per_s` at the reference speed — the wall
//! time scaled by the kernel's nominal time over its measured time —
//! takes most of the drift out of it while keeping its unit. A change to
//! the program leaves the kernel alone, so it still shows in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::measure::{median, secs_since};

/// Keys the kernel sorts and inserts.
const KEYS: usize = 100_000;
/// Passes of the kernel per sample.
const PASSES: u64 = 5;

/// A round figure near the kernel's median time, in seconds, on the
/// shared 2-vCPU Intel Xeon VM the benchmark was tuned on: the reference
/// speed. Any fixed value would do; it only sets the scale.
pub const NOMINAL_S: f64 = 0.080;

/// One pass: sort seeded keys and build and walk an ordered map of them,
/// the mix of sorting, pointer-chasing and allocation the program's
/// event queues, profiles and histories do. `keys` is reused, so only the
/// map's small nodes are allocated.
fn pass(keys: &mut [u64], seed: u64) -> u64 {
    let mut z = seed;
    for k in keys.iter_mut() {
        z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *k = z >> 20;
    }
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i);
    }
    map.iter().take(keys.len() / 2).map(|(k, _)| *k).sum()
}

/// Kernel times sampled over a run.
#[derive(Default)]
pub struct HostClock {
    samples: Vec<f64>,
    keys: Vec<u64>,
}

/// Return the heap's free memory to the system (glibc `malloc_trim`).
///
/// The kernel's map allocates about 3 MB. Whether that memory is still
/// mapped from the program's last run, or must be faulted in again,
/// depends on how the program left the heap, and on the allocator's
/// thresholds, which the program's large allocations raise. Left alone,
/// that changed the kernel's time by a quarter between workloads.
/// Trimming first, and keeping the one large buffer (`keys`) allocated,
/// makes the kernel fault its map in every time, whatever the program
/// did before it.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only releases free memory; it takes no
        // pointers and is safe to call at any time from one thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

impl HostClock {
    /// Time the kernel once, from a trimmed heap.
    pub fn sample(&mut self) {
        self.keys.resize(KEYS, 0);
        trim_heap();
        let t0 = Instant::now();
        for p in 0..PASSES {
            black_box(pass(&mut self.keys, black_box(p)));
        }
        self.samples.push(secs_since(t0));
    }

    /// How much slower than nominal the host ran: the median kernel time
    /// over `NOMINAL_S`. A wall time divided by this is the time at the
    /// reference speed.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / NOMINAL_S
    }
}
