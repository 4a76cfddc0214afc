//! Host-side measurement helpers: peak memory, parallelism, probe timing.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Peak resident set of the workload in MiB: `VmHWM` in
/// `/proc/self/status` less the benchmark's own reference buffers (27 MiB
/// that would otherwise drown the small workloads' footprint). `None` where
/// procfs does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some((kib * 1024.0 - reference().bytes() as f64) / (1 << 20) as f64)
}

/// Threads a workload may use: at most two, at most what the host has.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

/// Median nanoseconds of one `call`, over `batches` timed batches of
/// `reps` calls each — a median of batch means, never a minimum. The
/// argument and result go through `black_box` so the work cannot be
/// precomputed or deleted.
pub fn probe_ns<T>(batches: usize, reps: usize, mut call: impl FnMut() -> T) -> f64 {
    let mut means = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..reps {
            black_box(call());
        }
        means.push(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    stats::median(&means)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A fixed piece of work timed just before and just after every round, to
/// read how fast the machine is running *right now*: one tier per level of
/// the memory hierarchy the workloads live in — a dependent multiply-add
/// chain over 16 KiB (L1), summing passes over 3 MiB (L2/L3) and over
/// 24 MiB (DRAM).
///
/// Why it exists: the sandbox is a small virtual machine whose co-tenants
/// slow it by 20–50 % in waves a minute or two long (cache and memory
/// contention; `/proc/stat` steal explains little of it). Over fifteen sets of
/// ten identical runs, raw wall-clock throughput spread by 7–33 %
/// (interquartile range over median) and twice exceeded the 25 % that is the
/// largest bound the driver accepts; the same runs spread 5–19 % once each
/// round was divided by its reference (the paired figures are in the README).
/// The reference is benchmark code, so no change to the program can move it.
struct Reference {
    tiers: [Vec<f32>; 3],
}

fn sum_passes(data: &[f32], passes: usize) {
    for _ in 0..passes {
        let mut lanes = [0.0f32; 8];
        for chunk in black_box(data).chunks_exact(8) {
            for (lane, x) in lanes.iter_mut().zip(chunk) {
                *lane += x;
            }
        }
        black_box(lanes);
    }
}

impl Reference {
    fn new() -> Self {
        let fill = |n: usize| (0..n).map(|i| 0.5 + (i % 251) as f32 * 1e-3).collect::<Vec<f32>>();
        Self { tiers: [fill(4 << 10), fill(768 << 10), fill(6 << 20)] }
    }

    fn bytes(&self) -> usize {
        self.tiers.iter().map(|t| t.len() * std::mem::size_of::<f32>()).sum()
    }

    /// Seconds one pass over the three tiers takes: three thirds are timed
    /// and the median third counts, so a burst that lands on one of them
    /// does not pass for the machine's speed.
    fn time(&self) -> f64 {
        let third = || {
            let start = Instant::now();
            let mut acc = 1.0f32;
            for _ in 0..430 {
                for x in black_box(&self.tiers[0]) {
                    acc = acc.mul_add(0.999, *x);
                }
            }
            black_box(acc);
            sum_passes(&self.tiers[1], 43);
            sum_passes(&self.tiers[2], 2);
            secs(start)
        };
        3.0 * stats::median(&[third(), third(), third()])
    }
}

/// The process's one reference workload (built on first use, before any
/// span starts).
fn reference() -> &'static Reference {
    static REFERENCE: std::sync::OnceLock<Reference> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(Reference::new)
}

/// Seconds a reference pass takes on the 2-core sandbox when nothing
/// contends with it. Only a scale: it makes a quiet run's `seconds` equal
/// its wall seconds.
pub const REFERENCE_NOMINAL_S: f64 = 0.042;

/// One timed span: a whole round, or the repeated set-ups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall seconds at the machine's nominal speed:
    /// `wall × REFERENCE_NOMINAL_S ÷ reference`. The end-to-end host
    /// metrics are built on this.
    pub seconds: f64,
    /// Wall seconds as the clock read them. Layer attribution uses this,
    /// beside spans and probes that are raw readings too.
    pub wall: f64,
    /// Mean seconds of the reference passes before and after the span.
    pub reference: f64,
}

/// One reading of the reference, in seconds (for spans that are sampled
/// rather than bracketed — the repeated set-ups).
pub fn reference_seconds() -> f64 {
    reference().time()
}

/// Times a span between two reference passes.
pub struct Stopwatch {
    before: f64,
    start: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        let before = reference().time();
        Self { before, start: Instant::now() }
    }

    pub fn stop(self) -> Timed {
        let wall = secs(self.start);
        let reference = (self.before + reference().time()) / 2.0;
        Timed { seconds: wall * REFERENCE_NOMINAL_S / reference, wall, reference }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_are_wall_scaled_by_the_reference() {
        let watch = Stopwatch::start();
        black_box((0..200_000u64).sum::<u64>());
        let timed = watch.stop();
        assert!(timed.reference > 0.0 && timed.wall > 0.0);
        assert!((timed.seconds - timed.wall * REFERENCE_NOMINAL_S / timed.reference).abs() < 1e-12);
    }
}
