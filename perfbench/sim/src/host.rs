//! Host cost of one simulation run, over the whole process.
//!
//! `getrusage(RUSAGE_SELF)` sums user+sys time and context switches over
//! every thread the process ever had, including the simulation's exited
//! worker threads — unlike summing `/proc/self/task/*`, which sees only
//! live threads.

use std::time::Instant;

use simnet::{SimTime, Simulation};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Process-wide counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Read the process-wide usage counters.
pub fn usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a properly sized, writable `struct rusage` for
    // x86-64/aarch64 Linux, and RUSAGE_SELF is always a valid selector.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&r.utime) + secs(&r.stime),
        ctx_switches: (r.nvcsw + r.nivcsw) as u64,
        peak_rss_mb: r.maxrss as f64 / 1024.0,
    }
}

/// Host cost of the simulation run proper (set-up excluded).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    /// Wall seconds of `Simulation::run`.
    pub wall_s: f64,
    /// Process CPU seconds consumed during the run.
    pub cpu_s: f64,
    /// Process context switches during the run.
    pub ctx_switches: u64,
    /// Peak RSS of the process so far, MiB.
    pub peak_rss_mb: f64,
}

/// Run `sim` to quiescence, measuring its host cost.
pub fn run(sim: Simulation) -> (SimTime, HostCost) {
    let u0 = usage();
    let t0 = Instant::now();
    let end = sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let u1 = usage();
    (
        end,
        HostCost {
            wall_s,
            cpu_s: u1.cpu_s - u0.cpu_s,
            ctx_switches: u1.ctx_switches - u0.ctx_switches,
            peak_rss_mb: u1.peak_rss_mb,
        },
    )
}

/// Host-speed probe: CPU seconds of a fixed piece of single-threaded
/// compute and memory work that runs none of the program's code, so a
/// change to the program cannot move it while a slower or busier host
/// does. `cpu_s` divided by the probe is the run's CPU cost at a fixed
/// host speed.
pub fn probe() -> f64 {
    const WORDS: usize = 1 << 20;
    let buf: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let u0 = usage();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..40u64 {
        for x in &buf {
            h = (h ^ x ^ round).wrapping_mul(0x100_0000_01b3);
        }
        // A strided pass that misses the caches, as pointer chasing does.
        let mut j = (h as usize) % WORDS;
        for _ in 0..WORDS / 4 {
            h ^= buf[j];
            j = (j + 4099 * 8) % WORDS;
        }
    }
    std::hint::black_box(h);
    usage().cpu_s - u0.cpu_s
}
