//! What the benchmark reads about its own process and machine: CPU time
//! from the process CPU clock, peak memory from `/proc`, and the
//! fingerprint every result carries.

use std::time::Instant;

/// User plus system CPU seconds consumed by every thread of the process
/// so far, threads that already exited included
/// (`CLOCK_PROCESS_CPUTIME_ID`: nanosecond resolution, where
/// `/proc/self/stat` counts 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Set-up cost: the median over repeated set-ups of the CPU seconds the
/// whole process spent in one (its threads included) and of its wall
/// seconds.
pub struct SetupCost {
    pub cpu_s: f64,
    pub wall_s: f64,
    pub n: usize,
}

/// Runs `setup` `warmup` times untimed, then `n` times (at least once)
/// timing each, and returns the last one's result. Earlier results are
/// dropped after their set-up is timed, so tearing one down is not
/// counted. (The first set-ups of a process run on cold caches and a
/// growing heap and cost up to twice as much.)
pub fn time_setups<T>(
    warmup: usize,
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupCost), String> {
    for _ in 0..warmup {
        setup()?;
    }
    let (mut cpu, mut wall) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut last = None;
    for _ in 0..n.max(1) {
        let (c0, w0) = (cpu_seconds(), Instant::now());
        let made = setup()?;
        cpu.push(cpu_seconds() - c0);
        wall.push(w0.elapsed().as_secs_f64());
        last = Some(made);
    }
    let cost = SetupCost {
        cpu_s: crate::stats::median(&cpu),
        wall_s: crate::stats::median(&wall),
        n: cpu.len(),
    };
    Ok((last.expect("at least one set-up ran"), cost))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The machine a result was measured on.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Parallel capacity: two concurrent busy loops against one, as a
    /// speed-up (2.0 on two free cores, 1.0 on one).
    pub capacity: f64,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// The source revision, when the checkout is a git work tree.
    pub revision: String,
}

impl Fingerprint {
    /// Probes the machine (about a quarter of a second).
    pub fn probe() -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            capacity: capacity_probe(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            revision: git_revision().unwrap_or_else(|| "none (not a git checkout)".to_string()),
        }
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"parallel_capacity\": {:.3}, \"rustc\": \"{}\", \"revision\": \"{}\"}}",
            self.nproc, self.capacity, self.rustc, self.revision
        )
    }
}

/// Worker threads and connections the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Seconds one fixed busy loop takes.
fn busy_loop() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x = std::hint::black_box(x.rotate_left(7) ^ x.wrapping_mul(31));
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Two concurrent busy loops timed against one.
fn capacity_probe() -> f64 {
    let one = busy_loop();
    let start = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(busy_loop);
        let b = s.spawn(busy_loop);
        let _ = (a.join(), b.join());
    });
    2.0 * one / start.elapsed().as_secs_f64()
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(r)),
        None => Some(head.to_string()),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
}

#[cfg(test)]
mod tests {
    #[test]
    fn time_setups_keeps_the_last_result_and_times_each() {
        let mut made = 0;
        let (last, cost) = super::time_setups(2, 5, || {
            made += 1;
            let mut x = 0u64;
            for i in 0..100_000u64 {
                x = std::hint::black_box(x ^ i.wrapping_mul(31));
            }
            Ok(made)
        })
        .unwrap();
        assert_eq!((last, cost.n), (7, 5));
        assert!(cost.cpu_s > 0.0 && cost.wall_s > 0.0);
        assert!(super::time_setups(0, 3, || Err::<(), _>("no".to_string())).is_err());
    }
}
