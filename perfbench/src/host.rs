//! Host facts printed with every result, and the process-wide resource
//! readings (CPU time, peak RSS) the end-to-end metrics use.  Runs on
//! different hosts are not comparable; these lines say which host a
//! result came from.

use std::path::Path;
use std::time::Duration;

/// The compiler flags this binary was built with (captured by `build.rs`),
/// which carry the pinned `target-cpu`.
const RUSTFLAGS: &str = env!("PERFBENCH_RUSTFLAGS");

/// One line of `key=value` host facts: core count, ISA detected at run
/// time, kernel release, build flags, the filesystem holding `scratch`,
/// and how fast this host hashes right now.
pub fn describe(scratch: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "cores={cores} isa={} kernel={kernel} rustflags=\"{RUSTFLAGS}\" scratch_fs={} \
         hash_probe_us={:.1}",
        detected_isa().join(","),
        filesystem_of(scratch),
        hash_probe_us(),
    )
}

/// Median time of a scalar h^3000 on one thread: a shared host's speed
/// drifts by tens of percent over minutes, and this tells a slow run from a
/// slow program.
fn hash_probe_us() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(gp_crypto::iterated_hash(
                b"perfbench-probe",
                std::hint::black_box(b"probe"),
                3000,
            ));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn detected_isa() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut isa = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sha") {
            isa.push("sha_ni");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            isa.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            isa.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512bw") {
            isa.push("avx512bw");
        }
    }
    if isa.is_empty() {
        isa.push("baseline");
    }
    isa
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount_point), Some(fs)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        let mount_point = mount_point.replace("\\040", " ");
        if path.starts_with(&mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// `struct timeval` / `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process CPU time so far (user + system, every thread).
pub fn process_cpu() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the kernel's 64-bit
    // `struct rusage` layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
