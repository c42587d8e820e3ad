//! Machine-readable benchmark report for the hot-path pipeline.
//!
//! Times the primitives the optimization work targets — one-shot vs
//! incremental SHA-256, scalar vs midstate vs multi-lane `h^1000`, the
//! dispatched per-entry-salt batch path on the kernel this CPU selects, the
//! 5-click verify path with and without scratch reuse, and the batched vs
//! per-entry brute force — and writes `BENCH_results.json` (or the path in
//! `GP_BENCH_OUT`).  CI runs this after the test suite so every change
//! carries its measured speedups with it.
//!
//! Usage: `cargo run --release -p gp-bench --bin bench_report`

use gp_attacks::{ClickPointPool, OfflineKnownGridAttack};
use gp_bench::report::BenchReport;
use gp_crypto::{
    iterated_hash, iterated_hash_many_salted_into, iterated_hash_reference, SaltedHasher, Sha256,
};
use gp_geometry::{ImageDims, Point};
use gp_passwords::prelude::*;
use gp_passwords::VerifyScratch;
use std::time::Instant;

/// Median nanoseconds per call of `f`, from `samples` timed samples of
/// auto-calibrated batches.
fn median_ns<F: FnMut()>(mut f: F) -> f64 {
    // Calibrate so one sample takes ~5 ms.
    let mut iters = 1u64;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        if elapsed > 2e6 || iters >= 1 << 22 {
            break elapsed / iters as f64;
        }
        iters *= 4;
    };
    let iters_per_sample = ((5e6 / per_iter.max(0.5)) as u64).clamp(1, 1 << 22);
    let samples = 9;
    let mut medians: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters_per_sample {
            f();
        }
        medians.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    medians.sort_by(|a, b| a.total_cmp(b));
    medians[medians.len() / 2]
}

struct Report {
    results: Vec<(String, f64)>,
}

impl Report {
    fn measure<F: FnMut()>(&mut self, name: &str, f: F) -> f64 {
        let ns = median_ns(f);
        eprintln!("[bench_report] {name:<44} {ns:>12.1} ns/op");
        self.results.push((name.to_string(), ns));
        ns
    }
}

fn main() {
    let mut report = Report {
        results: Vec::new(),
    };
    let mut speedups: Vec<(String, f64)> = Vec::new();

    // --- SHA-256: one-shot single-block fast path vs incremental. ---
    let msg40 = [0xabu8; 40];
    let oneshot = report.measure("sha256/one_shot_40B", || {
        std::hint::black_box(Sha256::digest(std::hint::black_box(&msg40)));
    });
    let incremental = report.measure("sha256/incremental_40B", || {
        let mut h = Sha256::new();
        h.update(std::hint::black_box(&msg40));
        std::hint::black_box(h.finalize());
    });
    speedups.push(("sha256_one_shot".into(), incremental / oneshot));

    // --- h^1000: reference vs one-shot/midstate scalar vs 16-lane. ---
    let salt = b"gp-passwords/v1\x1falice";
    let pre_image = [0x5au8; 180];
    let reference = report.measure("h1000/reference_21B_salt", || {
        std::hint::black_box(iterated_hash_reference(salt, &pre_image, 1000));
    });
    let scalar = report.measure("h1000/one_shot_scalar_21B_salt", || {
        std::hint::black_box(iterated_hash(salt, &pre_image, 1000));
    });
    speedups.push(("h1000_scalar".into(), reference / scalar));

    // Midstate payoff isolated: a 64-byte salt costs the reference two
    // compressions per round, the midstate path one (theoretical 2.0×); a
    // 128-byte salt (domain + image hash + username scale) costs three
    // versus one (theoretical 3.0×).
    let long_salt = [0x77u8; 64];
    let ref_long = report.measure("h1000/reference_64B_salt", || {
        std::hint::black_box(iterated_hash_reference(&long_salt, &pre_image, 1000));
    });
    let mid_long = report.measure("h1000/midstate_64B_salt", || {
        std::hint::black_box(iterated_hash(&long_salt, &pre_image, 1000));
    });
    speedups.push(("h1000_midstate_64B_salt".into(), ref_long / mid_long));
    let longer_salt = [0x33u8; 128];
    let ref_longer = report.measure("h1000/reference_128B_salt", || {
        std::hint::black_box(iterated_hash_reference(&longer_salt, &pre_image, 1000));
    });
    let mid_longer = report.measure("h1000/midstate_128B_salt", || {
        std::hint::black_box(iterated_hash(&longer_salt, &pre_image, 1000));
    });
    speedups.push(("h1000_midstate_128B_salt".into(), ref_longer / mid_longer));

    // Lane sweep (per message, batches of 32).
    let messages: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 180]).collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let hasher = SaltedHasher::new(salt);
    let mut out = Vec::new();
    macro_rules! lane_bench {
        ($($lanes:literal),*) => {$({
            let batch = report.measure(
                concat!("h1000/lanes_", stringify!($lanes), "_batch32"),
                || {
                    hasher.iterated_many_lanes_into::<$lanes>(&refs, 1000, &mut out);
                    std::hint::black_box(&out);
                },
            );
            let per_msg = batch / refs.len() as f64;
            report.results.push((
                format!("h1000/lanes_{}_per_msg", $lanes),
                per_msg,
            ));
            speedups.push((format!("h1000_lanes_{}", $lanes), reference / per_msg));
        })*};
    }
    lane_bench!(2, 4, 8, 16);

    // Per-entry-salt batches through the public dispatcher, at a lightly
    // loaded node's batch of 1, a partial batch of 4 and a full batch of
    // 16, in two two-block round layouts.  26 B is the server's salt
    // (`gp-passwords/v1\x1f` + a 10-byte username): its digest lies wholly
    // in the round's first block.  40 B straddles the digest across the
    // block boundary; no serving account has it.  These rows time
    // whichever kernel this CPU selects.
    let kernel = gp_crypto::active_kernel();
    eprintln!("[bench_report] iterated-hash kernel: {kernel}");
    let mut single_26b = f64::INFINITY;
    for salt_len in [26usize, 40] {
        let server_hasher = SaltedHasher::new(&vec![0x42u8; salt_len]);
        for n in [1usize, 4, 16] {
            let hashers = vec![&server_hasher; n];
            let batch = format!("h1000/many_salted_{n}_batch_{salt_len}B_salt");
            let per_msg = report.measure(&batch, || {
                iterated_hash_many_salted_into(&hashers, &refs[..n], 1000, &mut out);
                std::hint::black_box(&out);
            }) / n as f64;
            if (salt_len, n) == (26, 1) {
                single_26b = per_msg;
            }
            report.results.push((
                format!("h1000/many_salted_{n}_per_msg_{salt_len}B_salt"),
                per_msg,
            ));
        }
    }
    // The portable scalar chain (the reference row) runs several times
    // slower than one SHA-NI chain, so noise cannot trip this; a kernel
    // that lost its SHA-NI speed (such as a legacy-SSE/AVX transition
    // stall, ~100x) does.
    let sha_ni_too_slow = kernel == "sha_ni" && single_26b >= reference / 2.0;

    // --- Full 5-click verify: fresh allocations vs scratch reuse. ---
    let clicks: Vec<Point> = vec![
        Point::new(50.0, 60.0),
        Point::new(120.0, 200.0),
        Point::new(301.0, 75.0),
        Point::new(400.0, 310.0),
        Point::new(222.0, 111.0),
    ];
    let attempt: Vec<Point> = clicks.iter().map(|p| p.offset(4.0, -4.0)).collect();
    let system = GraphicalPasswordSystem::new(
        PasswordPolicy::new(ImageDims::STUDY, 5),
        DiscretizationConfig::centered(9),
        1000,
    );
    let stored = system.enroll("bench-user", &clicks).unwrap();
    let fresh = report.measure("verify_5click/fresh", || {
        std::hint::black_box(system.verify(&stored, &attempt).unwrap());
    });
    let mut scratch = VerifyScratch::new();
    let scratched = report.measure("verify_5click/scratch_reuse", || {
        std::hint::black_box(
            system
                .verify_with_scratch(&stored, &attempt, &mut scratch)
                .unwrap(),
        );
    });
    speedups.push(("verify_scratch".into(), fresh / scratched));

    // --- Offline brute force: per-entry verify vs batched dedupe pipeline.
    // 8-point pool, 3 clicks → 336 entries per walk; pool points cluster so
    // dedupe has real work to do, and no entry cracks the target.
    let original = [
        Point::new(60.0, 60.0),
        Point::new(200.0, 120.0),
        Point::new(320.0, 250.0),
    ];
    let bf_system = GraphicalPasswordSystem::new(
        PasswordPolicy::new(ImageDims::STUDY, 3),
        DiscretizationConfig::centered(6),
        100,
    );
    let far: Vec<Point> = original.iter().map(|p| p.offset(80.0, 40.0)).collect();
    let bf_target = bf_system.enroll("victim", &far).unwrap();
    let mut pool_points: Vec<Point> = original
        .iter()
        .flat_map(|p| [p.offset(0.0, 0.0), p.offset(1.5, -1.5)])
        .collect();
    pool_points.extend([Point::new(30.0, 300.0), Point::new(420.0, 40.0)]);
    let attack = OfflineKnownGridAttack::new(ClickPointPool::new(pool_points, 3));
    let entries = attack.pool().entry_count() as f64;

    let per_entry = report.measure("brute_force/per_entry_verify_walk", || {
        let mut cracked = false;
        for entry in attack.pool().enumerate() {
            cracked |= bf_system.verify(&bf_target, &entry).unwrap_or(false);
        }
        std::hint::black_box(cracked);
    }) / entries;
    report
        .results
        .push(("brute_force/per_entry_verify_per_guess".into(), per_entry));
    let batched = report.measure("brute_force/batched_walk", || {
        std::hint::black_box(attack.brute_force(&bf_system, &bf_target, u64::MAX));
    }) / entries;
    report
        .results
        .push(("brute_force/batched_per_guess".into(), batched));
    speedups.push(("brute_force_batched".into(), per_entry / batched));

    // --- Emit JSON, preserving any serving-layer (`authload`) metrics
    // already present in the output file. ---
    let path = std::env::var("GP_BENCH_OUT").unwrap_or_else(|_| "BENCH_results.json".into());
    let path = std::path::PathBuf::from(path);
    let mut out = BenchReport::load(&path).unwrap_or_default();
    let mut fresh = BenchReport::new();
    for (name, ns) in &report.results {
        fresh.set_result(name, *ns);
    }
    for (name, x) in &speedups {
        fresh.set_speedup(name, *x);
    }
    out.merge_from(&fresh);
    out.save(&path).expect("write benchmark report");
    eprintln!("[bench_report] wrote {}", path.display());
    for (name, x) in &speedups {
        eprintln!("[bench_report] speedup {name:<28} {x:>6.2}x");
    }
    if sha_ni_too_slow {
        eprintln!(
            "[bench_report] FAIL: SHA-NI h1000/many_salted_1_per_msg_26B_salt \
             {single_26b:.0} ns is not below half of h1000/reference_21B_salt \
             {reference:.0} ns"
        );
        std::process::exit(1);
    }
}
