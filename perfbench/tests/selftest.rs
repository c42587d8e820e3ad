//! Fast self-test of the benchmark: every workload runs briefly at a tiny
//! iteration count and must emit every metric `BENCHMARK.json` names; a
//! deliberately wrong expected decision must fail the run; requests due
//! while the server is unreachable must count as failed.

use perfbench::{result_json, run, Options, Workload};
use std::path::PathBuf;

/// The nine end-to-end metrics a run prints (four of them bounded in
/// `BENCHMARK.json` and carried in the result line).
const ALL_END_TO_END: [&str; 9] = [
    "ops_s",
    "login_p50_ms",
    "login_p99_ms",
    "enroll_p50_ms",
    "enroll_p99_ms",
    "fail_frac",
    "cpu_ms_per_op",
    "setup_s",
    "peak_rss_mb",
];

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        iterations: 2,
        sabotage: false,
        scratch_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "selftest-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

/// The metric names listed in one section of the repository's
/// `BENCHMARK.json` (`"end_to_end"` or `"per_layer"`).
fn contract_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let value = entry.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

fn result_names(json: &str) -> Vec<String> {
    let parts: Vec<&str> = json.split("\": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|part| part.rsplit('"').next().expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_metric() {
    let end_to_end = contract_names("end_to_end");
    let per_layer = contract_names("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = options(workload, trace);
            let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
            assert_eq!(outcome.failed, 0, "{}", workload.name());
            assert!(outcome.attempted > 0);
            let json = result_json(&outcome, trace);
            let expected = if trace { &per_layer } else { &end_to_end };
            assert_eq!(
                &result_names(&json),
                expected,
                "{}: {json}",
                workload.name()
            );
            for m in &outcome.end_to_end {
                assert!(m.value.is_finite(), "{}: {}", workload.name(), m.name);
                if m.name != "fail_frac" {
                    assert!(m.value > 0.0, "{}: {} is 0", workload.name(), m.name);
                }
            }
            // Every end-to-end metric that applies is printed; enroll
            // latency applies only where the workload enrolls.
            let printed: Vec<&str> = outcome.end_to_end.iter().map(|m| m.name).collect();
            let enrolls = matches!(workload, Workload::EnrollDurable | Workload::ClusterSync);
            for name in ALL_END_TO_END {
                let applies = enrolls || !name.starts_with("enroll_");
                assert_eq!(
                    printed.contains(&name),
                    applies,
                    "{}: {name}",
                    workload.name()
                );
            }
            assert!(
                !opts.scratch_root.exists(),
                "scratch root left behind: {}",
                opts.scratch_root.display()
            );
        }
    }
}

#[test]
fn a_wrong_expected_decision_is_caught() {
    let plain = options(Workload::LoginBurst, false);
    let opts = Options {
        sabotage: true,
        scratch_root: plain.scratch_root.with_file_name("selftest-sabotage"),
        ..plain
    };
    let outcome = run(&opts).expect("run completes");
    assert!(!outcome.correct, "a flipped expectation went unnoticed");
    assert!(result_json(&outcome, false).starts_with("{\"correct\": false,"));
}

#[test]
fn requests_due_while_the_server_is_down_count_as_failed() {
    use perfbench::gen::{OpStream, Population};
    use perfbench::load::{closed_loop, open_loop, Window};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // An address nothing listens on.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("bind");
    let population = Arc::new(Population::generate(7));
    let stream = || OpStream::new(7, 0, Arc::clone(&population), Box::new(|_| true), false);
    let start = Instant::now();
    let window = Window {
        start,
        t0: start,
        t1: start + Duration::from_millis(200),
    };
    for tally in [
        closed_loop(addr, stream(), 16, 4, window),
        open_loop(addr, stream(), 200.0, window),
    ] {
        assert!(tally.attempted > 1, "{tally:?}");
        assert_eq!(tally.failed, tally.attempted);
        assert_eq!(tally.acked_in_window, 0);
        let samples = tally.login_us.iter().chain(&tally.enroll_us);
        assert_eq!(samples.clone().count() as u64, tally.attempted);
        assert!(samples.into_iter().all(|us| us.is_infinite()));
    }
}
