//! The serving benchmark of the graphical-password auth service.
//!
//! One run drives one named workload against the real TCP server for a
//! fixed window and reports its end-to-end metrics; a traced run adds a
//! per-layer breakdown from an in-process replay of the same seeded
//! request stream (see [`trace`]).  Every response is checked: a login
//! inside the centered tolerance must be `Accepted`, a decoy login outside
//! it must not be, a fresh enrollment must be `EnrollOk`.
//!
//! Workloads (two client connections each; the server is
//! `ServerConfig::study_default()` with `hash_iterations = 3000`):
//!
//! | workload | deployment | load |
//! |---|---|---|
//! | `login_burst` | 1 node, in memory | closed, 2 × 16-deep pipelined logins |
//! | `login_trickle` | 1 node, in memory | open, unpipelined Poisson logins at 150/s |
//! | `enroll_durable` | 1 node, `fsync: Always` | closed, 2 × 16-deep, 4 enrolls each |
//! | `cluster_sync` | 2 durable nodes, sync replication | as `enroll_durable`, connection i → node i |
//!
//! Which layer metric should move which end-to-end metric, and where a
//! change is predicted to show no effect.  The login workloads send no
//! enrollments, so they report no enroll latency, and their enroll-only
//! layer metrics (`system.prepare_enroll_us`, `wal.*`, `replication.*`)
//! and the counts of layers they do not use read 0.
//! `recovery.replay_s` times the plain store open on in-memory nodes, and
//! `replication.group_us` is replayed wherever there are enrollments,
//! though only `cluster_sync` serves through it:
//!
//! | layer metric | moves | on | no change on |
//! |---|---|---|---|
//! | `batch.attempt_us` | `ops_s`, `cpu_ms_per_op` | `login_burst` | `login_trickle` |
//! | `batch.run1_us` | `login_p50_ms` | `login_trickle` | `login_burst` |
//! | `batch.lane_occupancy`, `batch.full_run_frac` | `ops_s` | `enroll_durable`, `cluster_sync` | |
//! | `system.*`, `shard.*`, `lockout.*`, `protocol.*`, `framing.*` | `cpu_ms_per_op` | `login_burst` | |
//! | `wal.*` | `enroll_p50_ms`, `enroll_p99_ms`, `ops_s` | `enroll_durable` | `login_*` |
//! | `recovery.*` | `setup_s` | `enroll_durable`, `cluster_sync` | `login_*` |
//! | `replication.*` | `enroll_p50_ms`, `enroll_p99_ms` | `cluster_sync` | `enroll_durable` |
//! | `serve.wait_us` | `login_p50_ms` | `login_trickle`, `login_burst` | |
//! | `serve.wait_p99_us` | `login_p99_ms` | `login_trickle` | |
//! | `client.late_ms` | (generator health, not the program) | `login_trickle` | |

pub mod gen;
pub mod host;
pub mod load;
pub mod node;
pub mod trace;

use gen::{OpStream, Population};
use load::{Tally, Window};
use node::{Counters, Deployment, Shape};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (and generator threads) per workload.
pub const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Pipeline depth of the closed-loop workloads.
const DEPTH: usize = 16;
/// Requests replayed by a traced run.
const REPLAY_OPS: usize = 1024;

/// The shipped iteration count the benchmark serves with.
pub const ITERATIONS: u32 = 3000;

/// How a workload offers load.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// `CONNS` connections × `DEPTH`-deep bursts, `enrolls` per burst.
    Closed { enrolls: usize },
    /// `CONNS` unpipelined Poisson login streams totalling `rate`
    /// requests/s.
    Open { rate: f64 },
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LoginBurst,
    LoginTrickle,
    EnrollDurable,
    ClusterSync,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::LoginBurst,
        Workload::LoginTrickle,
        Workload::EnrollDurable,
        Workload::ClusterSync,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoginBurst => "login_burst",
            Workload::LoginTrickle => "login_trickle",
            Workload::EnrollDurable => "enroll_durable",
            Workload::ClusterSync => "cluster_sync",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::LoginBurst | Workload::LoginTrickle => Shape::InMemory,
            Workload::EnrollDurable => Shape::Durable,
            Workload::ClusterSync => Shape::Cluster,
        }
    }

    fn load(self) -> Load {
        match self {
            Workload::LoginBurst => Load::Closed { enrolls: 0 },
            Workload::LoginTrickle => Load::Open { rate: 150.0 },
            Workload::EnrollDurable | Workload::ClusterSync => Load::Closed { enrolls: 4 },
        }
    }

    /// Whether the workload enrolls accounts (and so reports enroll
    /// latency).
    fn enrolls(self) -> bool {
        matches!(self.load(), Load::Closed { enrolls } if enrolls > 0)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Add the replayed per-layer breakdown.
    pub trace: bool,
    /// Hash iterations ([`ITERATIONS`] except in the self-test).
    pub iterations: u32,
    /// Self-test hook: expect the wrong decision for one login.
    pub sabotage: bool,
    /// Where per-run scratch directories are made (and removed).
    pub scratch_root: PathBuf,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// No wrong decision was seen (live or replayed).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of the measured window (`fail_frac` included).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: host facts, sample counts, the breakdown.
    pub notes: Vec<String>,
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile (0 for no samples).
fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// The deployment a run measures, plus what its set-ups took.
struct Setup {
    deployment: Deployment,
    population: Arc<Population>,
    /// Wall time of every set-up.
    setup_s: Vec<f64>,
    /// Durable reopen time of every set-up.
    recovery_s: Vec<f64>,
}

/// Set up `SETUPS` times, keeping the last deployment.
fn set_up(opts: &Options) -> Result<Setup, String> {
    let mut built = None;
    let mut setup_s = Vec::new();
    let mut recovery_s = Vec::new();
    for _ in 0..SETUPS {
        // Tear the previous deployment down first, outside the timing.
        drop(built.take());
        let started = Instant::now();
        let population = Arc::new(Population::generate(opts.seed));
        let deployment = Deployment::start(
            opts.workload.shape(),
            opts.iterations,
            &population,
            &opts.scratch_root,
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
        recovery_s.push(deployment.recovery.secs);
        built = Some((deployment, population));
    }
    let (deployment, population) = built.expect("SETUPS > 0");
    Ok(Setup {
        deployment,
        population,
        setup_s,
        recovery_s,
    })
}

/// The request streams of every connection, as the load generator makes
/// them from the seed.
fn streams(
    opts: &Options,
    deployment: &Deployment,
    population: &Arc<Population>,
) -> Vec<(std::net::SocketAddr, OpStream)> {
    deployment
        .targets(CONNS)
        .into_iter()
        .enumerate()
        .map(|(conn, (addr, owns))| {
            let sabotage = opts.sabotage && conn == 0;
            let stream = OpStream::new(opts.seed, conn, Arc::clone(population), owns, sabotage);
            (addr, stream)
        })
        .collect()
}

/// What the measured window observed.
struct Driven {
    tally: Tally,
    /// Process CPU time over the window.
    cpu: Duration,
    /// Counter deltas over the window.
    delta: Counters,
    /// `VmHWM` (MiB) when the window opens: set-up plus warmed-up serving.
    /// Later growth is mostly the store gaining the window's enrollments,
    /// which scales with `ops_s`, so it is only noted.
    rss_at_t0_mb: f64,
}

/// Drive the load for the window.
fn drive(opts: &Options, deployment: &Deployment, population: &Arc<Population>) -> Driven {
    let warmup = Duration::from_secs_f64((opts.seconds / 10.0).clamp(0.05, 1.0));
    let start = Instant::now();
    let window = Window {
        start,
        t0: start + warmup,
        t1: start + warmup + Duration::from_secs_f64(opts.seconds),
    };
    let load = opts.workload.load();
    std::thread::scope(|s| {
        let clients: Vec<_> = streams(opts, deployment, population)
            .into_iter()
            .map(|(addr, stream)| {
                s.spawn(move || match load {
                    Load::Closed { enrolls } => {
                        load::closed_loop(addr, stream, DEPTH, enrolls, window)
                    }
                    Load::Open { rate } => {
                        load::open_loop(addr, stream, rate / CONNS as f64, window)
                    }
                })
            })
            .collect();
        sleep_until(window.t0);
        let (cpu0, counters0) = (host::process_cpu(), deployment.counters());
        let rss_at_t0_mb = host::peak_rss_mb();
        sleep_until(window.t1);
        let (cpu1, counters1) = (host::process_cpu(), deployment.counters());
        let mut tally = Tally::default();
        for client in clients {
            tally.merge(client.join().expect("client thread panicked"));
        }
        Driven {
            tally,
            cpu: cpu1 - cpu0,
            delta: counters1.since(&counters0),
            rss_at_t0_mb,
        }
    })
}

/// The first `REPLAY_OPS` requests of the run's streams, interleaved the
/// way the connections send them.
fn replay_ops(
    opts: &Options,
    deployment: &Deployment,
    population: &Arc<Population>,
) -> Vec<gen::Op> {
    let mut streams: Vec<OpStream> = streams(opts, deployment, population)
        .into_iter()
        .map(|(_, stream)| stream)
        .collect();
    let mut ops = Vec::with_capacity(REPLAY_OPS + DEPTH);
    'fill: loop {
        for stream in &mut streams {
            match opts.workload.load() {
                Load::Closed { enrolls } => ops.extend(stream.burst(DEPTH, enrolls)),
                Load::Open { .. } => {
                    // Same draws as the open loop: arrival gap, then login.
                    stream.unit();
                    ops.push(stream.login());
                }
            }
            if ops.len() >= REPLAY_OPS {
                break 'fill;
            }
        }
    }
    ops.truncate(REPLAY_OPS);
    ops
}

/// Removes the (then empty) scratch root on every exit path.
struct ScratchRoot<'a>(&'a std::path::Path);

impl Drop for ScratchRoot<'_> {
    fn drop(&mut self) {
        // `remove_dir` only removes an empty directory, so a concurrent
        // run's scratch under the same root survives.
        let _ = std::fs::remove_dir(self.0);
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch_root)
        .map_err(|e| format!("create {}: {e}", opts.scratch_root.display()))?;
    let _root = ScratchRoot(&opts.scratch_root);
    run_in_scratch(opts)
}

fn run_in_scratch(opts: &Options) -> Result<Outcome, String> {
    let Setup {
        mut deployment,
        population,
        setup_s,
        recovery_s,
    } = set_up(opts)?;
    let fsync = match deployment.shape {
        Shape::InMemory => "none (in-memory store)",
        Shape::Durable | Shape::Cluster => "always",
    };
    let mut notes = vec![format!(
        "host {} fsync={fsync}",
        host::describe(deployment.scratch.path())
    )];

    let Driven {
        tally,
        cpu,
        delta,
        rss_at_t0_mb,
    } = drive(opts, &deployment, &population);
    let acked = tally.acked_in_window as f64;
    let logins = &tally.login_us;
    let enrolls = &tally.enroll_us;
    notes.push(format!(
        "requests attempted={} failed={} wrong={}",
        tally.attempted, tally.failed, tally.wrong
    ));
    let kinds: &[(&str, &Vec<f64>)] = if opts.workload.enrolls() {
        &[("login", logins), ("enroll", enrolls)]
    } else {
        &[("login", logins)]
    };
    for &(kind, values) in kinds {
        let q = |pct| percentile(values, pct) / 1e3;
        notes.push(format!(
            "{kind} latency ms over {} samples ({} beyond p99): p50={:.3} p90={:.3} p99={:.3} \
             p99.9={:.3} max={:.3}",
            values.len(),
            values.len() / 100,
            q(50.0),
            q(90.0),
            q(99.0),
            q(99.9),
            q(100.0)
        ));
    }
    notes.push(format!(
        "VmHWM MiB at window start {rss_at_t0_mb:.2}, at window end {:.2} after {} enrolls acked in \
         the window",
        host::peak_rss_mb(),
        tally.enrolls_acked_in_window
    ));
    if let Some(first) = &tally.first_wrong {
        notes.push(format!("first wrong decision: {first}"));
    }
    let login_p50_ms = median(logins) / 1e3;
    let mut end_to_end = vec![
        metric("ops_s", acked / opts.seconds, "ops/s"),
        metric("login_p50_ms", login_p50_ms, "ms"),
        metric("login_p99_ms", percentile(logins, 99.0) / 1e3, "ms"),
    ];
    if opts.workload.enrolls() {
        end_to_end.push(metric("enroll_p50_ms", median(enrolls) / 1e3, "ms"));
        end_to_end.push(metric(
            "enroll_p99_ms",
            percentile(enrolls, 99.0) / 1e3,
            "ms",
        ));
    }
    end_to_end.extend([
        metric(
            "fail_frac",
            ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        ),
        metric("cpu_ms_per_op", ratio(cpu.as_secs_f64() * 1e3, acked), "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", rss_at_t0_mb, "MiB"),
    ]);

    let mut correct = tally.wrong == 0;
    let mut per_layer = Vec::new();
    if opts.trace {
        let occupancy = ratio(delta.batch.attempts as f64, delta.batch.runs as f64)
            .round()
            .clamp(1.0, gp_crypto::LANES as f64) as usize;
        let ops = replay_ops(opts, &deployment, &population);
        // The replay runs on a quiet host: stop serving first.
        drop(std::mem::take(&mut deployment.nodes));
        let (spans, replay_wrong) = trace::replay(&trace::ReplayInput {
            shape: deployment.shape,
            config: &deployment.config,
            system: &deployment.system,
            records: &deployment.records,
            scratch: deployment.scratch.path(),
            ops: &ops,
            occupancy,
        })?;
        correct &= replay_wrong == 0;
        let self_us = median(&spans.decode)
            + median(&spans.get_cached)
            + median(&spans.lockout)
            + median(&spans.prepare_verify)
            + median(&spans.run_observed)
            + median(&spans.finish_verify)
            + median(&spans.encode);
        let serve_wait_us = login_p50_ms * 1e3 - self_us;
        // The tail beyond the typical self time: if the layers' own calls
        // do not stall (see the replayed run's p99 in the breakdown), it is
        // waiting — queueing, wake-ups, the reactor hop, transport.
        let serve_wait_p99_us = percentile(logins, 99.0) - self_us;
        let runs = delta.batch.runs as f64;
        per_layer = vec![
            metric("batch.attempt_us", median(&spans.attempt_full), "us"),
            metric("batch.run1_us", median(&spans.run_single), "us"),
            metric(
                "batch.lane_occupancy",
                ratio(delta.batch.attempts as f64, runs * gp_crypto::LANES as f64),
                "ratio",
            ),
            metric(
                "batch.full_run_frac",
                ratio(delta.batch.full_runs as f64, runs),
                "ratio",
            ),
            metric(
                "system.prepare_verify_us",
                median(&spans.prepare_verify),
                "us",
            ),
            metric(
                "system.prepare_enroll_us",
                median(&spans.prepare_enroll),
                "us",
            ),
            metric(
                "system.finish_verify_us",
                median(&spans.finish_verify),
                "us",
            ),
            metric("shard.get_cached_us", median(&spans.get_cached), "us"),
            metric(
                "shard.lookups_per_op",
                ratio(delta.lookups as f64, acked),
                "lookups/op",
            ),
            metric("lockout.check_us", median(&spans.lockout), "us"),
            metric("protocol.decode_us", median(&spans.decode), "us"),
            metric("protocol.encode_us", median(&spans.encode), "us"),
            metric(
                "framing.bytes_per_op",
                ratio(tally.bytes as f64, tally.attempted as f64),
                "B/op",
            ),
            metric("wal.insert_us", median(&spans.wal_insert), "us"),
            metric("wal.commit_us", median(&spans.wal_commit), "us"),
            metric(
                "wal.enrolls_per_fsync",
                ratio(delta.wal_appends as f64, delta.wal_syncs as f64),
                "enrolls/fsync",
            ),
            metric("wal.snapshots", delta.snapshots as f64, "count"),
            metric("recovery.replay_s", median(&recovery_s), "s"),
            metric(
                "recovery.records",
                deployment.recovery.records as f64,
                "count",
            ),
            metric("replication.group_us", median(&spans.replicate_group), "us"),
            metric(
                "replication.records_per_enroll",
                ratio(
                    delta.records_replicated as f64,
                    tally.enrolls_acked_in_window as f64,
                ),
                "records/enroll",
            ),
            metric(
                "replication.divergent_ranges",
                delta.ranges_divergent as f64,
                "count",
            ),
            metric("serve.wait_us", serve_wait_us, "us"),
            metric("serve.wait_p99_us", serve_wait_p99_us, "us"),
            metric(
                "client.late_ms",
                percentile(&tally.late_us, 99.0) / 1e3,
                "ms",
            ),
        ];
        let cpu_us_per_op = ratio(cpu.as_secs_f64() * 1e6, acked);
        let kernel_us_per_op = median(&spans.run_observed) / occupancy as f64;
        notes.push(format!(
            "breakdown occupancy={occupancy} replayed_ops={}: hash run {:.1} us (p99 {:.1} us) = \
             {kernel_us_per_op:.1} us per attempt, {:.1}% of process CPU per op ({cpu_us_per_op:.1} us); \
             other layers' self time {:.1} us; login p50 {:.1} us = self {self_us:.1} + wait \
             {serve_wait_us:.1}; 16-lane kernel {:.1} us/attempt, 1-lane run {:.1} us",
            ops.len(),
            median(&spans.run_observed),
            percentile(&spans.run_observed, 99.0),
            100.0 * ratio(kernel_us_per_op, cpu_us_per_op),
            self_us - median(&spans.run_observed),
            login_p50_ms * 1e3,
            median(&spans.attempt_full),
            median(&spans.run_single),
        ));
    }
    Ok(Outcome {
        correct,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        end_to_end,
        per_layer,
        notes,
    })
}

/// The end-to-end metrics the result line carries, each bounded in
/// `BENCHMARK.json`.  The others are printed on every run but not bounded:
/// `fail_frac` is 0 on a healthy run (the result's `failed`/`attempted`
/// carry it), and the latency percentiles spread more between runs on 2
/// shared cores than the largest bound allows — `login_trickle`'s p50
/// doubles whenever the host is busy, because each light-load request
/// waits on several thread wake-ups.
pub const RESULT_END_TO_END: [&str; 4] = ["ops_s", "cpu_ms_per_op", "setup_s", "peak_rss_mb"];

/// The one-line JSON result: end-to-end metrics untraced, per-layer traced.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        outcome.per_layer.iter().collect::<Vec<_>>()
    } else {
        outcome
            .end_to_end
            .iter()
            .filter(|m| RESULT_END_TO_END.contains(&m.name))
            .collect()
    }
    .into_iter()
    .map(|m| {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            if m.value.is_finite() { m.value } else { 0.0 },
            m.unit
        )
    })
    .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
