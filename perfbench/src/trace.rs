//! The traced replay: the run's own seeded request stream, replayed
//! in-process through each layer's public calls in the order the server
//! applies them, with a timed span around every call.  Hash runs are
//! grouped at the batch occupancy the measured window observed.  Nothing
//! inside the program is instrumented; the spans live here.

use crate::gen::{Expect, Op};
use crate::node::{durable_store, ScratchDir, Shape};
use bytes::Bytes;
use gp_netauth::replication::spawn_replication_listener;
use gp_netauth::{
    BatchVerifier, ClientMessage, HashJob, LockoutTracker, LoginDecision, ReplicationSink,
    Replicator, ReplicatorConfig, ServerConfig, ServerMessage, WriteBuffer,
};
use gp_passwords::{
    GraphicalPasswordSystem, ShardedPasswordStore, StoredPassword, VerifyScratch, WalEntry,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// 16-lane runs timed for `batch.attempt_us`.
const FULL_RUNS: usize = 64;
/// Single-attempt runs timed for `batch.run1_us`.
const SINGLE_RUNS: usize = 128;

/// Span durations (µs), one entry per call.
#[derive(Debug, Default)]
pub struct Spans {
    pub decode: Vec<f64>,
    pub get_cached: Vec<f64>,
    /// `is_locked` + `settle_attempt`, per login.
    pub lockout: Vec<f64>,
    pub prepare_verify: Vec<f64>,
    pub prepare_enroll: Vec<f64>,
    pub finish_verify: Vec<f64>,
    /// `ServerMessage::encode` + `WriteBuffer::queue_frame`, per response.
    pub encode: Vec<f64>,
    /// `run_direct` at the observed occupancy, per run.
    pub run_observed: Vec<f64>,
    /// `run_direct` with 16 jobs, per attempt.
    pub attempt_full: Vec<f64>,
    /// `run_direct` with 1 job.
    pub run_single: Vec<f64>,
    pub wal_insert: Vec<f64>,
    pub wal_commit: Vec<f64>,
    pub replicate_group: Vec<f64>,
}

/// What a replay needs from the deployment it mirrors.
pub struct ReplayInput<'a> {
    pub shape: Shape,
    pub config: &'a ServerConfig,
    pub system: &'a GraphicalPasswordSystem,
    pub records: &'a [StoredPassword],
    pub scratch: &'a Path,
    pub ops: &'a [Op],
    /// Jobs per hash run, as observed in the measured window.
    pub occupancy: usize,
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// A store like the deployment's, holding the same population: in memory,
/// or durable under `scratch` with the same fsync policy.
fn replay_store(
    input: &ReplayInput<'_>,
    scratch: &ScratchDir,
) -> Result<ShardedPasswordStore, String> {
    let shards = input.config.shards;
    if input.shape != Shape::InMemory {
        return durable_store(&scratch.path().join("primary"), shards, input.records);
    }
    let store = ShardedPasswordStore::new(shards);
    for record in input.records {
        store
            .insert_new(record.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// One planned response of a replayed group.
enum Plan {
    Hashed {
        username: String,
        stored: Box<StoredPassword>,
        job: usize,
        lockout_us: f64,
        expect: Expect,
    },
    NoHash {
        username: String,
        lockout_us: f64,
        expect: Expect,
    },
    Enroll {
        record: Box<StoredPassword>,
        job: usize,
    },
    Error,
}

/// Replay `input.ops`; returns the spans and the number of wrong decisions.
pub fn replay(input: &ReplayInput<'_>) -> Result<(Spans, u64), String> {
    let scratch = ScratchDir::create(input.scratch, "replay")?;
    let store = replay_store(input, &scratch)?;
    // Each group's enrollments are replicated to a backup listener of the
    // replay's own.  Only `cluster_sync`'s server replicates; on the other
    // workloads the span prices what a replicated deployment would add.
    let backup = durable_store(&scratch.path().join("backup"), input.config.shards, &[])?;
    let listener =
        spawn_replication_listener("replay-backup", Arc::new(backup)).map_err(|e| e.to_string())?;
    let peers = BTreeMap::from([("replay-backup".to_string(), listener.addr())]);
    let replicator = Replicator::new("replay-primary", peers, ReplicatorConfig::default());
    let config = input.config;
    let lockout = LockoutTracker::with_limits(
        config.max_failures,
        config.lockout_capacity,
        config.shards.max(1),
    );
    let verifier = BatchVerifier::new(config.batch_max, config.coalesce_window);
    let mut spans = Spans::default();
    let mut wrong = 0;
    let mut scratch_buf = VerifyScratch::new();
    let mut out = WriteBuffer::new();
    let mut login_jobs: Vec<(gp_crypto::SaltedHasher, Vec<u8>, u32)> = Vec::new();

    for group in input.ops.chunks(input.occupancy.max(1)) {
        let mut plans = Vec::with_capacity(group.len());
        let mut jobs = Vec::new();
        for op in group {
            let frame: Bytes = op.message.encode();
            let t = Instant::now();
            let message = ClientMessage::decode(frame);
            spans.decode.push(micros(t));
            match message {
                Ok(ClientMessage::Login { username, clicks }) => {
                    let t = Instant::now();
                    let cached = store.get_cached(&username);
                    spans.get_cached.push(micros(t));
                    let Some((stored, hasher)) = cached else {
                        plans.push(Plan::Error);
                        continue;
                    };
                    let t = Instant::now();
                    let locked = lockout.is_locked(&username);
                    let lockout_us = micros(t);
                    if locked {
                        plans.push(Plan::NoHash {
                            username,
                            lockout_us,
                            expect: op.expect,
                        });
                        continue;
                    }
                    let t = Instant::now();
                    let prepared = input
                        .system
                        .prepare_verify(&stored, &clicks, &mut scratch_buf);
                    spans.prepare_verify.push(micros(t));
                    match prepared {
                        Ok(Some(pre_image)) => {
                            login_jobs.push((
                                hasher.clone(),
                                pre_image.clone(),
                                stored.hash.iterations,
                            ));
                            jobs.push(HashJob {
                                hasher,
                                pre_image,
                                iterations: stored.hash.iterations,
                            });
                            plans.push(Plan::Hashed {
                                username,
                                stored: Box::new(stored),
                                job: jobs.len() - 1,
                                lockout_us,
                                expect: op.expect,
                            });
                        }
                        _ => plans.push(Plan::NoHash {
                            username,
                            lockout_us,
                            expect: op.expect,
                        }),
                    }
                }
                Ok(ClientMessage::Enroll { username, clicks }) => {
                    let t = Instant::now();
                    let prepared = input.system.prepare_enroll(&username, &clicks);
                    spans.prepare_enroll.push(micros(t));
                    let (record, pre_image) = prepared.map_err(|e| e.to_string())?;
                    jobs.push(HashJob {
                        hasher: gp_crypto::SaltedHasher::new(&record.hash.salt),
                        pre_image,
                        iterations: record.hash.iterations,
                    });
                    plans.push(Plan::Enroll {
                        record: Box::new(record),
                        job: jobs.len() - 1,
                    });
                }
                _ => plans.push(Plan::Error),
            }
        }

        let t = Instant::now();
        let digests = verifier.run_direct(&jobs);
        if !jobs.is_empty() {
            spans.run_observed.push(micros(t));
        }

        let mut responses = Vec::with_capacity(plans.len());
        let mut shards = Vec::new();
        let mut entries = Vec::new();
        for plan in plans {
            let (username, matched, lockout_us, expect) = match plan {
                Plan::Hashed {
                    username,
                    stored,
                    job,
                    lockout_us,
                    expect,
                } => {
                    let t = Instant::now();
                    let matched = input.system.finish_verify(&stored, &digests[job]);
                    spans.finish_verify.push(micros(t));
                    (username, matched, lockout_us, expect)
                }
                Plan::NoHash {
                    username,
                    lockout_us,
                    expect,
                } => (username, false, lockout_us, expect),
                Plan::Enroll { record, job } => {
                    let record = GraphicalPasswordSystem::finish_enroll(*record, digests[job]);
                    entries.push(WalEntry::Enroll(record.clone()));
                    let t = Instant::now();
                    let inserted = store.insert_new_deferred(record);
                    spans.wal_insert.push(micros(t));
                    shards.push(inserted.map_err(|e| e.to_string())?);
                    responses.push(ServerMessage::EnrollOk);
                    continue;
                }
                Plan::Error => {
                    wrong += 1;
                    responses.push(ServerMessage::Error {
                        reason: "replay: undecodable request or unknown account".into(),
                    });
                    continue;
                }
            };
            let t = Instant::now();
            let (was_locked, failures) = lockout.settle_attempt(&username, matched);
            spans.lockout.push(lockout_us + micros(t));
            let decision = if was_locked {
                LoginDecision::LockedOut
            } else if matched {
                LoginDecision::Accepted
            } else {
                LoginDecision::Rejected
            };
            if (decision == LoginDecision::Accepted) != (expect == Expect::Accept) {
                wrong += 1;
            }
            responses.push(ServerMessage::LoginResult { decision, failures });
        }
        if !shards.is_empty() {
            let t = Instant::now();
            store.commit_shards(shards).map_err(|e| e.to_string())?;
            spans.wal_commit.push(micros(t));
        }
        if !entries.is_empty() {
            let t = Instant::now();
            replicator
                .replicate_group(&entries)
                .map_err(|e| e.to_string())?;
            spans.replicate_group.push(micros(t));
        }
        for response in &responses {
            let t = Instant::now();
            let encoded = response.encode();
            out.queue_frame(&encoded).map_err(|e| e.to_string())?;
            spans.encode.push(micros(t));
        }
        out.flush_to(&mut std::io::sink())
            .map_err(|e| e.to_string())?;
    }

    let job = |(hasher, pre_image, iterations): &(gp_crypto::SaltedHasher, Vec<u8>, u32)| HashJob {
        hasher: hasher.clone(),
        pre_image: pre_image.clone(),
        iterations: *iterations,
    };
    for chunk in login_jobs.chunks_exact(gp_crypto::LANES).take(FULL_RUNS) {
        let jobs: Vec<HashJob> = chunk.iter().map(job).collect();
        let t = Instant::now();
        std::hint::black_box(verifier.run_direct(&jobs));
        spans.attempt_full.push(micros(t) / gp_crypto::LANES as f64);
    }
    for single in login_jobs.iter().take(SINGLE_RUNS) {
        let jobs = [job(single)];
        let t = Instant::now();
        std::hint::black_box(verifier.run_direct(&jobs));
        spans.run_single.push(micros(t));
    }
    Ok((spans, wrong))
}
