//! Sharded, pipelined TCP authentication server.
//!
//! The serving path is built for concurrency in three layers:
//!
//! 1. **Sharded state** — accounts live in a
//!    [`ShardedPasswordStore`] (which also caches each account's per-salt
//!    hashing state) and failure counts in a sharded [`LockoutTracker`],
//!    so serving threads contend only when they touch the same partition.
//! 2. **Connection multiplexing** — [`AuthServer::spawn`] serves through
//!    the `epoll` reactor (`crate::reactor`): one event-loop thread owns
//!    every connection, so connections are decoupled from threads.
//!    Serving is Linux-only; elsewhere `spawn` returns an
//!    [`std::io::ErrorKind::Unsupported`] error.  A serving turn drains
//!    every request frame already buffered on a connection (up to
//!    [`ServerConfig::pipeline_max`]) and answers in order, so a client may
//!    keep many requests in flight and per-request syscall cost amortizes
//!    across the pipeline.
//! 3. **Cross-connection batch verification** — the reactor's
//!    hash-compute workers merge queued turns from many connections (up to
//!    [`ServerConfig::batch_max`] hash jobs) and run them through the
//!    shared [`BatchVerifier`] as multi-lane
//!    [`gp_crypto::iterated_hash_many_salted`] runs.
//!
//! Request handling stays a pure function ([`AuthServer::handle_message`])
//! so the protocol logic is unit-testable without sockets; the turn
//! phases the reactor drives (prepare / batch hash / settle / group
//! commit) live here too.

use crate::batch::{BatchStats, BatchVerifier, HashJob};
use crate::error::NetAuthError;
use crate::lockout::LockoutTracker;
use crate::pending::PendingAccounts;
use crate::protocol::{ClientMessage, LoginDecision, ServerMessage};
use crate::replication::ReplicationSink;
use bytes::Bytes;
use gp_crypto::Digest;
use gp_geometry::{ImageDims, Point};
use gp_passwords::{
    DiscretizationConfig, DurabilityOptions, FsyncPolicy, GraphicalPasswordSystem, PasswordPolicy,
    ShardStats, ShardedPasswordStore, StoredPassword, VerifyScratch, WalEntry,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often waiting serving threads re-check the shutdown flag.
pub(crate) const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Default [`ServerConfig::write_timeout`]: how long a peer may accept no
/// response bytes before its connection is declared dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Crash-safety knobs for the serving layer's account store.
///
/// When set on [`ServerConfig::durability`], the store is opened with
/// [`ShardedPasswordStore::open_durable`]: every enrollment is appended to
/// the owning shard's write-ahead log — and, under
/// [`FsyncPolicy::Always`], fsynced — *before* the `Enroll` frame is
/// acknowledged, a background thread compacts per-shard logs past
/// `snapshot_threshold_bytes` without blocking verifies, and a restart
/// recovers the newest intact snapshots plus each WAL's intact tail.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding the per-shard snapshots (`shard-NNN.pwd`) and
    /// write-ahead logs (`shard-NNN.wal`).
    pub dir: PathBuf,
    /// When WAL appends reach stable storage (acknowledgement latency vs.
    /// crash loss window).
    pub fsync: FsyncPolicy,
    /// Per-shard WAL size (bytes) past which the background snapshot
    /// thread compacts the shard.
    pub snapshot_threshold_bytes: u64,
    /// How often the background snapshot thread checks the thresholds.
    pub snapshot_interval: Duration,
}

impl DurabilityConfig {
    /// Strictest defaults at `dir`: fsync on every enrollment, compact a
    /// shard once its log passes 1 MiB, check every 200 ms.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_threshold_bytes: 1024 * 1024,
            snapshot_interval: Duration::from_millis(200),
        }
    }

    fn options(&self) -> DurabilityOptions {
        DurabilityOptions {
            fsync: self.fsync,
            snapshot_threshold_bytes: self.snapshot_threshold_bytes,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Image dimensions the deployment uses.
    pub image: ImageDims,
    /// Discretization scheme and tolerance.
    pub discretization: DiscretizationConfig,
    /// Clicks per password.
    pub clicks: usize,
    /// Hash iteration count for stored passwords.
    pub hash_iterations: u32,
    /// Consecutive failures before an account locks (0 = never).
    pub max_failures: u32,
    /// Partitions for the account store and lockout tracker.
    pub shards: usize,
    /// Hash-compute threads (the reactor itself adds one event-loop
    /// thread).
    pub workers: usize,
    /// Maximum simultaneously open connections (further accepts are
    /// immediately closed).
    pub max_connections: usize,
    /// Maximum login attempts coalesced into one multi-lane hash run
    /// (1 = scalar verification, the pre-batching baseline).
    pub batch_max: usize,
    /// Has no effect.  Coalescing happens in the reactor's turn queue,
    /// which never waits for stragglers; the field stays only because
    /// existing callers (the `perfbench` crate) read it and pass it to
    /// [`BatchVerifier::new`].
    pub coalesce_window: Duration,
    /// Maximum request frames drained from one connection per turn.
    pub pipeline_max: usize,
    /// Maximum accounts tracked by the lockout sweep (per generation).
    pub lockout_capacity: usize,
    /// How long a connection may go without sending a complete request
    /// frame before the reactor's sweep closes it, so idle or
    /// byte-trickling peers cannot hold connection slots forever.
    /// `Duration::ZERO` disables the limit.
    pub idle_timeout: Duration,
    /// How long a peer may accept *no* response bytes before the
    /// connection is declared dead: the reactor sweeps connections whose
    /// pending output made no progress for this long.  `Duration::ZERO`
    /// disables the limit.
    pub write_timeout: Duration,
    /// Crash-safe durability for the account store (`None` = in-memory:
    /// the pre-durability behavior, and the right choice for benches and
    /// tests that never restart).
    pub durability: Option<DurabilityConfig>,
}

impl ServerConfig {
    /// A PassPoints-style deployment with Centered Discretization (r = 9)
    /// on the study image, three-strikes lockout, four shards and four
    /// hash-compute threads with 16-way batch verification.
    pub fn study_default() -> Self {
        Self {
            image: ImageDims::STUDY,
            discretization: DiscretizationConfig::centered(9),
            clicks: 5,
            hash_iterations: 1000,
            max_failures: 3,
            shards: 4,
            workers: 4,
            max_connections: 4096,
            batch_max: gp_crypto::LANES,
            coalesce_window: Duration::ZERO,
            pipeline_max: 32,
            lockout_capacity: 65_536,
            idle_timeout: Duration::from_secs(10),
            write_timeout: WRITE_TIMEOUT,
            durability: None,
        }
    }

    /// The same deployment with a reduced iteration count, for tests.
    pub fn fast_for_tests() -> Self {
        Self {
            hash_iterations: 2,
            ..Self::study_default()
        }
    }
}

/// Per-thread serving counters (atomics; [`ServerHandle::stats`] snapshots
/// them into [`WorkerStatsSnapshot`]s).  The first entry belongs to the
/// reactor's event-loop thread and the rest to hash-compute workers.
#[derive(Debug, Default)]
pub struct WorkerMetrics {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) logins: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
}

/// Point-in-time copy of one worker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Thread index: 0 is the reactor's event loop, then one per
    /// hash-compute worker.
    pub worker: usize,
    /// Connections accepted (counted by the event loop only).
    pub connections: u64,
    /// Requests answered (all message kinds).
    pub requests: u64,
    /// Login attempts processed.
    pub logins: u64,
    /// Corrupt or undecodable frames answered with protocol errors.
    pub protocol_errors: u64,
}

impl WorkerMetrics {
    fn snapshot(&self, worker: usize) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            worker,
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            logins: self.logins.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Aggregate serving statistics: per-worker, per-shard and batching.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// One snapshot per serving thread (event loop first).
    pub workers: Vec<WorkerStatsSnapshot>,
    /// Account-store shard sizes and traffic.
    pub shards: Vec<ShardStats>,
    /// Batch-verifier coalescing counters.
    pub batch: BatchStats,
    /// Replication and anti-entropy repair counters, when a sink that
    /// tracks them (a [`crate::replication::Replicator`]) is attached.
    pub replication: Option<crate::replication::ReplicationStats>,
}

/// What phase 1 of request processing decided for one pipelined request.
pub(crate) enum Planned {
    /// Response is already known (cheap messages, protocol errors,
    /// unknown accounts, structurally invalid enrollments).
    Respond(ServerMessage),
    /// A login that cannot match (structural failure, foreign provenance,
    /// or already locked): settle against the lockout in order, no hash.
    LoginNoHash { username: String },
    /// A login whose hash job `job_index` is in flight with the batch
    /// verifier.
    LoginHashed {
        username: String,
        stored: Box<StoredPassword>,
        job_index: usize,
    },
    /// An enrollment whose record is complete except for the digest being
    /// computed by hash job `job_index`.  Settling installs the digest and
    /// inserts the account (duplicate-checked under the shard lock).
    EnrollHashed {
        record: Box<StoredPassword>,
        job_index: usize,
    },
}

/// One connection turn after phase 1: the in-order response plan, the hash
/// jobs it needs, and whether the turn ends the connection.  The reactor
/// ships a turn with hash jobs to the hash-compute pool and settles it on
/// completion; a turn without any settles inline.
pub(crate) struct PreparedTurn {
    pub(crate) planned: Vec<Planned>,
    pub(crate) jobs: Vec<HashJob>,
    pub(crate) quitting: bool,
    /// `Some(account)` when the turn stopped early at a login for an
    /// account whose enrollment is in flight but not yet group-committed
    /// (the per-account write barrier).  The login's frame is back at the
    /// front of the queue; prepare again once the account's barrier lands.
    pub(crate) parked: Option<String>,
}

/// One settled enrollment awaiting its group-commit barrier: which
/// response to patch if the barrier fails, which shard to flush, and the
/// record clone to stream to the replication sink (when one is attached).
pub(crate) struct EnrollCommit {
    response_index: usize,
    username: String,
    shard: usize,
    entry: Option<WalEntry>,
}

/// One turn after phase 3 ([`AuthServer::settle_turn`]): the in-order
/// responses, plus the enrollments whose `EnrollOk`s are provisional
/// until [`AuthServer::commit_enrolls`] runs their barrier.
pub(crate) struct SettledTurn {
    pub(crate) responses: Vec<ServerMessage>,
    enrolls: Vec<EnrollCommit>,
}

/// The authentication server.
#[derive(Debug)]
pub struct AuthServer {
    config: ServerConfig,
    system: GraphicalPasswordSystem,
    store: Arc<ShardedPasswordStore>,
    lockout: Arc<LockoutTracker>,
    verifier: Arc<BatchVerifier>,
    /// Accounts whose enrollment is accepted but not yet group-committed
    /// (the per-account write barrier).
    pending: PendingAccounts,
    /// When set, every successful enrollment is streamed here before the
    /// `EnrollOk` is released (see [`crate::replication`]).
    replication: Option<Arc<dyn ReplicationSink>>,
}

impl AuthServer {
    /// Create a server with an in-memory account store.  Panics if
    /// [`ServerConfig::durability`] is set and the store cannot be
    /// opened — durable deployments should call [`AuthServer::open`].
    pub fn new(config: ServerConfig) -> Self {
        // gp-lint: allow(L4, documented panic contract; durable configs use AuthServer::open)
        Self::open(config).expect("open account store (use AuthServer::open for durable configs)")
    }

    /// Create a server, opening (and crash-recovering) the durable
    /// account store when [`ServerConfig::durability`] is set.
    pub fn open(config: ServerConfig) -> Result<Self, NetAuthError> {
        let system = GraphicalPasswordSystem::new(
            PasswordPolicy::new(config.image, config.clicks),
            config.discretization,
            config.hash_iterations,
        );
        let store = Arc::new(match &config.durability {
            Some(durability) => ShardedPasswordStore::open_durable(
                &durability.dir,
                config.shards,
                durability.options(),
            )?,
            None => ShardedPasswordStore::new(config.shards),
        });
        let lockout = Arc::new(LockoutTracker::with_limits(
            config.max_failures,
            config.lockout_capacity,
            config.shards.max(1),
        ));
        let verifier = Arc::new(BatchVerifier::new(config.batch_max, config.coalesce_window));
        Ok(Self {
            config,
            system,
            store,
            lockout,
            verifier,
            pending: PendingAccounts::new(),
            replication: None,
        })
    }

    /// Attach a replication sink: from now on an enrollment is only
    /// acknowledged after `sink.replicate(..)` returns (which, for a
    /// synchronous [`crate::replication::Replicator`], means the record
    /// is durable on the account's backup node too).
    pub fn with_replication(mut self, sink: Arc<dyn ReplicationSink>) -> Self {
        self.replication = Some(sink);
        self
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The sharded account store (shared; useful for pre-seeding accounts
    /// in tests, examples and benches).
    pub fn store(&self) -> Arc<ShardedPasswordStore> {
        Arc::clone(&self.store)
    }

    /// The lockout tracker.
    pub fn lockout(&self) -> Arc<LockoutTracker> {
        Arc::clone(&self.lockout)
    }

    /// The batch verifier (exposed for stats).
    pub fn verifier(&self) -> Arc<BatchVerifier> {
        Arc::clone(&self.verifier)
    }

    /// The underlying password system.
    pub fn system(&self) -> &GraphicalPasswordSystem {
        &self.system
    }

    /// The per-account write barrier table (serving internals and tests).
    pub(crate) fn pending(&self) -> &PendingAccounts {
        &self.pending
    }

    /// Handle a single request (protocol logic, no I/O).
    ///
    /// Logins and enrollments route through the same split-phase
    /// prepare / hash / settle path the reactor drives, hashing on the
    /// calling thread with [`BatchVerifier::run_direct`].
    pub fn handle_message(&self, message: ClientMessage) -> ServerMessage {
        match message {
            ClientMessage::GetConfig => self.config_response(),
            ClientMessage::Quit => ServerMessage::Goodbye,
            ClientMessage::Enroll { username, clicks } => {
                let mut jobs = Vec::new();
                let planned = self.prepare_enroll(username, &clicks, &mut jobs);
                let digests = self.verifier.run_direct(&jobs);
                self.settle_responses(vec![planned], &digests)
                    .pop()
                    .unwrap_or_else(|| ServerMessage::Error {
                        reason: "internal: settle produced no response".to_string(),
                    })
            }
            ClientMessage::Login { username, clicks } => {
                let mut scratch = VerifyScratch::new();
                let mut jobs = Vec::new();
                let planned = self.prepare_login(username, &clicks, &mut scratch, &mut jobs);
                let digests = self.verifier.run_direct(&jobs);
                self.settle_responses(vec![planned], &digests)
                    .pop()
                    .unwrap_or_else(|| ServerMessage::Error {
                        reason: "internal: settle produced no response".to_string(),
                    })
            }
        }
    }

    /// The `Config` answer to a `GetConfig` request.
    fn config_response(&self) -> ServerMessage {
        ServerMessage::Config {
            scheme: self.config.discretization.to_header(),
            clicks: self.config.clicks as u32,
        }
    }

    /// Phase 1 of enrollment handling: validate, discretize and build the
    /// digest-less record, appending the enrollment hash as a [`HashJob`]
    /// — enrollment hashes cost the same `h^k` as logins, so they must go
    /// through the batch pipeline too (never the reactor's event-loop
    /// thread), and they batch with concurrent logins.
    fn prepare_enroll(
        &self,
        username: String,
        clicks: &[Point],
        jobs: &mut Vec<HashJob>,
    ) -> Planned {
        match self.system.prepare_enroll(&username, clicks) {
            Err(e) => Planned::Respond(ServerMessage::Error {
                reason: e.to_string(),
            }),
            Ok((record, pre_image)) => {
                // The account is pending from this moment until the
                // enrollment's group commit (or its settle-time refusal):
                // a login for it parks instead of racing the barrier.
                self.pending.begin(&record.username);
                let job_index = jobs.len();
                jobs.push(HashJob {
                    hasher: gp_crypto::SaltedHasher::new(&record.hash.salt),
                    pre_image,
                    iterations: record.hash.iterations,
                });
                Planned::EnrollHashed {
                    record: Box::new(record),
                    job_index,
                }
            }
        }
    }

    /// Phase 1 of login handling: everything cheap.  Looks the account up
    /// in its shard, discretizes and encodes the attempt, checks
    /// provenance, and either settles immediately or appends a [`HashJob`]
    /// to `jobs` for the batch verifier.
    ///
    /// The job carries the store's *cached* per-salt hashing state
    /// ([`ShardedPasswordStore::get_cached`]): the salt was absorbed once
    /// at enrollment and every subsequent attempt clones plain stack data
    /// instead of re-hashing it (2–3× per round for long salts, per the
    /// midstate benches).
    fn prepare_login(
        &self,
        username: String,
        clicks: &[Point],
        scratch: &mut VerifyScratch,
        jobs: &mut Vec<HashJob>,
    ) -> Planned {
        let Some((stored, hasher)) = self.store.get_cached(&username) else {
            return Planned::Respond(ServerMessage::Error {
                reason: format!("unknown account {username:?}"),
            });
        };
        if self.lockout.is_locked(&username) {
            // Definitely locked now; settle in order at finish time (where
            // the decision is re-checked) without paying for a hash.
            return Planned::LoginNoHash { username };
        }
        match self.system.prepare_verify(&stored, clicks, scratch) {
            // Structurally invalid attempts (wrong click count, clicks
            // outside the image) are failures; so are records whose
            // salt/iteration provenance can never match this system.
            Err(_) | Ok(None) => Planned::LoginNoHash { username },
            Ok(Some(pre_image)) => {
                let job_index = jobs.len();
                jobs.push(HashJob {
                    hasher,
                    pre_image,
                    iterations: stored.hash.iterations,
                });
                Planned::LoginHashed {
                    username,
                    stored: Box::new(stored),
                    job_index,
                }
            }
        }
    }

    /// Phase 1 for one turn: pop frames off the connection's queue
    /// (`None` marks a frame that failed its integrity check), prepare
    /// logins/enrollments, and collect the turn's hash jobs.
    /// `consecutive_errors` carries the connection's bad-frame streak
    /// across turns; a decodable frame resets it.
    ///
    /// Enrollments do **not** end the turn: they batch with the logins
    /// behind them, and their `EnrollOk`s are released together after the
    /// turn's single group-commit barrier.  Two things end a turn early,
    /// leaving later frames queued:
    ///
    /// * `Quit` — the connection is done (callers drop the rest);
    /// * a login for an account whose enrollment is pending (the
    ///   *per-account* write barrier, [`PendingAccounts`]): its frame
    ///   goes back to the front of the queue and the turn reports
    ///   `parked`, to be prepared again once the enrollment's group
    ///   commit lands.  Logins for every *other* account flow untouched.
    pub(crate) fn prepare_turn(
        &self,
        frames: &mut std::collections::VecDeque<Option<Bytes>>,
        scratch: &mut VerifyScratch,
        metrics: &WorkerMetrics,
        consecutive_errors: &mut u32,
    ) -> PreparedTurn {
        let mut planned = Vec::with_capacity(frames.len());
        let mut jobs = Vec::new();
        let mut quitting = false;
        let mut parked = None;
        while let Some(frame) = frames.pop_front() {
            let (message, raw) = match frame {
                None => {
                    metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    *consecutive_errors += 1;
                    planned.push(Planned::Respond(ServerMessage::Error {
                        reason: NetAuthError::IntegrityFailure.to_string(),
                    }));
                    continue;
                }
                Some(frame) => {
                    // Cheap refcount clone, kept only in case this frame
                    // parks and must be re-queued for the next turn.
                    let raw = frame.clone();
                    match ClientMessage::decode(frame) {
                        Ok(message) => (message, raw),
                        Err(e) => {
                            metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            *consecutive_errors += 1;
                            planned.push(Planned::Respond(ServerMessage::Error {
                                reason: format!("bad request: {e}"),
                            }));
                            continue;
                        }
                    }
                }
            };
            *consecutive_errors = 0;
            match message {
                ClientMessage::Quit => {
                    planned.push(Planned::Respond(ServerMessage::Goodbye));
                    quitting = true;
                    break;
                }
                ClientMessage::Login { username, clicks } => {
                    if self.pending.is_pending(&username) {
                        // Same-account barrier: this login may only be
                        // prepared after the enrollment it races is
                        // committed (in-order pipelining keeps the frames
                        // behind it queued too).
                        frames.push_front(Some(raw));
                        parked = Some(username);
                        break;
                    }
                    metrics.logins.fetch_add(1, Ordering::Relaxed);
                    planned.push(self.prepare_login(username, &clicks, scratch, &mut jobs));
                }
                ClientMessage::Enroll { username, clicks } => {
                    planned.push(self.prepare_enroll(username, &clicks, &mut jobs));
                }
                ClientMessage::GetConfig => planned.push(Planned::Respond(self.config_response())),
            }
        }
        PreparedTurn {
            planned,
            jobs,
            quitting,
            parked,
        }
    }

    /// Phase 3 for a whole turn: settle every planned request against the
    /// lockout state, in pipeline order, and produce the in-order
    /// responses.  `digests` are the turn's hash results, indexed by each
    /// job's `job_index`.
    ///
    /// Enrollments are settled *provisionally*: the record lands in the
    /// in-memory store and its WAL append is staged (no fsync), the
    /// response slot holds `EnrollOk`, and an [`EnrollCommit`] remembers
    /// the slot.  Nothing from the returned [`SettledTurn`] may reach a
    /// client until [`AuthServer::commit_enrolls`] runs the group-commit
    /// barrier over it.
    pub(crate) fn settle_turn(&self, planned: Vec<Planned>, digests: &[Digest]) -> SettledTurn {
        let mut enrolls = Vec::new();
        let responses = planned
            .into_iter()
            .enumerate()
            .map(|(index, plan)| match plan {
                Planned::Respond(response) => response,
                Planned::LoginNoHash { username } => self.finish_login(&username, None),
                Planned::LoginHashed {
                    username,
                    stored,
                    job_index,
                } => {
                    let matched = self.system.finish_verify(&stored, &digests[job_index]);
                    self.store.note_verified(&username);
                    self.finish_login(&username, Some(matched))
                }
                Planned::EnrollHashed { record, job_index } => {
                    let record =
                        GraphicalPasswordSystem::finish_enroll(*record, digests[job_index]);
                    let username = record.username.clone();
                    // Clone taken only when a sink is attached: the local
                    // insert consumes the record, the sink streams the copy.
                    let entry = self
                        .replication
                        .as_ref()
                        .map(|_| WalEntry::Enroll(record.clone()));
                    match self.store.insert_new_deferred(record) {
                        Ok(shard) => {
                            enrolls.push(EnrollCommit {
                                response_index: index,
                                username,
                                shard,
                                entry,
                            });
                            // Provisional: patched to an error if the group
                            // commit (or replication) fails.
                            ServerMessage::EnrollOk
                        }
                        Err(e) => {
                            // Refused before any WAL append: the account
                            // barrier lifts right here.
                            self.pending.end(&username);
                            ServerMessage::Error {
                                reason: e.to_string(),
                            }
                        }
                    }
                }
            })
            .collect();
        SettledTurn { responses, enrolls }
    }

    /// Phase 4: the group-commit barrier.  One `fsync` per distinct shard
    /// across *all* the turns in the batch, then one grouped replication
    /// round, then every pending account barrier lifts.  On failure the
    /// provisional `EnrollOk`s are patched to errors in place — callers
    /// must not have released any response before this returns.
    pub(crate) fn commit_enrolls(&self, turns: &mut [SettledTurn]) {
        if turns.iter().all(|turn| turn.enrolls.is_empty()) {
            return;
        }
        let committed = self.store.commit_shards(
            turns
                .iter()
                .flat_map(|turn| turn.enrolls.iter().map(|enroll| enroll.shard)),
        );
        // Sync-mode backup acks join the same barrier: all of the batch's
        // entries stream out pipelined and one ack-wait covers them,
        // instead of a send/wait round-trip per enrollment.
        let replicated = match (&committed, &self.replication) {
            (Ok(()), Some(sink)) => {
                let entries: Vec<WalEntry> = turns
                    .iter_mut()
                    .flat_map(|turn| turn.enrolls.iter_mut().filter_map(|e| e.entry.take()))
                    .collect();
                if entries.is_empty() {
                    Ok(())
                } else {
                    sink.replicate_group(&entries)
                }
            }
            _ => Ok(()),
        };
        for turn in turns.iter_mut() {
            for enroll in &turn.enrolls {
                if let Err(e) = &committed {
                    turn.responses[enroll.response_index] = ServerMessage::Error {
                        reason: e.to_string(),
                    };
                } else if let Err(e) = &replicated {
                    turn.responses[enroll.response_index] = ServerMessage::Error {
                        reason: format!("replication failed: {e}"),
                    };
                }
                self.pending.end(&enroll.username);
            }
        }
    }

    /// Settle one turn and commit it immediately: the single-turn
    /// convenience over [`AuthServer::settle_turn`] +
    /// [`AuthServer::commit_enrolls`] used by [`AuthServer::handle_message`]
    /// and the reactor's inline (hash-free) turns.  The compute loop calls
    /// the two phases itself so one barrier covers a whole coalesced batch.
    pub(crate) fn settle_responses(
        &self,
        planned: Vec<Planned>,
        digests: &[Digest],
    ) -> Vec<ServerMessage> {
        let mut turn = self.settle_turn(planned, digests);
        self.commit_enrolls(std::slice::from_mut(&mut turn));
        turn.responses
    }

    /// Phase 2 of login handling: settle one attempt against the lockout
    /// state, in pipeline order.  `verdict` is `Some(matched)` for hashed
    /// attempts and `None` for attempts that could not match.
    ///
    /// Lock check and count update happen under one shard-lock acquisition
    /// ([`LockoutTracker::settle_attempt`]), so concurrent wrong attempts
    /// from different connections can never report a failure count past
    /// the threshold.
    fn finish_login(&self, username: &str, verdict: Option<bool>) -> ServerMessage {
        let success = verdict == Some(true);
        let (was_locked, failures) = self.lockout.settle_attempt(username, success);
        let decision = if was_locked {
            LoginDecision::LockedOut
        } else if success {
            LoginDecision::Accepted
        } else {
            LoginDecision::Rejected
        };
        ServerMessage::LoginResult { decision, failures }
    }

    /// Aggregate serving statistics.  `workers` carries one entry per
    /// serving thread when called through [`ServerHandle::stats`]; direct
    /// callers with no running server get an empty list.
    fn stats_with_workers(&self, workers: Vec<WorkerStatsSnapshot>) -> ServerStats {
        ServerStats {
            workers,
            shards: self.store.stats(),
            batch: self.verifier.stats(),
            replication: self.replication.as_ref().and_then(|sink| sink.stats()),
        }
    }

    /// Bind to `127.0.0.1:0` and serve connections until the returned
    /// handle is shut down or dropped: one `epoll` reactor thread plus
    /// [`ServerConfig::workers`] hash-compute threads.
    ///
    /// Serving needs the reactor, which is Linux-only: on other targets
    /// this returns an [`std::io::ErrorKind::Unsupported`] error.
    pub fn spawn(self) -> Result<ServerHandle, NetAuthError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = Arc::new(self);
        let mut handle = Self::spawn_serving(server, listener, addr, shutdown)?;
        // Durable stores get a background compaction thread: per-shard
        // WALs past the size threshold are folded into atomic snapshots
        // without blocking verifies (readers never wait on a snapshot).
        if let Some(durability) = handle.server.config().durability.clone() {
            let store = handle.server.store();
            let shutdown = Arc::clone(&handle.shutdown);
            handle.snapshot_join = Some(
                std::thread::Builder::new()
                    .name("gp-auth-snapshot".into())
                    .spawn(move || snapshot_loop(&store, &durability, &shutdown))
                    .map_err(NetAuthError::Io)?,
            );
        }
        Ok(handle)
    }

    /// Spawn the reactor and its hash-compute pool.
    #[cfg(target_os = "linux")]
    fn spawn_serving(
        server: Arc<AuthServer>,
        listener: TcpListener,
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
    ) -> Result<ServerHandle, NetAuthError> {
        let parts =
            crate::reactor::spawn_reactor(Arc::clone(&server), listener, Arc::clone(&shutdown))?;
        Ok(ServerHandle {
            addr,
            shutdown,
            reactor_join: Some(parts.reactor_join),
            worker_joins: parts.compute_joins,
            worker_metrics: parts.metrics,
            server,
            snapshot_join: None,
            graceful: true,
        })
    }

    /// No reactor off Linux, so nothing can serve.
    #[cfg(not(target_os = "linux"))]
    fn spawn_serving(
        _server: Arc<AuthServer>,
        _listener: TcpListener,
        _addr: SocketAddr,
        _shutdown: Arc<AtomicBool>,
    ) -> Result<ServerHandle, NetAuthError> {
        Err(NetAuthError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "serving requires the Linux epoll reactor",
        )))
    }
}

/// Background compaction loop: every `snapshot_interval`, snapshot the
/// shards whose WAL grew past the threshold.  Errors are dropped — the
/// next tick retries, and the WAL itself keeps every acked mutation safe
/// in the meantime.
fn snapshot_loop(
    store: &ShardedPasswordStore,
    durability: &DurabilityConfig,
    shutdown: &AtomicBool,
) {
    let interval = durability.snapshot_interval.max(Duration::from_millis(1));
    let mut last = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(SHUTDOWN_POLL.min(interval));
        if last.elapsed() >= interval {
            let _ = store.snapshot_if_past(durability.snapshot_threshold_bytes);
            last = Instant::now();
        }
    }
}

/// Handle to a running server; shuts the server down (gracefully) when
/// dropped.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor_join: Option<JoinHandle<()>>,
    worker_joins: Vec<JoinHandle<()>>,
    worker_metrics: Vec<Arc<WorkerMetrics>>,
    server: Arc<AuthServer>,
    snapshot_join: Option<JoinHandle<()>>,
    /// Whether shutdown performs the final durable compaction.
    /// [`ServerHandle::abort`] clears it to simulate a crash.
    graceful: bool,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server behind this handle (store, lockout, config access).
    pub fn server(&self) -> &AuthServer {
        &self.server
    }

    /// Aggregate serving statistics: per-worker counters, per-shard store
    /// snapshots and batch-verifier coalescing counters.
    pub fn stats(&self) -> ServerStats {
        self.server.stats_with_workers(
            self.worker_metrics
                .iter()
                .enumerate()
                .map(|(i, m)| m.snapshot(i))
                .collect(),
        )
    }

    /// Graceful shutdown: stop the reactor (open connections see EOF),
    /// join the hash-compute pool once it has settled every queued turn,
    /// and — on a durable store — compact every shard into a final atomic
    /// snapshot.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Crash-simulation shutdown: stop the threads but *skip* the final
    /// snapshot compaction, leaving the durability directory exactly as
    /// the last acknowledged mutation left it (snapshots + WAL tails, a
    /// torn tail included if one exists).  The crash-recovery tests use
    /// this to assert that recovery — not an orderly save — restores
    /// every acked account.
    pub fn abort(mut self) {
        self.graceful = false;
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the reactor's epoll wait with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.reactor_join.take() {
            let _ = join.join();
        }
        for join in self.worker_joins.drain(..) {
            let _ = join.join();
        }
        if let Some(join) = self.snapshot_join.take() {
            let _ = join.join();
        }
        if self.graceful {
            // Serving threads are joined: no writer races the final flush. Force
            // any unsynced Batch(n) WAL tail to stable storage *first*, so
            // the last sub-batch survives even if the compaction below
            // fails partway; then compact. In-memory stores no-op both.
            let _ = self.server.store.sync_wals();
            let _ = self.server.store.snapshot_all();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_geometry::Point;

    fn clicks() -> Vec<Point> {
        vec![
            Point::new(40.0, 50.0),
            Point::new(130.0, 210.0),
            Point::new(305.0, 70.0),
            Point::new(410.0, 300.0),
            Point::new(220.0, 145.0),
        ]
    }

    fn server() -> AuthServer {
        AuthServer::new(ServerConfig::fast_for_tests())
    }

    #[test]
    fn enroll_then_login_accepted() {
        let server = server();
        let r = server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert_eq!(r, ServerMessage::EnrollOk);
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: clicks().iter().map(|p| p.offset(5.0, -5.0)).collect(),
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
    }

    #[test]
    fn duplicate_enrollment_reports_error() {
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let r = server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert!(matches!(r, ServerMessage::Error { .. }));
    }

    #[test]
    fn failed_logins_lock_the_account() {
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-30.0, -30.0)).collect();
        for attempt in 1..=3u32 {
            let r = server.handle_message(ClientMessage::Login {
                username: "alice".into(),
                clicks: wrong.clone(),
            });
            assert_eq!(
                r,
                ServerMessage::LoginResult {
                    decision: LoginDecision::Rejected,
                    failures: attempt
                }
            );
        }
        // Fourth attempt — even with the correct password — is locked out.
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::LockedOut,
                failures: 3
            }
        );
        // An administrative reset restores access.
        server.lockout().reset("alice");
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
    }

    #[test]
    fn unknown_account_is_an_error_and_does_not_lock() {
        let server = server();
        let r = server.handle_message(ClientMessage::Login {
            username: "ghost".into(),
            clicks: clicks(),
        });
        assert!(matches!(r, ServerMessage::Error { .. }));
        assert!(!server.lockout().is_locked("ghost"));
    }

    #[test]
    fn get_config_reports_scheme_and_click_count() {
        let server = server();
        let r = server.handle_message(ClientMessage::GetConfig);
        assert_eq!(
            r,
            ServerMessage::Config {
                scheme: "centered:9".into(),
                clicks: 5
            }
        );
    }

    #[test]
    fn structurally_invalid_login_counts_as_failure() {
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: vec![Point::new(1.0, 1.0)], // wrong click count
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::Rejected,
                failures: 1
            }
        );
    }
}
