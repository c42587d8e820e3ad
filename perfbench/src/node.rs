//! The system under test: population hashing, store set-up and recovery,
//! and the single-node or two-node deployments the workloads drive.

use crate::gen::{Owns, Population};
use gp_netauth::replication::spawn_replication_listener;
use gp_netauth::{
    spawn_anti_entropy, AntiEntropyHandle, AuthServer, BatchStats, BatchVerifier, ClusterClient,
    DurabilityConfig, HashJob, ReplicationHandle, ReplicationSink, Replicator, ReplicatorConfig,
    ServerConfig, ServerHandle,
};
use gp_passwords::{
    DurabilityOptions, GraphicalPasswordSystem, PasswordPolicy, ShardedPasswordStore,
    StoredPassword,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the account store is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One node, in-memory store.
    InMemory,
    /// One node, durable store with `fsync: Always`.
    Durable,
    /// Two durable nodes with synchronous WAL-streaming replication.
    Cluster,
}

/// Cluster size of [`Shape::Cluster`].
const CLUSTER_NODES: usize = 2;

/// A per-run scratch directory, removed when dropped (on every exit path,
/// unwinding included).
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// A fresh, empty directory under `root`.
    pub fn create(root: &Path, tag: &str) -> Result<Self, String> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The study deployment as shipped, with only the iteration count (and,
/// for durable nodes, the store directory) overridden.
pub fn server_config(iterations: u32, durable_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        hash_iterations: iterations,
        durability: durable_dir.map(DurabilityConfig::at),
        ..ServerConfig::study_default()
    }
}

/// The password system a server with `config` builds.
pub fn system_for(config: &ServerConfig) -> GraphicalPasswordSystem {
    GraphicalPasswordSystem::new(
        PasswordPolicy::new(config.image, config.clicks),
        config.discretization,
        config.hash_iterations,
    )
}

/// Enrollment records for the whole population, hashed 16 lanes at a time
/// on two threads through the same split-phase calls the server makes.
pub fn hash_population(
    system: &GraphicalPasswordSystem,
    population: &Population,
) -> Result<Vec<StoredPassword>, String> {
    let mut records = Vec::new();
    let mut jobs = Vec::new();
    for account in population.all() {
        let (record, pre_image) = system
            .prepare_enroll(&account.name, &account.clicks)
            .map_err(|e| format!("population account {}: {e}", account.name))?;
        jobs.push(HashJob {
            hasher: gp_crypto::SaltedHasher::new(&record.hash.salt),
            pre_image,
            iterations: record.hash.iterations,
        });
        records.push(record);
    }
    let verifier = BatchVerifier::new(gp_crypto::LANES, Duration::ZERO);
    let half = jobs.len().div_ceil(2 * gp_crypto::LANES) * gp_crypto::LANES;
    let (front, back) = jobs.split_at(half.min(jobs.len()));
    let hash = |part: &[HashJob]| -> Vec<gp_crypto::Digest> {
        part.chunks(gp_crypto::LANES)
            .flat_map(|chunk| verifier.run_direct(chunk))
            .collect()
    };
    let digests = std::thread::scope(|s| {
        let other = s.spawn(|| hash(back));
        let mut digests = hash(front);
        digests.extend(other.join().expect("population hashing thread panicked"));
        digests
    });
    Ok(records
        .into_iter()
        .zip(digests)
        .map(|(record, digest)| GraphicalPasswordSystem::finish_enroll(record, digest))
        .collect())
}

/// A durable store at `dir` holding `records`, with the fsync policy and
/// compaction threshold a served node gets (`DurabilityConfig::at`).
pub fn durable_store(
    dir: &Path,
    shards: usize,
    records: &[StoredPassword],
) -> Result<ShardedPasswordStore, String> {
    let defaults = DurabilityConfig::at(dir);
    let store = ShardedPasswordStore::open_durable(
        dir,
        shards,
        DurabilityOptions {
            fsync: defaults.fsync,
            snapshot_threshold_bytes: defaults.snapshot_threshold_bytes,
        },
    )
    .map_err(|e| format!("open {}: {e}", dir.display()))?;
    for record in records {
        store
            .insert_new_deferred(record.clone())
            .map_err(|e| format!("populate {}: {e}", dir.display()))?;
    }
    store
        .commit_shards(0..shards)
        .map_err(|e| format!("commit {}: {e}", dir.display()))?;
    Ok(store)
}

/// The store open that precedes serving: on durable nodes the reopen that
/// recovers the WAL written at set-up, on in-memory nodes a plain open.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Wall time of the open(s).
    pub secs: f64,
    /// WAL records replayed.
    pub records: u64,
}

/// One serving node.  Field order is drop order: anti-entropy stops
/// first, then the auth server, then the replication listener.
pub struct Node {
    _anti_entropy: Option<AntiEntropyHandle>,
    handle: ServerHandle,
    _repl: Option<ReplicationHandle>,
}

/// Window-delta-able counters summed over every node.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub batch: BatchStats,
    pub lookups: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub snapshots: u64,
    pub records_replicated: u64,
    pub ranges_divergent: u64,
}

impl Counters {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            batch: BatchStats {
                runs: self.batch.runs - earlier.batch.runs,
                attempts: self.batch.attempts - earlier.batch.attempts,
                max_run: self.batch.max_run,
                full_runs: self.batch.full_runs - earlier.batch.full_runs,
            },
            lookups: self.lookups - earlier.lookups,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            snapshots: self.snapshots - earlier.snapshots,
            records_replicated: self.records_replicated - earlier.records_replicated,
            ranges_divergent: self.ranges_divergent - earlier.ranges_divergent,
        }
    }
}

/// A running deployment plus what the replay needs to rebuild its state.
/// The scratch directory is declared last, so it is removed only after
/// every node has shut down.
pub struct Deployment {
    pub nodes: Vec<Node>,
    pub shape: Shape,
    pub config: ServerConfig,
    pub system: GraphicalPasswordSystem,
    pub records: Vec<StoredPassword>,
    pub recovery: Recovery,
    pub scratch: ScratchDir,
}

impl Deployment {
    /// Build the population, open (and on durable shapes, reopen) the
    /// stores, and start serving.
    pub fn start(
        shape: Shape,
        iterations: u32,
        population: &Population,
        scratch_root: &Path,
    ) -> Result<Self, String> {
        let scratch = ScratchDir::create(scratch_root, "deploy")?;
        let node_dir = |i: usize| scratch.path().join(format!("node-{i}"));
        let err = |e: gp_netauth::NetAuthError| e.to_string();
        match shape {
            Shape::InMemory => {
                let opened = Instant::now();
                let server = AuthServer::open(server_config(iterations, None)).map_err(err)?;
                let recovery = Recovery {
                    secs: opened.elapsed().as_secs_f64(),
                    records: 0,
                };
                let records = hash_population(server.system(), population)?;
                let store = server.store();
                for record in &records {
                    store
                        .insert_new(record.clone())
                        .map_err(|e| e.to_string())?;
                }
                Ok(Self {
                    shape,
                    config: server.config().clone(),
                    system: server.system().clone(),
                    nodes: vec![Node {
                        _anti_entropy: None,
                        handle: server.spawn().map_err(err)?,
                        _repl: None,
                    }],
                    records,
                    recovery,
                    scratch,
                })
            }
            Shape::Durable => {
                let config = server_config(iterations, Some(&node_dir(0)));
                let system = system_for(&config);
                let records = hash_population(&system, population)?;
                // Closed at once: the reopen below recovers it from the WAL.
                durable_store(&node_dir(0), config.shards, &records)?;
                let reopened = Instant::now();
                let server = AuthServer::open(config.clone()).map_err(err)?;
                let recovery = Recovery {
                    secs: reopened.elapsed().as_secs_f64(),
                    records: replayed(&server.store()),
                };
                Ok(Self {
                    shape,
                    config,
                    system,
                    nodes: vec![Node {
                        _anti_entropy: None,
                        handle: server.spawn().map_err(err)?,
                        _repl: None,
                    }],
                    records,
                    recovery,
                    scratch,
                })
            }
            Shape::Cluster => {
                let config = server_config(iterations, None);
                let system = system_for(&config);
                let records = hash_population(&system, population)?;
                // Every record lives on both nodes: with two nodes each
                // account's backup is the node that does not own it.
                for i in 0..CLUSTER_NODES {
                    durable_store(&node_dir(i), config.shards, &records)?;
                }
                // The phases of `Cluster::spawn`, from the same public
                // parts, so each node's `ServerStats` stays readable:
                // open every node's store and replication listener, then
                // attach replicators over the full membership and serve.
                let mut recovery = Recovery::default();
                let mut opened = Vec::new();
                for i in 0..CLUSTER_NODES {
                    let node_config = server_config(iterations, Some(&node_dir(i)));
                    let reopened = Instant::now();
                    let server = AuthServer::open(node_config).map_err(err)?;
                    recovery.secs += reopened.elapsed().as_secs_f64();
                    recovery.records += replayed(&server.store());
                    let repl =
                        spawn_replication_listener(&node_id(i), server.store()).map_err(err)?;
                    opened.push((server, repl));
                }
                let repl_addrs: Vec<SocketAddr> = opened.iter().map(|(_, r)| r.addr()).collect();
                let repl_config = ReplicatorConfig::default();
                let mut nodes = Vec::new();
                for (i, (server, repl)) in opened.into_iter().enumerate() {
                    let peers: BTreeMap<String, SocketAddr> = (0..CLUSTER_NODES)
                        .filter(|&j| j != i)
                        .map(|j| (node_id(j), repl_addrs[j]))
                        .collect();
                    let replicator = Arc::new(Replicator::new(&node_id(i), peers, repl_config));
                    let store = server.store();
                    let sink: Arc<dyn ReplicationSink> = Arc::clone(&replicator) as _;
                    let handle = server.with_replication(sink).spawn().map_err(err)?;
                    let anti_entropy = (!repl_config.anti_entropy_interval.is_zero()).then(|| {
                        spawn_anti_entropy(replicator, store, repl_config.anti_entropy_interval)
                    });
                    nodes.push(Node {
                        _anti_entropy: anti_entropy,
                        handle,
                        _repl: Some(repl),
                    });
                }
                Ok(Self {
                    shape,
                    config,
                    system,
                    nodes,
                    records,
                    recovery,
                    scratch,
                })
            }
        }
    }

    /// The address each of `conns` client connections talks to, and the
    /// accounts it may address: on a cluster connection `i` drives node
    /// `i` with the accounts that node owns, routed by `ClusterClient`.
    pub fn targets(&self, conns: usize) -> Vec<(SocketAddr, Owns)> {
        let members: Vec<(String, SocketAddr)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node_id(i), node.handle.addr()))
            .collect();
        (0..conns)
            .map(|c| {
                let (id, addr) = members[c % members.len()].clone();
                let owns: Owns = if members.len() == 1 {
                    Box::new(|_: &str| true)
                } else {
                    let router = ClusterClient::new(&members);
                    Box::new(move |name: &str| router.route(name) == Some(id.as_str()))
                };
                (addr, owns)
            })
            .collect()
    }

    /// The counters of every node, summed.
    pub fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for node in &self.nodes {
            let stats = node.handle.stats();
            sum.batch.runs += stats.batch.runs;
            sum.batch.attempts += stats.batch.attempts;
            sum.batch.full_runs += stats.batch.full_runs;
            sum.batch.max_run = sum.batch.max_run.max(stats.batch.max_run);
            sum.lookups += stats.shards.iter().map(|s| s.lookups).sum::<u64>();
            if let Some(d) = node.handle.server().store().durability_stats() {
                sum.wal_appends += d.wal_appends;
                sum.wal_syncs += d.wal_syncs;
                sum.snapshots += d.snapshots;
            }
            if let Some(r) = stats.replication {
                sum.records_replicated += r.records_replicated;
                sum.ranges_divergent += r.ranges_divergent;
            }
        }
        sum
    }
}

fn node_id(i: usize) -> String {
    format!("node-{i}")
}

fn replayed(store: &ShardedPasswordStore) -> u64 {
    store.durability_stats().map_or(0, |d| d.replayed_records)
}
