//! WAL-streaming replication between cluster nodes.
//!
//! Each node runs a *replication listener* alongside its auth listener.
//! When a primary accepts an enrollment it appends the record to its own
//! WAL as usual, then streams the **same WAL payload bytes** (see
//! [`gp_passwords::WalEntry::to_payload`]) to the account's backup — the
//! key's second ring successor.  The backup appends the record to *its*
//! durable store (WAL-first, via
//! [`gp_passwords::ShardedPasswordStore::apply_replicated`]) before
//! acknowledging, so an `EnrollOk` means the account is durable on two
//! nodes.  Applying is insert-or-replace, which makes redelivery after a
//! reconnect or a primary retry harmless.
//!
//! Wire format: the same length-prefixed, integrity-checked frames as the
//! client protocol ([`crate::framing`]), carrying [`ReplicaMessage`]s in
//! their own tag space:
//!
//! ```text
//! Hello         { node_id }                  sender introduces itself (once per conn)
//! HelloOk       { node_id }                  listener's reply
//! Record        { seq, payload }             one WAL entry, payload = WalEntry::to_payload
//! Ack           { seq }                      the record is durable on the replica
//! PullDone      { count }                    end of the Record stream answering a PullRequest
//! DigestRequest { primary, backup, members } digest your copy of the (primary→backup) range
//! DigestReply   { count, sum, xor }          the flat per-range digest
//! RangeRequest  { primary, backup, members } digests differ: list the range's records
//! RangeReply    { done, entries }            (username, record hash) pairs, chunked
//! PullRequest   { usernames }                stream me these records
//! ```
//!
//! Every exchange with a peer runs over one blocking request/response
//! connection type: the live write path and anti-entropy alike.
//! On the write path the sender numbers a group's records from the
//! connection's own counter, writes them back-to-back, then reads `Ack`s
//! inline on the same socket until `acked >= last seq`, with
//! [`ReplicatorConfig::ack_timeout`] as the deadline.  The listener acks in
//! processing order, so that proves the whole group was applied.  The
//! sender holds the peer's connection lock for the whole exchange, so
//! [`Replicator::update_peer`] and [`Replicator::drop_connections`] can
//! wait up to `ack_timeout` behind a group in flight.
//!
//! Failure handling is crash-only: a failed send (a write error, a write
//! blocked past `ack_timeout` by a peer that stopped reading, a broken
//! socket or a missed ack deadline) is retried once on a fresh connection
//! (transient drop), after which the peer is declared dead and removed
//! from the sender's ring — the next successor (or, with no live peer
//! left, local-only operation) takes over.  A dead peer that
//! restarts is re-admitted with [`Replicator::revive`].
//!
//! # Anti-entropy: the one back-fill protocol
//!
//! Live streaming only covers *new* records.  One exchange fills in what
//! a replica misses, run two ways (see the README's replication section):
//!
//! * **Periodically** ([`Replicator::anti_entropy_round`], on the thread
//!   [`spawn_anti_entropy`] starts): for each live peer, the node compares
//!   flat digests ([`gp_passwords::RangeDigest`]) of the range whose
//!   replica pair is `(self, peer)`.  Only when they differ do the sides
//!   exchange sorted `(username, record-hash)` lists.  The node then pushes
//!   the records the peer lacks or holds with different bytes (the pair's
//!   primary wins: it acked them) and pulls the records only the peer has.
//! * **Once, on (re)join** ([`Replicator::join_round`], before the node
//!   opens its auth listener): for each live peer and for *every* replica
//!   pair the node belongs to, `(self, X)` and `(X, self)` for each other
//!   member X, the same digest-then-list exchange runs, and the node only
//!   pulls.  A node that recovered most of its ranges from its own WAL so
//!   fetches just the records it lacks, and a record any live peer holds
//!   in one of its ranges reaches it.  Records both sides hold with
//!   different bytes are left to the pair primary's periodic round.
//!
//! Placement is a pure function of membership, so every request carries
//! the member list and the serving peer rebuilds the same [`HashRing`] to
//! filter its records.  Pulled records are applied through
//! [`ShardedPasswordStore::apply_replicated`] (WAL-first insert-or-
//! replace), so an interrupted exchange leaves a durable prefix and a rerun
//! fetches only the rest.  Counters surface in [`ReplicationStats`].

use crate::error::NetAuthError;
use crate::framing::{FrameReader, FrameWriter};
use crate::server::SHUTDOWN_POLL;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gp_passwords::wal::WalEntry;
use gp_passwords::{diff_range_entries, HashRing, RangeDiff, RangeDigest, ShardedPasswordStore};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TAG_HELLO: u8 = 0x41;
const TAG_HELLO_OK: u8 = 0x42;
const TAG_RECORD: u8 = 0x43;
const TAG_ACK: u8 = 0x44;
const TAG_PULL_DONE: u8 = 0x46;
const TAG_DIGEST_REQUEST: u8 = 0x47;
const TAG_DIGEST_REPLY: u8 = 0x48;
const TAG_RANGE_REQUEST: u8 = 0x49;
const TAG_RANGE_REPLY: u8 = 0x4a;
const TAG_PULL_REQUEST: u8 = 0x4b;

/// Maximum node-ID length accepted in a handshake.
const MAX_NODE_ID_LEN: usize = 256;

/// Maximum entries in one list-carrying sync message (member lists, pull
/// requests, range-reply chunks).  Senders chunk at [`SYNC_CHUNK`]; the
/// decode bound is defensive headroom above it.
const MAX_SYNC_LIST: usize = 4096;

/// Entries per `RangeReply` / `PullRequest` chunk — keeps every sync
/// frame far under [`crate::framing::MAX_FRAME_LEN`] even with
/// maximum-length account names.
const SYNC_CHUNK: usize = 128;

/// Messages exchanged on a replication connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaMessage {
    /// The sender introduces itself (first frame on every connection).
    Hello {
        /// Sending node's ID.
        node_id: String,
    },
    /// The listener's handshake reply.
    HelloOk {
        /// Listening node's ID.
        node_id: String,
    },
    /// One WAL entry to apply.
    Record {
        /// Sequence number, counted from 1 per sending connection (per
        /// stream in a pull reply).
        seq: u64,
        /// [`WalEntry::to_payload`] bytes — bit-identical to the bytes the
        /// primary appended to its own WAL.
        payload: Vec<u8>,
    },
    /// The record with this sequence number is durable on the replica.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Terminates the `Record` stream answering a `PullRequest`: exactly
    /// `count` records were sent.
    PullDone {
        /// Records streamed before this marker.
        count: u64,
    },
    /// Anti-entropy: compute the flat digest of the listener's records in
    /// the `(primary → backup)` range under `members`.
    DigestRequest {
        /// The range's primary node.
        primary: String,
        /// The range's backup node (normally the listener itself).
        backup: String,
        /// Membership the range is computed under.
        members: Vec<String>,
    },
    /// The listener's [`gp_passwords::RangeDigest`] for the requested range.
    DigestReply {
        /// Number of records in the range.
        count: u64,
        /// Wrapping sum of the records' content hashes.
        sum: u64,
        /// Xor of the records' content hashes.
        xor: u64,
    },
    /// Divergence detected: list the `(username, record hash)` entries of
    /// the listener's copy of the range, so the requester can diff.
    RangeRequest {
        /// The range's primary node.
        primary: String,
        /// The range's backup node.
        backup: String,
        /// Membership the range is computed under.
        members: Vec<String>,
    },
    /// One chunk of a range listing; `done` marks the final chunk.
    RangeReply {
        /// Whether this is the last chunk of the listing.
        done: bool,
        /// `(username, record hash)` pairs, sorted by name across chunks.
        entries: Vec<(String, u64)>,
    },
    /// Ask the listener to stream its records for these accounts (repair
    /// or rejoin pull).  Answered with `Record` frames then a `PullDone`.
    PullRequest {
        /// Account names to stream (absent accounts are skipped).
        usernames: Vec<String>,
    },
}

fn malformed(reason: &str) -> NetAuthError {
    NetAuthError::Malformed {
        reason: reason.to_string(),
    }
}

fn put_node_id(buf: &mut BytesMut, id: &str) {
    buf.put_u16(id.len() as u16);
    buf.put_slice(id.as_bytes());
}

fn get_node_id(buf: &mut Bytes) -> Result<String, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated node id length"));
    }
    let len = buf.get_u16() as usize;
    if len > MAX_NODE_ID_LEN {
        return Err(malformed("node id too long"));
    }
    if buf.remaining() < len {
        return Err(malformed("truncated node id"));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8 in node id"))
}

fn put_str_list(buf: &mut BytesMut, items: &[String]) {
    buf.put_u16(items.len() as u16);
    for item in items {
        put_node_id(buf, item);
    }
}

fn get_str_list(buf: &mut Bytes) -> Result<Vec<String>, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated list length"));
    }
    let count = buf.get_u16() as usize;
    if count > MAX_SYNC_LIST {
        return Err(malformed("sync list too long"));
    }
    (0..count).map(|_| get_node_id(buf)).collect()
}

fn put_entries(buf: &mut BytesMut, entries: &[(String, u64)]) {
    buf.put_u16(entries.len() as u16);
    for (name, hash) in entries {
        put_node_id(buf, name);
        buf.put_u64(*hash);
    }
}

fn get_entries(buf: &mut Bytes) -> Result<Vec<(String, u64)>, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated entry list length"));
    }
    let count = buf.get_u16() as usize;
    if count > MAX_SYNC_LIST {
        return Err(malformed("entry list too long"));
    }
    (0..count)
        .map(|_| {
            let name = get_node_id(buf)?;
            if buf.remaining() < 8 {
                return Err(malformed("truncated entry hash"));
            }
            Ok((name, buf.get_u64()))
        })
        .collect()
}

impl ReplicaMessage {
    /// Encode to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ReplicaMessage::Hello { node_id } => {
                buf.put_u8(TAG_HELLO);
                put_node_id(&mut buf, node_id);
            }
            ReplicaMessage::HelloOk { node_id } => {
                buf.put_u8(TAG_HELLO_OK);
                put_node_id(&mut buf, node_id);
            }
            ReplicaMessage::Record { seq, payload } => {
                buf.put_u8(TAG_RECORD);
                buf.put_u64(*seq);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload);
            }
            ReplicaMessage::Ack { seq } => {
                buf.put_u8(TAG_ACK);
                buf.put_u64(*seq);
            }
            ReplicaMessage::PullDone { count } => {
                buf.put_u8(TAG_PULL_DONE);
                buf.put_u64(*count);
            }
            ReplicaMessage::DigestRequest {
                primary,
                backup,
                members,
            } => {
                buf.put_u8(TAG_DIGEST_REQUEST);
                put_node_id(&mut buf, primary);
                put_node_id(&mut buf, backup);
                put_str_list(&mut buf, members);
            }
            ReplicaMessage::DigestReply { count, sum, xor } => {
                buf.put_u8(TAG_DIGEST_REPLY);
                buf.put_u64(*count);
                buf.put_u64(*sum);
                buf.put_u64(*xor);
            }
            ReplicaMessage::RangeRequest {
                primary,
                backup,
                members,
            } => {
                buf.put_u8(TAG_RANGE_REQUEST);
                put_node_id(&mut buf, primary);
                put_node_id(&mut buf, backup);
                put_str_list(&mut buf, members);
            }
            ReplicaMessage::RangeReply { done, entries } => {
                buf.put_u8(TAG_RANGE_REPLY);
                buf.put_u8(u8::from(*done));
                put_entries(&mut buf, entries);
            }
            ReplicaMessage::PullRequest { usernames } => {
                buf.put_u8(TAG_PULL_REQUEST);
                put_str_list(&mut buf, usernames);
            }
        }
        buf.freeze()
    }

    /// Decode from bytes.
    pub fn decode(mut buf: Bytes) -> Result<Self, NetAuthError> {
        if buf.is_empty() {
            return Err(malformed("empty replication message"));
        }
        let tag = buf.get_u8();
        let msg = match tag {
            TAG_HELLO => ReplicaMessage::Hello {
                node_id: get_node_id(&mut buf)?,
            },
            TAG_HELLO_OK => ReplicaMessage::HelloOk {
                node_id: get_node_id(&mut buf)?,
            },
            TAG_RECORD => {
                if buf.remaining() < 12 {
                    return Err(malformed("truncated record header"));
                }
                let seq = buf.get_u64();
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return Err(malformed("truncated record payload"));
                }
                let payload = buf.copy_to_bytes(len).to_vec();
                ReplicaMessage::Record { seq, payload }
            }
            TAG_ACK => {
                if buf.remaining() < 8 {
                    return Err(malformed("truncated ack"));
                }
                ReplicaMessage::Ack { seq: buf.get_u64() }
            }
            TAG_PULL_DONE => {
                if buf.remaining() < 8 {
                    return Err(malformed("truncated pull done"));
                }
                ReplicaMessage::PullDone {
                    count: buf.get_u64(),
                }
            }
            TAG_DIGEST_REQUEST => ReplicaMessage::DigestRequest {
                primary: get_node_id(&mut buf)?,
                backup: get_node_id(&mut buf)?,
                members: get_str_list(&mut buf)?,
            },
            TAG_DIGEST_REPLY => {
                if buf.remaining() < 24 {
                    return Err(malformed("truncated digest reply"));
                }
                ReplicaMessage::DigestReply {
                    count: buf.get_u64(),
                    sum: buf.get_u64(),
                    xor: buf.get_u64(),
                }
            }
            TAG_RANGE_REQUEST => ReplicaMessage::RangeRequest {
                primary: get_node_id(&mut buf)?,
                backup: get_node_id(&mut buf)?,
                members: get_str_list(&mut buf)?,
            },
            TAG_RANGE_REPLY => {
                if !buf.has_remaining() {
                    return Err(malformed("truncated range reply"));
                }
                let done = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return Err(malformed("invalid range-reply done flag")),
                };
                ReplicaMessage::RangeReply {
                    done,
                    entries: get_entries(&mut buf)?,
                }
            }
            TAG_PULL_REQUEST => ReplicaMessage::PullRequest {
                usernames: get_str_list(&mut buf)?,
            },
            other => return Err(malformed(&format!("unknown replication tag {other:#04x}"))),
        };
        if buf.has_remaining() {
            return Err(malformed("trailing bytes after replication message"));
        }
        Ok(msg)
    }
}

/// Something a server hands each group-committed batch of enrollments
/// to before acknowledging the client.
pub trait ReplicationSink: Send + Sync + std::fmt::Debug {
    /// Replicate a whole group-commit batch; returns only once a backup
    /// has acknowledged every entry as durable (or no live backup exists).
    fn replicate_group(&self, entries: &[WalEntry]) -> Result<(), NetAuthError>;

    /// Replication and repair counters.
    fn stats(&self) -> ReplicationStats;
}

// ---------------------------------------------------------------------------
// Listener (replica side)
// ---------------------------------------------------------------------------

/// Handle to a running replication listener.
///
/// The listener accepts connections from peer primaries and applies every
/// [`ReplicaMessage::Record`] to the node's own durable store before
/// acking.  Dropping the handle shuts the listener down.
#[derive(Debug)]
pub struct ReplicationHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_join: Option<std::thread::JoinHandle<()>>,
    applied: Arc<AtomicU64>,
    served: Arc<AtomicU64>,
}

impl ReplicationHandle {
    /// Address peers should stream records to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of records applied to the local store so far.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Number of records streamed *out* to repairing or rejoining peers
    /// (pull requests).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stop accepting and applying.  Connection threads notice within one
    /// poll tick; records already applied stay durable (crash-only — there
    /// is no other stop path for the fault harness to diverge from).
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ReplicationHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn a replication listener on an ephemeral loopback port, applying
/// records to `store`.
pub fn spawn_replication_listener(
    node_id: &str,
    store: Arc<ShardedPasswordStore>,
) -> Result<ReplicationHandle, NetAuthError> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let node_id = node_id.to_string();

    let accept_join = {
        let shutdown = Arc::clone(&shutdown);
        let applied = Arc::clone(&applied);
        let served = Arc::clone(&served);
        std::thread::Builder::new()
            .name(format!("repl-accept-{node_id}"))
            .spawn(move || {
                let mut conn_joins = Vec::new();
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let store = Arc::clone(&store);
                            let shutdown = Arc::clone(&shutdown);
                            let applied = Arc::clone(&applied);
                            let served = Arc::clone(&served);
                            let node_id = node_id.clone();
                            if let Ok(join) = std::thread::Builder::new()
                                .name(format!("repl-conn-{node_id}"))
                                .spawn(move || {
                                    serve_replica_conn(
                                        stream, &node_id, &store, &shutdown, &applied, &served,
                                    )
                                })
                            {
                                conn_joins.push(join);
                            }
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                for join in conn_joins {
                    let _ = join.join();
                }
            })?
    };

    Ok(ReplicationHandle {
        addr,
        shutdown,
        accept_join: Some(accept_join),
        applied,
        served,
    })
}

/// The range predicate both sides of a digest exchange agree on: a key is
/// in the `(primary → backup)` range when those two nodes are exactly its
/// replica pair under the request's membership.
fn pair_range<'a>(
    ring: &'a HashRing,
    primary: &'a str,
    backup: &'a str,
) -> impl Fn(&str) -> bool + 'a {
    move |key: &str| ring.replica_pair(key) == Some((primary, Some(backup)))
}

/// One inbound replication connection: handshake, then apply-and-ack
/// records (and serve anti-entropy requests) until the peer
/// hangs up or shutdown is requested.
fn serve_replica_conn(
    stream: TcpStream,
    node_id: &str,
    store: &ShardedPasswordStore,
    shutdown: &AtomicBool,
    applied: &AtomicU64,
    served: &AtomicU64,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(BufReader::new(read_half));
    let mut writer = FrameWriter::new(BufWriter::new(stream));

    let mut greeted = false;
    while !shutdown.load(Ordering::SeqCst) {
        let frame = match reader.read_frame() {
            Ok(frame) => frame,
            Err(NetAuthError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        let message = match ReplicaMessage::decode(frame) {
            Ok(message) => message,
            Err(_) => return,
        };
        match message {
            ReplicaMessage::Hello { .. } if !greeted => {
                greeted = true;
                let reply = ReplicaMessage::HelloOk {
                    node_id: node_id.to_string(),
                };
                if writer.write_frame(&reply.encode()).is_err() {
                    return;
                }
            }
            ReplicaMessage::Record { seq, payload } if greeted => {
                let Ok(entry) = WalEntry::from_payload(&payload) else {
                    return;
                };
                // Durable (WAL-first) apply *before* the ack leaves: an
                // acked record survives this node crashing right after.
                if store.apply_replicated(&entry).is_err() {
                    return;
                }
                applied.fetch_add(1, Ordering::Relaxed);
                if writer
                    .write_frame(&ReplicaMessage::Ack { seq }.encode())
                    .is_err()
                {
                    return;
                }
            }
            ReplicaMessage::DigestRequest {
                primary,
                backup,
                members,
            } if greeted => {
                let ring = HashRing::with_nodes(&members);
                let digest = store.range_digest(pair_range(&ring, &primary, &backup));
                let reply = ReplicaMessage::DigestReply {
                    count: digest.count,
                    sum: digest.sum,
                    xor: digest.xor,
                };
                if writer.write_frame(&reply.encode()).is_err() {
                    return;
                }
            }
            ReplicaMessage::RangeRequest {
                primary,
                backup,
                members,
            } if greeted => {
                let ring = HashRing::with_nodes(&members);
                let entries = store.range_entries(pair_range(&ring, &primary, &backup));
                for chunk in entries.chunks(SYNC_CHUNK) {
                    let reply = ReplicaMessage::RangeReply {
                        done: false,
                        entries: chunk.to_vec(),
                    };
                    if writer.write_frame_buffered(&reply.encode()).is_err() {
                        return;
                    }
                }
                let last = ReplicaMessage::RangeReply {
                    done: true,
                    entries: Vec::new(),
                };
                if writer.write_frame(&last.encode()).is_err() {
                    return;
                }
            }
            ReplicaMessage::PullRequest { usernames } if greeted => {
                // Stream the records numbered from 1, then `PullDone`.  An
                // absent account is skipped, not an error: the requester
                // diffed against a snapshot and the record may have been
                // removed since.  A shutdown mid-stream drops the
                // connection with the stream half-sent; the requester's
                // applied prefix is durable and a rerun pulls the rest.
                let mut count = 0u64;
                for record in usernames.iter().filter_map(|name| store.get(name)) {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    count += 1;
                    let message = ReplicaMessage::Record {
                        seq: count,
                        payload: WalEntry::Update(record).to_payload(),
                    };
                    if writer.write_frame_buffered(&message.encode()).is_err() {
                        return;
                    }
                }
                // Counted before the end marker leaves, so a requester that
                // has read it also sees the count.
                served.fetch_add(count, Ordering::Relaxed);
                let done = ReplicaMessage::PullDone { count };
                if writer.write_frame(&done.encode()).is_err() {
                    return;
                }
            }
            // Hello out of order, HelloOk/Ack from a sender, or a record
            // before the handshake: protocol violation, drop the conn.
            _ => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Replicator (primary side)
// ---------------------------------------------------------------------------

/// Tuning for a [`Replicator`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicatorConfig {
    /// How long a send waits for the backup to ack its whole group before
    /// treating the attempt as failed; also how long one blocked write
    /// may wait for a backup that stopped reading.
    pub ack_timeout: Duration,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// How often the background anti-entropy thread
    /// ([`spawn_anti_entropy`]) runs a digest-exchange round against each
    /// live backup.  `Duration::ZERO` disables the thread (manual rounds
    /// via [`Replicator::anti_entropy_round`] still work).
    pub anti_entropy_interval: Duration,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        Self {
            ack_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            anti_entropy_interval: Duration::from_secs(1),
        }
    }
}

#[derive(Debug)]
struct PeerState {
    /// Behind a lock so a restarted node's fresh ephemeral port can be
    /// installed ([`Replicator::update_peer`]) without rebuilding the map.
    addr: Mutex<SocketAddr>,
    /// The write path's connection, opened on first use.  Its lock is
    /// held across a whole send-and-ack exchange.
    conn: Mutex<Option<SyncConn>>,
}

/// Internal atomic counters behind [`ReplicationStats`].
#[derive(Debug, Default)]
struct SyncCounters {
    records_replicated: AtomicU64,
    anti_entropy_rounds: AtomicU64,
    ranges_checked: AtomicU64,
    ranges_divergent: AtomicU64,
    records_pushed: AtomicU64,
    records_pulled: AtomicU64,
    sync_failures: AtomicU64,
}

/// Snapshot of a [`Replicator`]'s replication and repair counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Records streamed to backups on the live (write-path) stream.
    pub records_replicated: u64,
    /// Completed periodic anti-entropy rounds (joins are not counted).
    pub anti_entropy_rounds: u64,
    /// Primary→backup ranges digest-checked across all rounds and joins.
    pub ranges_checked: u64,
    /// Ranges whose digests disagreed (divergence detected).
    pub ranges_divergent: u64,
    /// Records pushed to peers during repair.
    pub records_pushed: u64,
    /// Records pulled from peers during repair or a join.
    pub records_pulled: u64,
    /// Peers an anti-entropy round or a join could not ask: transport
    /// errors (the peer is skipped, never evicted) or, in a join, a
    /// member with no known address.
    pub sync_failures: u64,
}

/// The primary-side replication sender.
///
/// Owns a [`HashRing`] over the full cluster membership (itself included)
/// and, for each entry, streams the WAL payload to the entry's backup —
/// the first ring successor of the account that is not this node.  Peers
/// that fail a send twice are declared dead and leave the ring, shifting
/// subsequent traffic to the next successor.
#[derive(Debug)]
pub struct Replicator {
    node_id: String,
    config: ReplicatorConfig,
    ring: Mutex<HashRing>,
    peers: BTreeMap<String, PeerState>,
    counters: SyncCounters,
}

impl Replicator {
    /// A replicator for node `node_id` with the given peer replication
    /// addresses (`node_id` itself must not be in `peers`).
    pub fn new(
        node_id: &str,
        peers: BTreeMap<String, SocketAddr>,
        config: ReplicatorConfig,
    ) -> Self {
        let mut ring = HashRing::with_nodes(peers.keys());
        ring.join(node_id);
        Self {
            node_id: node_id.to_string(),
            config,
            ring: Mutex::new(ring),
            peers: peers
                .into_iter()
                .map(|(id, addr)| {
                    (
                        id,
                        PeerState {
                            addr: Mutex::new(addr),
                            conn: Mutex::new(None),
                        },
                    )
                })
                .collect(),
            counters: SyncCounters::default(),
        }
    }

    /// This node's ID.
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// Whether `node` is currently considered live.
    pub fn is_live(&self, node: &str) -> bool {
        self.ring.lock().contains(node)
    }

    /// Re-admit a previously dead peer (e.g. after an operator restarts
    /// it); the ring is deterministic, so its old key ranges come back.
    pub fn revive(&self, node: &str) -> bool {
        self.peers.contains_key(node) && self.ring.lock().join(node)
    }

    /// Point `node` at a new replication address (a restarted node binds a
    /// fresh ephemeral port) and re-admit it to the ring.  Returns whether
    /// the node was known.  Waits behind a group in flight to that node
    /// (its ack wait lasts at most `ack_timeout`).
    pub fn update_peer(&self, node: &str, addr: SocketAddr) -> bool {
        let Some(peer) = self.peers.get(node) else {
            return false;
        };
        *peer.addr.lock() = addr;
        *peer.conn.lock() = None;
        self.ring.lock().join(node);
        true
    }

    /// Drop every open outbound connection (fault-injection hook: the next
    /// send sees a cold connection, exactly as after a network blip).
    /// Waits behind groups in flight, as [`Replicator::update_peer`] does.
    pub fn drop_connections(&self) {
        for peer in self.peers.values() {
            *peer.conn.lock() = None;
        }
    }

    /// One grouped send attempt on `peer`'s connection (opened if
    /// needed): write every payload, then read acks until the last one.
    /// A failed attempt drops the connection, so a retry starts fresh.
    fn send_group_once(&self, peer: &PeerState, payloads: &[&[u8]]) -> Result<(), NetAuthError> {
        let mut guard = peer.conn.lock();
        let conn = match guard.as_mut() {
            Some(conn) => conn,
            None => guard.insert(self.open(*peer.addr.lock())?),
        };
        let result = conn.send_records(payloads);
        match result {
            Ok(()) => {
                self.counters
                    .records_replicated
                    .fetch_add(payloads.len() as u64, Ordering::Relaxed);
            }
            Err(_) => *guard = None,
        }
        result
    }

    /// Open a handshaken connection to `addr`; every read or blocked
    /// write on it waits at most [`ReplicatorConfig::ack_timeout`].
    fn open(&self, addr: SocketAddr) -> Result<SyncConn, NetAuthError> {
        SyncConn::open(
            &self.node_id,
            addr,
            self.config.connect_timeout,
            self.config.ack_timeout,
        )
    }

    /// Open a fresh exchange connection to peer `node`.
    fn connect(&self, node: &str) -> Result<SyncConn, NetAuthError> {
        let Some(peer) = self.peers.get(node) else {
            return Err(NetAuthError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("no replication address for {node}"),
            )));
        };
        self.open(*peer.addr.lock())
    }

    /// One anti-entropy round: for every live peer, digest-compare the
    /// `(self → peer)` range and repair any divergence record-by-record.
    ///
    /// The primary *pushes* records the backup lacks (or holds with
    /// different bytes — primary wins, it acked them) and *pulls* records
    /// only the backup holds (written while this node was away).  A peer
    /// that fails the exchange on a transport error is skipped for the
    /// round — never evicted: anti-entropy is a background repair, and
    /// eviction is the write path's crash-only detector.
    pub fn anti_entropy_round(&self, store: &ShardedPasswordStore) -> AntiEntropyRound {
        let (ring, members): (HashRing, Vec<String>) = {
            let ring = self.ring.lock();
            let members = ring.nodes().map(String::from).collect();
            (ring.clone(), members)
        };
        let mut round = AntiEntropyRound::default();
        for peer_id in &members {
            if *peer_id == self.node_id || !self.peers.contains_key(peer_id) {
                continue;
            }
            round.ranges_checked += 1;
            let repair = self.connect(peer_id).and_then(|mut conn| {
                let Some(diff) = conn.diff_pair(&self.node_id, peer_id, &ring, &members, store)?
                else {
                    return Ok(None);
                };
                let pushed = conn.push_names(&diff.push, store)?;
                Ok(Some((pushed, conn.pull_names(&diff.pull, store)?)))
            });
            match repair {
                Ok(None) => {}
                Ok(Some((pushed, pulled))) => {
                    round.ranges_divergent += 1;
                    round.records_pushed += pushed;
                    round.records_pulled += pulled;
                }
                Err(_) => round.failed_peers.push(peer_id.clone()),
            }
        }
        self.counters
            .anti_entropy_rounds
            .fetch_add(1, Ordering::Relaxed);
        self.tally(&round);
        round
    }

    /// Back-fill this node as it (re)joins under `members`: from each
    /// other member, pull every record this node lacks in each replica
    /// pair it belongs to — `(self, X)` and `(X, self)` for every other
    /// member X, not only the peer asked.  Run it before the node takes
    /// client traffic.
    ///
    /// Each pair costs one digest round-trip, plus a listing when the
    /// digests differ, so a node that recovered its ranges from its own
    /// WAL fetches only the gap.  Records both sides hold with different
    /// bytes are left to the pair primary's periodic round.  A member
    /// without a known address, or whose exchange fails, is listed in
    /// [`AntiEntropyRound::failed_peers`]; the join is complete iff that
    /// list is empty.  Pulls apply durably and idempotently, so a rerun
    /// after a failure fetches only what is still missing.
    pub fn join_round(&self, members: &[String], store: &ShardedPasswordStore) -> AntiEntropyRound {
        let ring = HashRing::with_nodes(members);
        let me = self.node_id.as_str();
        let others: Vec<&String> = members.iter().filter(|m| *m != me).collect();
        let pairs: Vec<(&str, &str)> = others
            .iter()
            .flat_map(|x| [(me, x.as_str()), (x.as_str(), me)])
            .collect();
        let mut round = AntiEntropyRound::default();
        for peer_id in others {
            let pulled = self.connect(peer_id).and_then(|mut conn| {
                for &(primary, backup) in &pairs {
                    round.ranges_checked += 1;
                    if let Some(diff) = conn.diff_pair(primary, backup, &ring, members, store)? {
                        round.ranges_divergent += 1;
                        round.records_pulled += conn.pull_names(&diff.pull, store)?;
                    }
                }
                Ok(())
            });
            if pulled.is_err() {
                round.failed_peers.push(peer_id.clone());
            }
        }
        self.tally(&round);
        round
    }

    /// Add a round's outcome to the node's cumulative counters.
    fn tally(&self, round: &AntiEntropyRound) {
        let c = &self.counters;
        c.ranges_checked
            .fetch_add(round.ranges_checked, Ordering::Relaxed);
        c.ranges_divergent
            .fetch_add(round.ranges_divergent, Ordering::Relaxed);
        c.records_pushed
            .fetch_add(round.records_pushed, Ordering::Relaxed);
        c.records_pulled
            .fetch_add(round.records_pulled, Ordering::Relaxed);
        c.sync_failures
            .fetch_add(round.failed_peers.len() as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Peer connection (sender side of every exchange)
// ---------------------------------------------------------------------------

/// A blocking request/response connection to a peer's replication
/// listener.  The live write path keeps one per peer; every anti-entropy
/// exchange opens its own.  Every read waits at most `io_timeout`,
/// and so does every blocked write.
#[derive(Debug)]
struct SyncConn {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: FrameWriter<BufWriter<TcpStream>>,
    io_timeout: Duration,
    /// Seq of the last `Record` sent on this connection.
    last_seq: u64,
}

impl SyncConn {
    /// Connect, handshake (`Hello` / `HelloOk`), and return the ready
    /// connection.
    fn open(
        self_id: &str,
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<Self, NetAuthError> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        // Short read timeout + deadline loop in `recv_by`: blocked reads
        // stay interruptible without a dedicated reader thread.
        stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
        // A peer that stops reading fills the socket buffers; a write
        // blocked for `io_timeout` then fails the exchange instead of
        // holding the caller (and the peer's connection lock) forever.
        stream.set_write_timeout(Some(io_timeout))?;
        let read_half = stream.try_clone()?;
        let mut conn = Self {
            reader: FrameReader::new(BufReader::new(read_half)),
            writer: FrameWriter::new(BufWriter::new(stream)),
            io_timeout,
            last_seq: 0,
        };
        conn.send(&ReplicaMessage::Hello {
            node_id: self_id.to_string(),
        })?;
        match conn.recv()? {
            ReplicaMessage::HelloOk { .. } => Ok(conn),
            _ => Err(malformed("expected sync handshake reply")),
        }
    }

    fn send(&mut self, message: &ReplicaMessage) -> Result<(), NetAuthError> {
        self.writer.write_frame(&message.encode())
    }

    /// Read the next message, waiting at most `io_timeout`.
    fn recv(&mut self) -> Result<ReplicaMessage, NetAuthError> {
        self.recv_by(Instant::now() + self.io_timeout)
    }

    /// Read the next message, polling across read-timeout ticks until
    /// `deadline`.
    fn recv_by(&mut self, deadline: Instant) -> Result<ReplicaMessage, NetAuthError> {
        loop {
            match self.reader.read_frame() {
                Ok(frame) => return ReplicaMessage::decode(frame),
                Err(NetAuthError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Err(NetAuthError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "timed out waiting for a replication reply",
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send `payloads` as one pipelined group of `Record`s, then read acks
    /// until the last record's: the listener applies durably and acks in
    /// order, so that ack covers the group.  The whole wait shares one
    /// `io_timeout` deadline; a partial ack never satisfies it, and a
    /// broken socket fails the read at once.
    fn send_records(&mut self, payloads: &[impl AsRef<[u8]>]) -> Result<(), NetAuthError> {
        for payload in payloads {
            self.last_seq += 1;
            let message = ReplicaMessage::Record {
                seq: self.last_seq,
                payload: payload.as_ref().to_vec(),
            };
            self.writer.write_frame_buffered(&message.encode())?;
        }
        self.writer.flush()?;
        let deadline = Instant::now() + self.io_timeout;
        loop {
            match self.recv_by(deadline)? {
                ReplicaMessage::Ack { seq } if seq >= self.last_seq => return Ok(()),
                ReplicaMessage::Ack { .. } => {}
                _ => return Err(malformed("expected replication ack")),
            }
        }
    }

    /// Digest-compare this side's copy of the `(primary → backup)` range
    /// under `members` with the peer's.  `None` when the digests agree;
    /// otherwise the peer lists its copy and the diff says which records
    /// only this side holds, or holds with different bytes (`push`), and
    /// which only the peer holds (`pull`).
    fn diff_pair(
        &mut self,
        primary: &str,
        backup: &str,
        ring: &HashRing,
        members: &[String],
        store: &ShardedPasswordStore,
    ) -> Result<Option<RangeDiff>, NetAuthError> {
        let range = pair_range(ring, primary, backup);
        let local = store.range_digest(&range);
        self.send(&ReplicaMessage::DigestRequest {
            primary: primary.to_string(),
            backup: backup.to_string(),
            members: members.to_vec(),
        })?;
        let remote = match self.recv()? {
            ReplicaMessage::DigestReply { count, sum, xor } => RangeDigest { count, sum, xor },
            _ => return Err(malformed("expected digest reply")),
        };
        if remote == local {
            return Ok(None);
        }
        self.send(&ReplicaMessage::RangeRequest {
            primary: primary.to_string(),
            backup: backup.to_string(),
            members: members.to_vec(),
        })?;
        let mut remote_entries: Vec<(String, u64)> = Vec::new();
        loop {
            match self.recv()? {
                ReplicaMessage::RangeReply { done, entries } => {
                    remote_entries.extend(entries);
                    if done {
                        break;
                    }
                }
                _ => return Err(malformed("expected range reply")),
            }
        }
        Ok(Some(diff_range_entries(
            &store.range_entries(&range),
            &remote_entries,
        )))
    }

    /// Push this side's copies of `names` to the peer, one ack wait per
    /// chunk.  Returns the records pushed.
    fn push_names(
        &mut self,
        names: &[String],
        store: &ShardedPasswordStore,
    ) -> Result<u64, NetAuthError> {
        let pushes: Vec<Vec<u8>> = names
            .iter()
            .filter_map(|name| store.get(name))
            .map(|record| WalEntry::Update(record).to_payload())
            .collect();
        for chunk in pushes.chunks(SYNC_CHUNK) {
            self.send_records(chunk)?;
        }
        Ok(pushes.len() as u64)
    }

    /// Pull the peer's copies of `names` and apply each durably.  Returns
    /// the records pulled.
    fn pull_names(
        &mut self,
        names: &[String],
        store: &ShardedPasswordStore,
    ) -> Result<u64, NetAuthError> {
        let mut pulled = 0u64;
        for chunk in names.chunks(SYNC_CHUNK) {
            self.send(&ReplicaMessage::PullRequest {
                usernames: chunk.to_vec(),
            })?;
            pulled += self.apply_stream(store)?;
        }
        Ok(pulled)
    }

    /// Apply every streamed `Record` durably until `PullDone`, whose count
    /// must match.  Returns the records applied.
    fn apply_stream(&mut self, store: &ShardedPasswordStore) -> Result<u64, NetAuthError> {
        let mut applied = 0u64;
        loop {
            match self.recv()? {
                ReplicaMessage::Record { payload, .. } => {
                    let entry = WalEntry::from_payload(&payload)
                        .map_err(|_| malformed("bad streamed record payload"))?;
                    // Durable, idempotent apply: a crash right after
                    // leaves a prefix that a rerun completes harmlessly.
                    store.apply_replicated(&entry).map_err(NetAuthError::from)?;
                    applied += 1;
                }
                ReplicaMessage::PullDone { count } if count == applied => return Ok(applied),
                ReplicaMessage::PullDone { .. } => {
                    return Err(malformed("record stream count mismatch"));
                }
                _ => return Err(malformed("unexpected frame in record stream")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Anti-entropy (periodic repair and rejoin back-fill)
// ---------------------------------------------------------------------------

/// Outcome of one [`Replicator::anti_entropy_round`] or
/// [`Replicator::join_round`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AntiEntropyRound {
    /// Primary→backup ranges digest-checked this round.
    pub ranges_checked: u64,
    /// Ranges whose digests disagreed.
    pub ranges_divergent: u64,
    /// Records pushed to peers during repair.
    pub records_pushed: u64,
    /// Records pulled from peers (repair or rejoin back-fill).
    pub records_pulled: u64,
    /// Peers that could not be asked: transport errors (never an
    /// eviction) or, in a join, a member with no known address.
    pub failed_peers: Vec<String>,
}

/// Handle to a background anti-entropy thread ([`spawn_anti_entropy`]).
/// Dropping the handle stops the thread.
#[derive(Debug)]
pub struct AntiEntropyHandle {
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl AntiEntropyHandle {
    /// Stop the thread; returns once it has exited (within one poll tick).
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for AntiEntropyHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run [`Replicator::anti_entropy_round`] against `store` every
/// `interval` on a background thread, until the handle is shut down.
pub fn spawn_anti_entropy(
    replicator: Arc<Replicator>,
    store: Arc<ShardedPasswordStore>,
    interval: Duration,
) -> AntiEntropyHandle {
    let shutdown = Arc::new(AtomicBool::new(false));
    let join = {
        let shutdown = Arc::clone(&shutdown);
        let name = format!("anti-entropy-{}", replicator.node_id());
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let mut next = Instant::now() + interval;
                while !shutdown.load(Ordering::SeqCst) {
                    if Instant::now() >= next {
                        let _ = replicator.anti_entropy_round(&store);
                        next = Instant::now() + interval;
                    }
                    std::thread::sleep(SHUTDOWN_POLL.min(interval));
                }
            })
            .ok()
    };
    AntiEntropyHandle { shutdown, join }
}

impl ReplicationSink for Replicator {
    /// Route every entry to its backup (the first ring successor that is
    /// not this node) and send each backup its entries as one group.  A
    /// target that fails a grouped send twice is evicted, and its entries
    /// are re-routed to the next successor on the following pass.  With no
    /// live peer left an entry is accepted locally (single-survivor
    /// operation) — the alternative is refusing all writes, which the
    /// crash-only design rejects.
    fn replicate_group(&self, entries: &[WalEntry]) -> Result<(), NetAuthError> {
        let payloads: Vec<Vec<u8>> = entries.iter().map(WalEntry::to_payload).collect();
        let mut pending: Vec<usize> = (0..entries.len()).collect();
        while !pending.is_empty() {
            // Re-resolve each entry's backup per pass: an eviction below
            // shifts its keys to the next successor.
            let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            {
                let ring = self.ring.lock();
                let n = ring.node_count();
                for &i in &pending {
                    let target = ring
                        .successors(entries[i].username(), n)
                        .into_iter()
                        .find(|node| *node != self.node_id)
                        .map(String::from);
                    if let Some(target) = target {
                        groups.entry(target).or_default().push(i);
                    }
                }
            }
            let mut still_pending = Vec::new();
            for (target, indices) in groups {
                let Some(peer) = self.peers.get(&target) else {
                    // A ring member without a peer entry can only come from
                    // a stale ring view; evict it and re-route these
                    // entries rather than bringing the commit path down.
                    self.ring.lock().leave(&target);
                    still_pending.extend(indices);
                    continue;
                };
                let batch: Vec<&[u8]> = indices.iter().map(|&i| payloads[i].as_slice()).collect();
                // Retry once on a fresh connection: a listener restart or a
                // dropped socket looks identical to a dead peer on the
                // first failed attempt.
                if self.send_group_once(peer, &batch).is_ok()
                    || self.send_group_once(peer, &batch).is_ok()
                {
                    continue;
                }
                // Two straight failures: declare the peer dead and let the
                // ring promote the next successor for all its keys.
                self.ring.lock().leave(&target);
                still_pending.extend(indices);
            }
            pending = still_pending;
        }
        Ok(())
    }

    fn stats(&self) -> ReplicationStats {
        let c = &self.counters;
        ReplicationStats {
            records_replicated: c.records_replicated.load(Ordering::Relaxed),
            anti_entropy_rounds: c.anti_entropy_rounds.load(Ordering::Relaxed),
            ranges_checked: c.ranges_checked.load(Ordering::Relaxed),
            ranges_divergent: c.ranges_divergent.load(Ordering::Relaxed),
            records_pushed: c.records_pushed.load(Ordering::Relaxed),
            records_pulled: c.records_pulled.load(Ordering::Relaxed),
            sync_failures: c.sync_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_geometry::Point;
    use gp_passwords::prelude::*;
    use gp_passwords::DurabilityOptions;

    fn messages() -> Vec<ReplicaMessage> {
        vec![
            ReplicaMessage::Hello {
                node_id: "node-0".into(),
            },
            ReplicaMessage::HelloOk {
                node_id: "node-1".into(),
            },
            ReplicaMessage::Record {
                seq: 42,
                payload: vec![1, 2, 3, 4],
            },
            ReplicaMessage::Record {
                seq: u64::MAX,
                payload: vec![],
            },
            ReplicaMessage::Ack { seq: 7 },
            ReplicaMessage::PullDone { count: 99 },
            ReplicaMessage::DigestRequest {
                primary: "node-0".into(),
                backup: "node-1".into(),
                members: vec!["node-0".into(), "node-1".into()],
            },
            ReplicaMessage::DigestReply {
                count: 3,
                sum: u64::MAX,
                xor: 0x1234_5678_9abc_def0,
            },
            ReplicaMessage::RangeRequest {
                primary: "node-1".into(),
                backup: "node-0".into(),
                members: vec!["node-0".into(), "node-1".into()],
            },
            ReplicaMessage::RangeReply {
                done: false,
                entries: vec![("alice".into(), 1), ("bob".into(), u64::MAX)],
            },
            ReplicaMessage::RangeReply {
                done: true,
                entries: vec![],
            },
            ReplicaMessage::PullRequest {
                usernames: vec!["alice".into(), "bob".into()],
            },
        ]
    }

    #[test]
    fn replica_messages_round_trip() {
        for m in messages() {
            let decoded = ReplicaMessage::decode(m.encode()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn truncated_and_unknown_replica_messages_rejected() {
        assert!(ReplicaMessage::decode(Bytes::new()).is_err());
        assert!(ReplicaMessage::decode(Bytes::from_static(&[0x7f])).is_err());
        for m in messages() {
            let full = m.encode();
            for len in 0..full.len() {
                assert!(
                    ReplicaMessage::decode(full.slice(0..len)).is_err(),
                    "prefix of {len} bytes of {m:?}"
                );
            }
            let mut trailing = full.to_vec();
            trailing.push(0xff);
            assert!(ReplicaMessage::decode(Bytes::from(trailing)).is_err());
        }
    }

    fn system() -> GraphicalPasswordSystem {
        GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::centered(6),
            2,
        )
    }

    fn clicks(seed: u32) -> Vec<Point> {
        (0..5)
            .map(|i| {
                let x = 30.0 + f64::from(seed % 50) + 70.0 * f64::from(i);
                let y = 20.0 + f64::from(seed / 50 % 40) + 55.0 * f64::from(i);
                Point::new(x, y)
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gp-replication-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// End-to-end over loopback: a replicator streams enrollments to a
    /// listener backed by a durable store; after a simulated backup crash
    /// (listener handle dropped) the store recovers every acked record.
    #[test]
    fn sync_replication_is_durable_on_the_replica() {
        let sys = system();
        let dir = temp_dir("sync");
        let store = Arc::new(
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap(),
        );
        let mut listener = spawn_replication_listener("backup", Arc::clone(&store)).unwrap();

        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        for i in 0..8u32 {
            let record = sys.enroll(&format!("user{i}"), &clicks(i)).unwrap();
            replicator
                .replicate_group(&[WalEntry::Enroll(record)])
                .unwrap();
        }
        assert_eq!(listener.applied(), 8);
        // Redelivery is harmless (insert-or-replace).
        let record = sys.enroll("user0", &clicks(0)).unwrap();
        replicator
            .replicate_group(&[WalEntry::Enroll(record)])
            .unwrap();
        assert_eq!(store.len(), 8);

        listener.shutdown();
        drop(store);
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 8);
        for i in 0..8u32 {
            assert!(recovered
                .verify(&sys, &format!("user{i}"), &clicks(i))
                .unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A dead backup (nothing listening) must not wedge the primary: the
    /// peer is declared dead after the retry and the entry is accepted
    /// locally (no other member on the ring).
    #[test]
    fn dead_backup_is_evicted_and_the_primary_keeps_serving() {
        let sys = system();
        // Grab a port that is then closed again: connection refused.
        let dead_addr = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let peers = BTreeMap::from([("backup".to_string(), dead_addr)]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        assert!(replicator.is_live("backup"));
        let record = sys.enroll("alice", &clicks(1)).unwrap();
        replicator
            .replicate_group(&[WalEntry::Enroll(record)])
            .unwrap();
        assert!(!replicator.is_live("backup"), "two failures evict the peer");
        // Revive readmits it (and the next send would reconnect).
        assert!(replicator.revive("backup"));
        assert!(replicator.is_live("backup"));
        assert!(!replicator.revive("unknown"), "unknown nodes stay out");
    }

    /// Dropping the outbound connection mid-stream is transparent: the
    /// next send reconnects and the record still lands.
    #[test]
    fn connection_drop_is_retried_transparently() {
        let sys = system();
        let store = Arc::new(ShardedPasswordStore::new(2));
        let mut listener = spawn_replication_listener("backup", Arc::clone(&store)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());

        let record = sys.enroll("alice", &clicks(1)).unwrap();
        replicator
            .replicate_group(&[WalEntry::Enroll(record)])
            .unwrap();
        replicator.drop_connections();
        let record = sys.enroll("bob", &clicks(2)).unwrap();
        replicator
            .replicate_group(&[WalEntry::Enroll(record)])
            .unwrap();
        assert!(replicator.is_live("backup"), "a drop is not a death");
        assert_eq!(store.len(), 2);
        listener.shutdown();
    }

    /// What [`partial_ack_backup`] does after acking a group's first
    /// record.
    #[derive(Clone, Copy)]
    enum AfterPartialAck {
        /// Keep the socket open and send nothing more.
        Stall,
        /// Close the socket.
        Close,
    }

    /// A fake backup: on every connection it completes the `Hello` /
    /// `HelloOk` handshake, reads a 3-record group, acks only the first
    /// record, then stalls or closes.  It serves connections until
    /// `release` fires (stalled sockets stay open until then) and its
    /// thread returns how many it served.
    fn partial_ack_backup(
        after: AfterPartialAck,
    ) -> (
        SocketAddr,
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<usize>,
    ) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let join = std::thread::spawn(move || {
            let mut held = Vec::new();
            let mut served = 0;
            while let Err(std::sync::mpsc::TryRecvError::Empty) = released.try_recv() {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(e) => panic!("accept failed: {e}"),
                };
                served += 1;
                stream.set_nonblocking(false).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut reader = FrameReader::new(BufReader::new(stream.try_clone().unwrap()));
                let mut writer = FrameWriter::new(BufWriter::new(stream.try_clone().unwrap()));
                let mut next = || ReplicaMessage::decode(reader.read_frame().unwrap()).unwrap();
                assert!(matches!(next(), ReplicaMessage::Hello { .. }));
                let hello_ok = ReplicaMessage::HelloOk {
                    node_id: "backup".into(),
                };
                writer.write_frame(&hello_ok.encode()).unwrap();
                let seqs: Vec<u64> = (0..3)
                    .map(|_| match next() {
                        ReplicaMessage::Record { seq, .. } => seq,
                        other => panic!("expected a record, got {other:?}"),
                    })
                    .collect();
                let ack = ReplicaMessage::Ack { seq: seqs[0] };
                writer.write_frame(&ack.encode()).unwrap();
                match after {
                    AfterPartialAck::Stall => held.push(stream),
                    AfterPartialAck::Close => stream.shutdown(std::net::Shutdown::Both).unwrap(),
                }
            }
            served
        });
        (addr, release, join)
    }

    /// Three enrollments, all routed to the only peer.
    fn three_entries() -> Vec<WalEntry> {
        let sys = system();
        (0..3u32)
            .map(|i| WalEntry::Enroll(sys.enroll(&format!("user{i}"), &clicks(i)).unwrap()))
            .collect()
    }

    /// An ack for the first record of a group never releases the barrier
    /// while the peer stalls with the socket open: each of the two
    /// attempts waits out the whole ack timeout, the peer is evicted after
    /// the retry, and the group is not counted as replicated.
    #[test]
    fn partial_ack_from_a_stalled_peer_waits_out_the_timeout_then_evicts() {
        let ack_timeout = Duration::from_millis(300);
        let (addr, release, join) = partial_ack_backup(AfterPartialAck::Stall);
        let peers = BTreeMap::from([("backup".to_string(), addr)]);
        let config = ReplicatorConfig {
            ack_timeout,
            ..ReplicatorConfig::default()
        };
        let replicator = Replicator::new("primary", peers, config);

        let started = Instant::now();
        replicator.replicate_group(&three_entries()).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed >= 2 * ack_timeout,
            "returned after {elapsed:?}, before both attempts timed out"
        );
        assert!(!replicator.is_live("backup"), "evicted after the retry");
        assert_eq!(replicator.stats().records_replicated, 0);
        let _ = release.send(());
        assert_eq!(join.join().unwrap(), 2, "one attempt, then one retry");
    }

    /// A peer that acks the first record and then closes the socket errors
    /// the waiter at once instead of leaving it to the (long) ack timeout.
    #[test]
    fn partial_ack_then_close_fails_fast_and_evicts() {
        let (addr, release, join) = partial_ack_backup(AfterPartialAck::Close);
        let peers = BTreeMap::from([("backup".to_string(), addr)]);
        let config = ReplicatorConfig {
            ack_timeout: Duration::from_secs(30),
            ..ReplicatorConfig::default()
        };
        let replicator = Replicator::new("primary", peers, config);

        let started = Instant::now();
        replicator.replicate_group(&three_entries()).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "a closed socket must fail the wait, took {elapsed:?}"
        );
        assert!(!replicator.is_live("backup"), "evicted after the retry");
        assert_eq!(replicator.stats().records_replicated, 0);
        let _ = release.send(());
        assert_eq!(join.join().unwrap(), 2, "one attempt, then one retry");
    }

    /// A fake backup whose sockets receive into a 64 KiB buffer: on every
    /// connection it completes the `Hello` / `HelloOk` handshake, then
    /// never reads again.  It serves connections until `release` fires
    /// (the sockets stay open until then) and its thread returns how many
    /// it served.
    #[cfg(target_os = "linux")]
    fn non_reading_backup() -> (
        SocketAddr,
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<usize>,
    ) {
        let listener = pinned_listener();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let join = std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Err(std::sync::mpsc::TryRecvError::Empty) = released.try_recv() {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(e) => panic!("accept failed: {e}"),
                };
                stream.set_nonblocking(false).unwrap();
                let mut reader = FrameReader::new(stream.try_clone().unwrap());
                let frame = reader.read_frame().unwrap();
                assert!(matches!(
                    ReplicaMessage::decode(frame).unwrap(),
                    ReplicaMessage::Hello { .. }
                ));
                let hello_ok = ReplicaMessage::HelloOk {
                    node_id: "backup".into(),
                };
                let mut writer = FrameWriter::new(stream.try_clone().unwrap());
                writer.write_frame(&hello_ok.encode()).unwrap();
                held.push(stream);
            }
            held.len()
        });
        (addr, release, join)
    }

    /// A loopback listener whose accepted sockets inherit a receive buffer
    /// pinned to 64 KiB, so the kernel cannot autotune it up to
    /// `tcp_rmem`'s maximum.
    #[cfg(target_os = "linux")]
    fn pinned_listener() -> TcpListener {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        crate::sys::set_recv_buffer(listener.as_raw_fd(), 64 * 1024).unwrap();
        listener
    }

    /// Bytes a sender can park in the kernel towards a pinned receiver
    /// that reads nothing, whatever the host's socket-buffer tuning: a
    /// probe connection is written into until the kernel takes nothing
    /// more (the send buffer autotunes while it fills), then the sizes the
    /// kernel reports, `SO_SNDBUF` on the sender and `SO_RCVBUF` on the
    /// receiver, bound what a stalled connection can hold.
    #[cfg(target_os = "linux")]
    fn parkable_bytes() -> usize {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let listener = pinned_listener();
        let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (receiver, _) = listener.accept().unwrap();
        sender.set_nonblocking(true).unwrap();
        let chunk = vec![0u8; 64 * 1024];
        let mut idle_rounds = 0;
        while idle_rounds < 3 {
            match sender.write(&chunk) {
                Ok(_) => idle_rounds = 0,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    idle_rounds += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("probe write failed: {e}"),
            }
        }
        crate::sys::send_buffer(sender.as_raw_fd()).unwrap()
            + crate::sys::recv_buffer(receiver.as_raw_fd()).unwrap()
    }

    /// A backup that completes the handshake and then stops reading must
    /// not wedge the primary inside a group's write: the blocked write
    /// times out after `ack_timeout`, the retry does the same, and the peer
    /// is evicted with nothing counted as replicated.  The group is twice
    /// what the kernel can park, so the write must block whatever the
    /// host's buffer tuning.
    #[cfg(target_os = "linux")]
    #[test]
    fn backup_that_stops_reading_times_out_the_write_and_is_evicted() {
        const NAME_LEN: usize = 16 * 1024;
        let ack_timeout = Duration::from_millis(300);
        let count = 2 * parkable_bytes() / NAME_LEN + 1;
        // Removals of one long name: bulky records that cost no hashing.
        let entries = vec![WalEntry::Remove("x".repeat(NAME_LEN)); count];
        let (addr, release, join) = non_reading_backup();
        let peers = BTreeMap::from([("backup".to_string(), addr)]);
        let config = ReplicatorConfig {
            ack_timeout,
            ..ReplicatorConfig::default()
        };
        let replicator = Replicator::new("primary", peers, config);

        let started = Instant::now();
        replicator.replicate_group(&entries).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < 20 * ack_timeout,
            "a stuck write must fail within its timeout, took {elapsed:?}"
        );
        assert!(!replicator.is_live("backup"), "evicted after the retry");
        assert_eq!(replicator.stats().records_replicated, 0);
        let _ = release.send(());
        assert_eq!(join.join().unwrap(), 2, "one attempt, then one retry");
    }

    /// `count` enrolled records named `user0..`.
    fn enrolled(count: u32) -> Vec<StoredPassword> {
        let sys = system();
        (0..count)
            .map(|i| sys.enroll(&format!("user{i}"), &clicks(i)).unwrap())
            .collect()
    }

    /// A live peer `id` whose store holds `records`.
    fn peer_with(id: &str, records: &[StoredPassword]) -> ReplicationHandle {
        let store = Arc::new(ShardedPasswordStore::new(2));
        for record in records {
            store.insert(record.clone()).unwrap();
        }
        spawn_replication_listener(id, store).unwrap()
    }

    /// The joiner's replicator, given its peers' listeners.
    fn joiner(id: &str, peers: &[(&str, SocketAddr)]) -> Replicator {
        let peers = peers
            .iter()
            .map(|(peer, addr)| (peer.to_string(), *addr))
            .collect();
        Replicator::new(id, peers, ReplicatorConfig::default())
    }

    fn members(ids: &[&str]) -> Vec<String> {
        ids.iter().map(|id| id.to_string()).collect()
    }

    /// The join pulls exactly the joiner's ranges: with two members the
    /// joiner holds every key, so an empty joiner pulls the peer's whole
    /// store, and the round is complete.
    #[test]
    fn join_pulls_exactly_the_joiners_ranges() {
        let sys = system();
        let mut listener = peer_with("node-a", &enrolled(32));
        let store = ShardedPasswordStore::new(2);
        let round = joiner("node-b", &[("node-a", listener.addr())])
            .join_round(&members(&["node-a", "node-b"]), &store);
        assert!(round.failed_peers.is_empty(), "{round:?}");
        assert_eq!(round.records_pulled, 32);
        assert_eq!(store.len(), 32);
        assert_eq!(listener.served(), 32);
        for i in 0..32u32 {
            assert!(store.verify(&sys, &format!("user{i}"), &clicks(i)).unwrap());
        }
        listener.shutdown();
    }

    /// A joiner that already holds a prefix (recovered from its own WAL,
    /// or left by an interrupted join) pulls only the rest, and a second
    /// join pulls nothing.
    #[test]
    fn join_pulls_only_what_the_joiner_lacks_and_a_rerun_pulls_nothing() {
        let records = enrolled(16);
        let mut listener = peer_with("node-a", &records);
        let store = ShardedPasswordStore::new(2);
        for record in &records[..5] {
            store.insert(record.clone()).unwrap();
        }
        let replicator = joiner("node-b", &[("node-a", listener.addr())]);
        let members = members(&["node-a", "node-b"]);

        let first = replicator.join_round(&members, &store);
        assert!(first.failed_peers.is_empty(), "{first:?}");
        assert_eq!(first.records_pulled, 11, "only the missing records");
        assert_eq!(store.len(), 16);

        let second = replicator.join_round(&members, &store);
        assert!(second.failed_peers.is_empty(), "{second:?}");
        assert_eq!(second.records_pulled, 0);
        assert_eq!(second.ranges_divergent, 0, "every digest now agrees");
        assert_eq!(listener.served(), 11);
        listener.shutdown();
    }

    /// A dead peer is listed in `failed_peers` and nothing is pulled.
    #[test]
    fn join_with_a_dead_peer_lists_it_and_pulls_nothing() {
        let dead_addr = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let store = ShardedPasswordStore::new(2);
        let round = joiner("node-b", &[("node-a", dead_addr)])
            .join_round(&members(&["node-a", "node-b"]), &store);
        assert_eq!(round.failed_peers, vec!["node-a".to_string()]);
        assert_eq!(round.records_pulled, 0);
    }

    /// A record in the joiner's `(J, X)` pair that only a third member
    /// holds (X lost it, or it was enrolled while J was away and landed
    /// on the survivors' successors) still reaches the joiner: every peer
    /// is asked about every pair the joiner belongs to.
    #[test]
    fn join_pulls_a_record_only_a_third_member_holds() {
        let ids = ["node-a", "node-b", "node-c"];
        let ring = HashRing::with_nodes(ids);
        let records: Vec<StoredPassword> = enrolled(64)
            .into_iter()
            .filter(|r| ring.replica_pair(&r.username) == Some(("node-b", Some("node-a"))))
            .collect();
        assert!(!records.is_empty(), "64 names must hit the (b, a) pair");
        let mut a = peer_with("node-a", &[]);
        let mut c = peer_with("node-c", &records);
        let store = ShardedPasswordStore::new(2);
        let round = joiner("node-b", &[("node-a", a.addr()), ("node-c", c.addr())])
            .join_round(&members(&ids), &store);
        assert!(round.failed_peers.is_empty(), "{round:?}");
        assert_eq!(round.records_pulled, records.len() as u64);
        for record in &records {
            assert!(store.get(&record.username).is_some(), "{}", record.username);
        }
        assert_eq!(c.served(), records.len() as u64);
        a.shutdown();
        c.shutdown();
    }

    /// One anti-entropy round repairs divergence in both directions: the
    /// primary pushes records the backup lost and pulls records written
    /// while the primary was away.
    #[test]
    fn anti_entropy_round_repairs_divergence_both_ways() {
        let sys = system();
        let primary_store = Arc::new(ShardedPasswordStore::new(2));
        let backup_store = Arc::new(ShardedPasswordStore::new(2));
        // The primary's round checks only the range it *owns* (each node
        // repairs its own ranges; the peer's round covers the reverse
        // direction), so pick usernames deterministically owned by it.
        let ring = HashRing::with_nodes(["primary", "backup"]);
        let mine: Vec<String> = (0..64u32)
            .map(|i| format!("user{i}"))
            .filter(|name| ring.owner(name) == Some("primary"))
            .take(13)
            .collect();
        assert_eq!(mine.len(), 13, "64 candidates must yield 13 owned names");
        // Shared base: both sides hold it.
        for (i, name) in mine.iter().take(12).enumerate() {
            let record = sys.enroll(name, &clicks(i as u32)).unwrap();
            primary_store.insert(record.clone()).unwrap();
            backup_store.insert(record).unwrap();
        }
        // Divergence: the backup lost one record, and holds one record
        // the primary never saw (written while the primary was away).
        let lost = &mine[2];
        let late = &mine[12];
        assert!(backup_store.remove(lost).unwrap(), "record was present");
        let unseen = sys.enroll(late, &clicks(77)).unwrap();
        backup_store.insert(unseen).unwrap();

        let mut listener = spawn_replication_listener("backup", Arc::clone(&backup_store)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());

        let round = replicator.anti_entropy_round(&primary_store);
        assert_eq!(round.ranges_checked, 1);
        assert_eq!(round.ranges_divergent, 1);
        assert!(round.failed_peers.is_empty());
        assert!(round.records_pushed >= 1, "the lost record must be pushed");
        assert!(round.records_pulled >= 1, "the late record must be pulled");

        // Both sides now agree record-for-record.
        assert!(backup_store.get(lost).is_some());
        assert!(primary_store.get(late).is_some());
        assert_eq!(
            primary_store.range_digest(|_| true),
            backup_store.range_digest(|_| true)
        );

        // A second round finds nothing to do.
        let quiet = replicator.anti_entropy_round(&primary_store);
        assert_eq!(quiet.ranges_divergent, 0);
        let stats = replicator.stats();
        assert_eq!(stats.anti_entropy_rounds, 2);
        assert_eq!(stats.ranges_checked, 2);
        assert_eq!(stats.ranges_divergent, 1);
        assert_eq!(stats.sync_failures, 0);
        listener.shutdown();
    }

    /// Anti-entropy against an unreachable peer skips it (sync_failures)
    /// without evicting it from the ring.
    #[test]
    fn anti_entropy_skips_unreachable_peers_without_eviction() {
        let dead_addr = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let peers = BTreeMap::from([("backup".to_string(), dead_addr)]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        let store = ShardedPasswordStore::new(2);
        let round = replicator.anti_entropy_round(&store);
        assert_eq!(round.failed_peers, vec!["backup".to_string()]);
        assert!(
            replicator.is_live("backup"),
            "anti-entropy must never evict"
        );
        assert_eq!(replicator.stats().sync_failures, 1);
    }

    /// The background thread runs rounds on its own and stops cleanly.
    #[test]
    fn spawned_anti_entropy_thread_runs_and_shuts_down() {
        let backup_store = Arc::new(ShardedPasswordStore::new(2));
        let mut listener = spawn_replication_listener("backup", Arc::clone(&backup_store)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Arc::new(Replicator::new(
            "primary",
            peers,
            ReplicatorConfig::default(),
        ));
        let primary_store = Arc::new(ShardedPasswordStore::new(2));
        let mut handle = spawn_anti_entropy(
            Arc::clone(&replicator),
            Arc::clone(&primary_store),
            Duration::from_millis(20),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while replicator.stats().anti_entropy_rounds < 2 {
            assert!(Instant::now() < deadline, "rounds never ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        let after = replicator.stats().anti_entropy_rounds;
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(
            replicator.stats().anti_entropy_rounds,
            after,
            "no rounds after shutdown"
        );
        listener.shutdown();
    }
}
