//! Iterated ("stretched") password hashing.
//!
//! Section 3.2 of the paper recommends two hardening measures for the stored
//! hash of the discretized password:
//!
//! 1. a per-user salt ("a user identifier could be added to the hash ... and
//!    also stored in clear-text"), preventing pre-computed dictionaries from
//!    being reused across accounts; and
//! 2. iterated hashing ("using h^1000 effectively adds 10 bits of
//!    security"), multiplying the attacker's per-guess cost.
//!
//! [`PasswordHasher`] packages both together with a domain-separation label
//! so that hashes computed for different purposes (PassPoints vs the
//! networked protocol's proof messages) can never collide.

use crate::ct::ct_eq;
use crate::sha256::{
    compress, compress_lanes, state_to_digest, Digest, Midstate, Sha256, BLOCK_LEN, DIGEST_LEN,
};
use crate::sha_ni::ShaNi;

/// Number of interleaved hash lanes in the portable batched path
/// ([`iterated_hash_many`], [`SaltedHasher::iterated_many`]), the one CPUs
/// without SHA-NI take; it is also the batch size the serving layer
/// coalesces logins to.
///
/// Independent SHA-256 chains interleaved in one compression loop sidestep
/// the serial round-to-round dependency of a single hash: the lane loop
/// bodies are element-wise u32 operations over adjacent memory, which LLVM
/// auto-vectorizes.  16 lanes (one cache line of u32s per schedule round)
/// is the sweet spot measured by the `micro_primitives` lane-sweep bench —
/// about 5× the portable scalar chain's throughput under the committed
/// `x86-64-v3` (AVX2) build, about 8× under `x86-64-v4` (AVX-512).  With
/// SHA-NI the batched entry points run four chains per kernel call instead
/// (see [`active_kernel`]).
pub const LANES: usize = 16;

/// Chains the SHA-NI kernel interleaves per call in the batched entry
/// points; a batch's last 1–3 chains run as a narrower call.
const SHA_NI_STREAMS: usize = 4;

/// The compression kernel the iterated-hash entry points use on this CPU:
/// `"sha_ni"` when [`ShaNi::detect`] finds the SHA extensions, otherwise
/// `"portable"` (the scalar chain and the auto-vectorized [`LANES`]-lane
/// kernel).  Both produce bit-identical digests; the choice is made per
/// call, by detection only.
pub fn active_kernel() -> &'static str {
    match ShaNi::detect() {
        Some(_) => "sha_ni",
        None => "portable",
    }
}

/// Apply SHA-256 `iterations` times to `salt || message`:
/// `h(salt || h(salt || … h(salt || message)))`.
///
/// `iterations = 1` is a plain salted hash; the paper's example uses 1000.
/// `iterations = 0` is treated as 1 (hashing zero times would store the
/// message in the clear, which is never acceptable) — see
/// [`SaltedHasher::iterated`] for the normative statement of both edge
/// cases.
///
/// One-off convenience for [`SaltedHasher`]; when hashing more than one
/// message under the same salt (verification servers, offline attacks),
/// build the hasher once and reuse it.
///
/// ```
/// use gp_crypto::iterated_hash;
/// let once = iterated_hash(b"salt", b"msg", 1);
/// let thousand = iterated_hash(b"salt", b"msg", 1000);
/// assert_ne!(once, thousand);
/// ```
pub fn iterated_hash(salt: &[u8], message: &[u8], iterations: u32) -> Digest {
    SaltedHasher::new(salt).iterated(message, iterations)
}

/// Batched [`iterated_hash`]: one digest per message, all under the same
/// salt, with independent chains interleaved through the batched kernel.
///
/// Bit-identical to mapping [`iterated_hash`] over `messages` (there is a
/// proptest proving it), but substantially faster for the offline-attack
/// workload of many candidate pre-images against one salted target.
pub fn iterated_hash_many(salt: &[u8], messages: &[&[u8]], iterations: u32) -> Vec<Digest> {
    SaltedHasher::new(salt).iterated_many(messages, iterations)
}

/// Batched iterated hashing where every message carries its *own* salt —
/// the authentication-server shape, where concurrent login attempts from
/// different accounts (hence different per-user salts) are coalesced into
/// one batched run.
///
/// Bit-identical to calling [`SaltedHasher::iterated`] per entry (there is
/// an equivalence test), but the entries' rounds are interleaved through
/// the same batched kernel that powers [`iterated_hash_many`].  Entries
/// are grouped internally by `blocks_per_round` (salts of different
/// lengths may pad to a different number of compression blocks), so
/// mixed-length salts are handled correctly at full speed.
///
/// `hashers` and `messages` must have equal length.
pub fn iterated_hash_many_salted(
    hashers: &[&SaltedHasher],
    messages: &[&[u8]],
    iterations: u32,
) -> Vec<Digest> {
    let mut out = Vec::new();
    iterated_hash_many_salted_into(hashers, messages, iterations, &mut out);
    out
}

/// [`iterated_hash_many_salted`] writing into a caller-provided buffer, so
/// a steady-state serving loop performs no per-batch output allocation.
pub fn iterated_hash_many_salted_into(
    hashers: &[&SaltedHasher],
    messages: &[&[u8]],
    iterations: u32,
    out: &mut Vec<Digest>,
) {
    many_salted_into(ShaNi::detect(), hashers, messages, iterations, out);
}

/// [`iterated_hash_many_salted_into`] on the SHA-NI kernel when `sha_ni`
/// is `Some`, else on the portable kernels.
fn many_salted_into(
    sha_ni: Option<ShaNi>,
    hashers: &[&SaltedHasher],
    messages: &[&[u8]],
    iterations: u32,
    out: &mut Vec<Digest>,
) {
    assert_eq!(
        hashers.len(),
        messages.len(),
        "one salted hasher per message"
    );
    let rounds = iterations.max(1);
    out.clear();
    out.extend(
        hashers
            .iter()
            .zip(messages)
            .map(|(h, m)| h.first.digest_suffix(m)),
    );
    if rounds == 1 {
        return;
    }
    let template = |i: usize| hashers[i].template;

    // Chains interleaved in one kernel call must share the per-round block
    // count, so bucket entry indices by `blocks_per_round` (1 for salts
    // ≤ 23 bytes mod 64, else 2) and run the kernel bucket by bucket.
    let mut order: Vec<usize> = (0..hashers.len()).collect();
    order.sort_by_key(|&i| hashers[i].blocks_per_round());
    let mut start = 0;
    while start < order.len() {
        let bpr = hashers[order[start]].blocks_per_round();
        let len = order[start..]
            .iter()
            .take_while(|&&i| hashers[i].blocks_per_round() == bpr)
            .count();
        let group = &order[start..start + len];
        match sha_ni {
            // Four streams per call and a 1–3-stream tail: every stream is
            // a real entry, so a short bucket costs no padding.
            Some(ni) => {
                for lanes in group.chunks(SHA_NI_STREAMS) {
                    run_sha_ni(ni, lanes, template, rounds, out);
                }
            }
            None => run_portable(group, template, rounds, out),
        }
        start += len;
    }
}

/// The portable kernels over one `blocks_per_round` bucket: full
/// [`LANES`]-lane passes, then the tail.
fn run_portable(
    group: &[usize],
    template: impl Fn(usize) -> RoundTemplate + Copy,
    rounds: u32,
    out: &mut [Digest],
) {
    let mut chunks = group.chunks_exact(LANES);
    for lanes in chunks.by_ref() {
        run_lanes::<LANES>(lanes, template, rounds, out, compress_lanes);
    }
    // Run the bucket's tail through a *padded* lane pass instead of
    // falling back to one scalar chain per entry.  This is load-bearing
    // for serving batches with mixed salt lengths on the portable path:
    // one fresh enrollment coalesced with a run of short-salt logins
    // splits the batch into two buckets, and without this dispatch *both*
    // sides of the split would decay to scalar remainders (a 1+15 split
    // hashed ~5x slower than a uniform 16-lane run).
    //
    // Thresholds are measured for the portable kernels under the AVX2
    // build, not guessed: a scalar chain costs ~0.26x of a full-width
    // pass and a 4-lane pass ~0.85x (narrower kernels barely help — the
    // per-round schedule work doesn't shrink with lane count, and 8 lanes
    // actively defeats the autovectorizer), so tails of 1-3 stay scalar,
    // exactly 4 takes the 4-lane kernel, and anything larger pads to full
    // width.
    let tail = chunks.remainder();
    match tail.len() {
        0 => {}
        1..=3 => {
            for lane in tail.chunks(1) {
                run_lanes::<1>(lane, template, rounds, out, compress_one);
            }
        }
        4 => run_lanes::<4>(tail, template, rounds, out, compress_lanes),
        _ => run_lanes::<LANES>(tail, template, rounds, out, compress_lanes),
    }
}

/// One SHA-NI call sequence over 1–[`SHA_NI_STREAMS`] entries, one stream
/// per entry.
fn run_sha_ni(
    ni: ShaNi,
    lanes: &[usize],
    template: impl Fn(usize) -> RoundTemplate,
    rounds: u32,
    out: &mut [Digest],
) {
    match lanes.len() {
        1 => run_lanes::<1>(lanes, template, rounds, out, |s, b| ni.compress(s, b)),
        2 => run_lanes::<2>(lanes, template, rounds, out, |s, b| ni.compress(s, b)),
        3 => run_lanes::<3>(lanes, template, rounds, out, |s, b| ni.compress(s, b)),
        4 => run_lanes::<4>(lanes, template, rounds, out, |s, b| ni.compress(s, b)),
        n => unreachable!("{n} entries for at most {SHA_NI_STREAMS} SHA-NI streams"),
    }
}

/// The portable scalar compression in the kernel shape [`advance_chains`]
/// takes.
fn compress_one(states: &mut [[u32; 8]; 1], blocks: [&[u8; BLOCK_LEN]; 1]) {
    compress(&mut states[0], blocks[0]);
}

/// One interleaved pass of up to `L` same-`blocks_per_round` entries of
/// `out`, entry `i` carrying its own salt layout `template(i)`: each
/// chain advances from its first-round digest in `out` to its final one.
///
/// `lanes` may hold fewer than `L` entries: spare chains are padded with
/// copies of the first entry, so they redundantly recompute it and their
/// results are discarded.  Padding keeps a short portable bucket at one
/// wide-kernel pass, since `L` scalar chains cost far more than one mostly
/// idle vectorized pass.
fn run_lanes<const L: usize>(
    lanes: &[usize],
    template: impl Fn(usize) -> RoundTemplate,
    rounds: u32,
    out: &mut [Digest],
    compress: impl Fn(&mut [[u32; 8]; L], [&[u8; BLOCK_LEN]; L]),
) {
    debug_assert!(!lanes.is_empty() && lanes.len() <= L);
    let entry = |l: usize| lanes[if l < lanes.len() { l } else { 0 }];
    let mut templates: [RoundTemplate; L] = core::array::from_fn(|l| template(entry(l)));
    let mut digests: [Digest; L] = core::array::from_fn(|l| out[entry(l)]);
    advance_chains(&mut templates, &mut digests, rounds, compress);
    for (&i, digest) in lanes.iter().zip(&digests) {
        out[i] = *digest;
    }
}

/// Advance `L` independent chains from round 1 to round `rounds`: each
/// round hashes `salt || digest` under chain `l`'s template, with
/// `compress` absorbing one block of every chain per call.  The templates
/// must share `blocks_per_round`.
fn advance_chains<const L: usize>(
    templates: &mut [RoundTemplate; L],
    digests: &mut [Digest; L],
    rounds: u32,
    compress: impl Fn(&mut [[u32; 8]; L], [&[u8; BLOCK_LEN]; L]),
) {
    let blocks = templates[0].blocks;
    debug_assert!(templates.iter().all(|t| t.blocks == blocks));
    for _ in 1..rounds {
        for (t, digest) in templates.iter_mut().zip(digests.iter()) {
            t.buffer[t.digest_offset..t.digest_offset + DIGEST_LEN].copy_from_slice(digest);
        }
        let mut states: [[u32; 8]; L] = core::array::from_fn(|l| templates[l].initial_state);
        for b in 0..blocks {
            compress(&mut states, core::array::from_fn(|l| templates[l].block(b)));
        }
        *digests = core::array::from_fn(|l| state_to_digest(&states[l]));
    }
}

/// Reference implementation of [`iterated_hash`]: a fresh incremental
/// hasher per round, exactly as the seed version of this crate computed it.
///
/// Kept (and exercised by the equivalence proptests) as the specification
/// the optimized one-shot/midstate/multi-lane paths must match, and as the
/// baseline the `micro_primitives` benches measure speedups against.
pub fn iterated_hash_reference(salt: &[u8], message: &[u8], iterations: u32) -> Digest {
    let rounds = iterations.max(1);
    let mut h = Sha256::new();
    h.update(salt);
    h.update(message);
    let mut digest = h.finalize();
    for _ in 1..rounds {
        let mut h = Sha256::new();
        h.update(salt);
        h.update(&digest);
        digest = h.finalize();
    }
    digest
}

/// Precomputed per-round layout for iterated hashing under a fixed salt.
///
/// Every round after the first hashes `salt || digest` where only the
/// 32-byte digest changes, so the whole padded message — salt remainder,
/// digest slot, 0x80 terminator, zeros, bit length — is laid out once.
/// Advancing a round is then: overwrite the digest slot, reset the state to
/// the precomputed midstate, and run one compression per remaining block
/// (exactly one block for salts up to 23 bytes).
/// Upper bound on a round's padded message: the salt tail is at most 63
/// bytes, so `tail || digest || 0x80 || zeros || length` is at most
/// `63 + 32 + 9 = 104` bytes, padded to two blocks.
const ROUND_BUF_LEN: usize = 2 * BLOCK_LEN;

#[derive(Clone, Copy)]
struct RoundTemplate {
    /// `H0` advanced over the salt's full 64-byte blocks (paid once).
    initial_state: [u32; 8],
    /// The remaining padded blocks: `salt_tail || digest slot || padding`.
    /// Fixed-size so templates are plain stack values — copying one per
    /// guess loop costs no heap allocation.
    buffer: [u8; ROUND_BUF_LEN],
    /// Valid 64-byte blocks in `buffer` (1 for salts ≤ 23 bytes mod 64,
    /// else 2).
    blocks: usize,
    /// Offset of the 32-byte digest slot in `buffer` (= `salt.len() % 64`).
    digest_offset: usize,
}

impl RoundTemplate {
    /// Build from an already-computed salt [`Midstate`], so the salt's full
    /// blocks are absorbed exactly once per [`SaltedHasher`].
    fn from_midstate(midstate: &Midstate) -> Self {
        let initial_state = *midstate.state();
        let tail = midstate.tail();
        let content_len = tail.len() + DIGEST_LEN;
        // Merkle–Damgård padding: 0x80, zeros, 8-byte big-endian bit length
        // of the *whole* message (salt || digest).
        let padded_len = (content_len + 1 + 8).div_ceil(BLOCK_LEN) * BLOCK_LEN;
        let mut buffer = [0u8; ROUND_BUF_LEN];
        buffer[..tail.len()].copy_from_slice(tail);
        buffer[content_len] = 0x80;
        let total_bits = (midstate.prefix_len() + DIGEST_LEN as u64) * 8;
        buffer[padded_len - 8..padded_len].copy_from_slice(&total_bits.to_be_bytes());
        Self {
            initial_state,
            buffer,
            blocks: padded_len / BLOCK_LEN,
            digest_offset: tail.len(),
        }
    }

    /// Number of 64-byte blocks compressed per round.
    fn blocks_per_round(&self) -> usize {
        self.blocks
    }

    /// The round's `b`-th padded block.
    fn block(&self, b: usize) -> &[u8; BLOCK_LEN] {
        self.buffer[b * BLOCK_LEN..(b + 1) * BLOCK_LEN]
            .try_into()
            .expect("exact block")
    }
}

/// Iterated salted hashing with the per-salt work hoisted out of the loop.
///
/// Construction precomputes a [`Midstate`] for the first absorption of
/// `salt || message` and a `RoundTemplate` for the `salt || digest`
/// rounds.  The hasher is cheap to clone and immutable in use, so a
/// verification server can build one per account and reuse it across login
/// attempts, and an attacker (our simulated one, anyway) builds one per
/// target.
#[derive(Clone)]
pub struct SaltedHasher {
    first: Midstate,
    template: RoundTemplate,
}

impl core::fmt::Debug for SaltedHasher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SaltedHasher")
            .field("salt_len", &self.first.prefix_len())
            .finish_non_exhaustive()
    }
}

impl SaltedHasher {
    /// Precompute the salt-dependent state (the salt's full blocks are
    /// absorbed once and shared by the first-round midstate and the
    /// per-round template).
    pub fn new(salt: &[u8]) -> Self {
        let first = Midstate::new(salt);
        let template = RoundTemplate::from_midstate(&first);
        Self { first, template }
    }

    /// SHA-256 compressions executed per `salt || digest` round (1 for
    /// salts up to 23 bytes — the one-block fast path).
    pub fn blocks_per_round(&self) -> usize {
        self.template.blocks_per_round()
    }

    /// Apply SHA-256 `iterations` times to `salt || message`.
    ///
    /// Edge semantics (normative, tested):
    ///
    /// * `iterations == 0` clamps to 1 — a zero-round hash would store the
    ///   message in the clear, which is never acceptable;
    /// * an empty salt is a valid (if inadvisable) configuration: rounds
    ///   hash the bare 32-byte digest, which still fits the one-block fast
    ///   path.
    pub fn iterated(&self, message: &[u8], iterations: u32) -> Digest {
        self.iterated_with(ShaNi::detect(), message, iterations)
    }

    /// [`SaltedHasher::iterated`] on the given kernel (`None`: portable).
    fn iterated_with(&self, sha_ni: Option<ShaNi>, message: &[u8], iterations: u32) -> Digest {
        let rounds = iterations.max(1);
        let mut digest = [self.first.digest_suffix(message)];
        // Stack copy (templates are `Copy`): the loop heap-allocates
        // nothing, keeping `VerifyScratch`-style callers allocation-free.
        let mut template = [self.template];
        match sha_ni {
            Some(ni) => {
                advance_chains(&mut template, &mut digest, rounds, |s, b| ni.compress(s, b))
            }
            None => advance_chains(&mut template, &mut digest, rounds, compress_one),
        }
        digest[0]
    }

    /// Batched [`SaltedHasher::iterated`] over independent messages,
    /// interleaved through the batched kernel.
    pub fn iterated_many(&self, messages: &[&[u8]], iterations: u32) -> Vec<Digest> {
        let mut out = Vec::new();
        self.iterated_many_into(messages, iterations, &mut out);
        out
    }

    /// [`SaltedHasher::iterated_many`] writing into a caller-provided
    /// buffer, so a steady-state guess loop performs no allocation.
    ///
    /// With SHA-NI, messages run four streams per kernel call with a 1–3
    /// stream tail; otherwise through the portable [`LANES`]-lane kernel.
    pub fn iterated_many_into(&self, messages: &[&[u8]], iterations: u32, out: &mut Vec<Digest>) {
        self.iterated_many_with(ShaNi::detect(), messages, iterations, out);
    }

    /// [`SaltedHasher::iterated_many_into`] on the given kernel (`None`:
    /// portable).
    fn iterated_many_with(
        &self,
        sha_ni: Option<ShaNi>,
        messages: &[&[u8]],
        iterations: u32,
        out: &mut Vec<Digest>,
    ) {
        let Some(ni) = sha_ni else {
            return self.iterated_many_lanes_into::<LANES>(messages, iterations, out);
        };
        let rounds = iterations.max(1);
        out.clear();
        out.extend(messages.iter().map(|m| self.first.digest_suffix(m)));
        if rounds == 1 {
            return;
        }
        for start in (0..out.len()).step_by(SHA_NI_STREAMS) {
            let lanes: [usize; SHA_NI_STREAMS] = core::array::from_fn(|l| start + l);
            let len = SHA_NI_STREAMS.min(out.len() - start);
            run_sha_ni(ni, &lanes[..len], |_| self.template, rounds, out);
        }
    }

    /// Lane-count-generic batched hashing on the portable kernels; exposed
    /// so the benches can sweep `L` (2/4/8) — production callers use
    /// [`SaltedHasher::iterated_many`], which picks the kernel.
    pub fn iterated_many_lanes_into<const L: usize>(
        &self,
        messages: &[&[u8]],
        iterations: u32,
        out: &mut Vec<Digest>,
    ) {
        assert!(L > 0, "at least one lane");
        let rounds = iterations.max(1);
        out.clear();
        out.extend(messages.iter().map(|m| self.first.digest_suffix(m)));
        if rounds == 1 {
            return;
        }

        // Each lane mutates only the digest slot of its own template copy;
        // templates are stack values allocated once for the whole batch.
        let mut templates = [self.template; L];
        let mut chunks = out.chunks_exact_mut(L);
        for lane_digests in chunks.by_ref() {
            let lane_digests = lane_digests.try_into().expect("L-digest chunk");
            advance_chains(&mut templates, lane_digests, rounds, compress_lanes);
        }
        // Remainder lanes (fewer than L messages left) run the scalar path.
        for digest in chunks.into_remainder() {
            let digest = core::array::from_mut(digest);
            advance_chains(&mut [self.template], digest, rounds, compress_one);
        }
    }
}

/// A finished password hash together with the parameters needed to verify
/// it.  The salt and iteration count are public; only the pre-image (the
/// discretized password) is secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasswordHash {
    /// Per-user salt stored in the clear.
    pub salt: Vec<u8>,
    /// Number of hash iterations applied.
    pub iterations: u32,
    /// The resulting digest.
    pub digest: Digest,
}

impl PasswordHash {
    /// Verify `message` against this hash in constant time.
    pub fn verify(&self, message: &[u8]) -> bool {
        let candidate = iterated_hash(&self.salt, message, self.iterations);
        ct_eq(&candidate, &self.digest)
    }

    /// Serialize as `iterations$salt_hex$digest_hex` for the password file.
    pub fn to_record(&self) -> String {
        format!(
            "{}${}${}",
            self.iterations,
            crate::hex::encode(&self.salt),
            crate::hex::encode(&self.digest)
        )
    }

    /// Parse a record produced by [`PasswordHash::to_record`].
    pub fn from_record(record: &str) -> Option<Self> {
        let mut parts = record.splitn(3, '$');
        let iterations: u32 = parts.next()?.parse().ok()?;
        let salt = crate::hex::decode(parts.next()?).ok()?;
        let digest_bytes = crate::hex::decode(parts.next()?).ok()?;
        if digest_bytes.len() != DIGEST_LEN {
            return None;
        }
        let mut digest = [0u8; DIGEST_LEN];
        digest.copy_from_slice(&digest_bytes);
        Some(Self {
            salt,
            iterations,
            digest,
        })
    }
}

/// Policy object describing how passwords are hashed: domain label, salt
/// construction and iteration count.
///
/// ```
/// use gp_crypto::PasswordHasher;
///
/// let hasher = PasswordHasher::new("passpoints", 1000);
/// let stored = hasher.hash(b"alice", b"discretized password bytes");
/// assert!(stored.verify_with(&hasher, b"alice", b"discretized password bytes"));
/// assert!(!stored.verify_with(&hasher, b"alice", b"wrong guess"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasswordHasher {
    /// Domain-separation label mixed into every salt.
    pub domain: String,
    /// Iteration count (the paper's example: 1000).
    pub iterations: u32,
}

impl PasswordHasher {
    /// Default iteration count used throughout the repository, matching the
    /// paper's `h^1000` example.
    pub const DEFAULT_ITERATIONS: u32 = 1000;

    /// Create a hasher with an explicit iteration count.
    pub fn new(domain: impl Into<String>, iterations: u32) -> Self {
        Self {
            domain: domain.into(),
            iterations: iterations.max(1),
        }
    }

    /// Create a hasher with [`Self::DEFAULT_ITERATIONS`].
    pub fn with_default_iterations(domain: impl Into<String>) -> Self {
        Self::new(domain, Self::DEFAULT_ITERATIONS)
    }

    /// Build the salt for a given user identifier.
    ///
    /// The salt is `domain || 0x1f || user_id`, stored in the clear alongside
    /// the hash exactly as the paper describes for the user-identifier salt.
    pub fn salt_for(&self, user_id: &[u8]) -> Vec<u8> {
        let mut salt = Vec::with_capacity(self.domain.len() + 1 + user_id.len());
        salt.extend_from_slice(self.domain.as_bytes());
        salt.push(0x1f);
        salt.extend_from_slice(user_id);
        salt
    }

    /// Hash `message` for user `user_id`.
    pub fn hash(&self, user_id: &[u8], message: &[u8]) -> PasswordHash {
        let salt = self.salt_for(user_id);
        let digest = iterated_hash(&salt, message, self.iterations);
        PasswordHash {
            salt,
            iterations: self.iterations,
            digest,
        }
    }

    /// Hash `message` for user `user_id`, returning only the digest.
    ///
    /// Useful for attack simulations where millions of candidate digests are
    /// compared against a known stored digest.
    pub fn digest_only(&self, user_id: &[u8], message: &[u8]) -> Digest {
        iterated_hash(&self.salt_for(user_id), message, self.iterations)
    }

    /// Precompute the per-user [`SaltedHasher`] so repeated hashing for one
    /// account (login verification, per-target guess loops) pays the salt
    /// setup once.
    pub fn salted(&self, user_id: &[u8]) -> SaltedHasher {
        SaltedHasher::new(&self.salt_for(user_id))
    }

    /// Batched [`PasswordHasher::digest_only`]: digests of many candidate
    /// messages for one user, through the multi-lane fast path.
    pub fn digest_many(&self, user_id: &[u8], messages: &[&[u8]]) -> Vec<Digest> {
        self.salted(user_id)
            .iterated_many(messages, self.iterations)
    }
}

impl PasswordHash {
    /// Verify that this hash was produced by `hasher` for `user_id` and
    /// `message`.  Checks the salt and iteration count as well as the digest.
    pub fn verify_with(&self, hasher: &PasswordHasher, user_id: &[u8], message: &[u8]) -> bool {
        self.iterations == hasher.iterations
            && self.salt == hasher.salt_for(user_id)
            && self.verify(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_iterations_treated_as_one() {
        assert_eq!(iterated_hash(b"s", b"m", 0), iterated_hash(b"s", b"m", 1));
        // The clamp holds on every code path: reference, scalar fast path,
        // and the batched lanes.
        assert_eq!(
            iterated_hash_reference(b"s", b"m", 0),
            iterated_hash(b"s", b"m", 0)
        );
        assert_eq!(
            iterated_hash_many(b"s", &[b"m"], 0),
            vec![iterated_hash(b"s", b"m", 1)]
        );
    }

    #[test]
    fn empty_salt_takes_the_one_block_path_and_matches_reference() {
        let hasher = SaltedHasher::new(b"");
        assert_eq!(hasher.blocks_per_round(), 1, "empty salt must be one-shot");
        for iterations in [0u32, 1, 2, 7, 100] {
            assert_eq!(
                hasher.iterated(b"message", iterations),
                iterated_hash_reference(b"", b"message", iterations),
                "iterations {iterations}"
            );
        }
        // And the first round with an empty message too.
        assert_eq!(
            iterated_hash(b"", b"", 3),
            iterated_hash_reference(b"", b"", 3)
        );
    }

    #[test]
    fn optimized_matches_reference_across_salt_length_regimes() {
        // 23 is the one-block boundary, 64 the full-block boundary, 87 the
        // two-block boundary; probe each side of all three.
        let message = b"a discretized password pre-image that spans multiple blocks....";
        for salt_len in [0usize, 1, 22, 23, 24, 55, 63, 64, 65, 87, 88, 128, 200] {
            let salt: Vec<u8> = (0..salt_len).map(|i| (i * 7 % 251) as u8).collect();
            let hasher = SaltedHasher::new(&salt);
            let expected_blocks = (salt_len % 64 + DIGEST_LEN + 9).div_ceil(64);
            assert_eq!(
                hasher.blocks_per_round(),
                expected_blocks,
                "salt {salt_len}"
            );
            for iterations in [1u32, 2, 3, 50] {
                let expected = iterated_hash_reference(&salt, message, iterations);
                for sha_ni in [None, ShaNi::detect()] {
                    assert_eq!(
                        hasher.iterated_with(sha_ni, message, iterations),
                        expected,
                        "salt {salt_len}, iterations {iterations}, SHA-NI {}",
                        sha_ni.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn many_matches_scalar_for_every_batch_size() {
        let salt = b"gp-passwords/v1\x1falice";
        let messages: Vec<Vec<u8>> = (0..11)
            .map(|i| (0..40 + i).map(|j| ((i * 91 + j) % 251) as u8).collect())
            .collect();
        for count in 0..=messages.len() {
            let refs: Vec<&[u8]> = messages[..count].iter().map(Vec::as_slice).collect();
            let scalar: Vec<_> = refs
                .iter()
                .map(|m| iterated_hash_reference(salt, m, 37))
                .collect();
            let hasher = SaltedHasher::new(salt);
            let mut batched = Vec::new();
            for sha_ni in [None, ShaNi::detect()] {
                hasher.iterated_many_with(sha_ni, &refs, 37, &mut batched);
                assert_eq!(
                    batched,
                    scalar,
                    "batch of {count}, SHA-NI {}",
                    sha_ni.is_some()
                );
            }
        }
    }

    #[test]
    fn lane_sweep_is_bit_identical() {
        let salt = b"bench-salt";
        let messages: Vec<Vec<u8>> = (0..9).map(|i| vec![i as u8; 30]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let hasher = SaltedHasher::new(salt);
        let expected = hasher.iterated_many(&refs, 25);
        for_each_lane_count(&hasher, &refs, 25, &expected);
    }

    fn for_each_lane_count(
        hasher: &SaltedHasher,
        messages: &[&[u8]],
        iterations: u32,
        expected: &[Digest],
    ) {
        let mut out = Vec::new();
        hasher.iterated_many_lanes_into::<1>(messages, iterations, &mut out);
        assert_eq!(out, expected, "1 lane");
        hasher.iterated_many_lanes_into::<2>(messages, iterations, &mut out);
        assert_eq!(out, expected, "2 lanes");
        hasher.iterated_many_lanes_into::<8>(messages, iterations, &mut out);
        assert_eq!(out, expected, "8 lanes");
    }

    #[test]
    fn many_salted_matches_scalar_across_batch_sizes_and_salt_lengths() {
        // Salt lengths straddle the one-block/two-block boundary (23 bytes)
        // so the bucketing by blocks_per_round is exercised inside a single
        // batch, and batch sizes straddle the LANES remainder path and the
        // SHA-NI 4-stream tails.  Both kernels run, so a SHA-NI host still
        // checks the portable dispatch.
        let salts: Vec<Vec<u8>> = (0..40)
            .map(|i| {
                (0..(i * 5) % 41)
                    .map(|j| ((i * 31 + j) % 251) as u8)
                    .collect()
            })
            .collect();
        let messages: Vec<Vec<u8>> = (0..40)
            .map(|i| (0..30 + i).map(|j| ((i * 17 + j) % 251) as u8).collect())
            .collect();
        let hashers: Vec<SaltedHasher> = salts.iter().map(|s| SaltedHasher::new(s)).collect();
        for count in [0usize, 1, 2, 3, 4, 5, 7, 15, 16, 17, 33, 40] {
            let hasher_refs: Vec<&SaltedHasher> = hashers[..count].iter().collect();
            let msg_refs: Vec<&[u8]> = messages[..count].iter().map(Vec::as_slice).collect();
            for iterations in [0u32, 1, 2, 29] {
                let scalar: Vec<Digest> = (0..count)
                    .map(|i| iterated_hash_reference(&salts[i], &messages[i], iterations))
                    .collect();
                let mut batched = Vec::new();
                for sha_ni in [None, ShaNi::detect()] {
                    many_salted_into(sha_ni, &hasher_refs, &msg_refs, iterations, &mut batched);
                    assert_eq!(
                        batched,
                        scalar,
                        "batch of {count}, {iterations} iterations, SHA-NI {}",
                        sha_ni.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn many_salted_into_reuses_the_output_buffer() {
        let a = SaltedHasher::new(b"salt-a");
        let b = SaltedHasher::new(b"salt-b-that-is-much-longer-than-one-block-boundary");
        let mut out = Vec::with_capacity(8);
        iterated_hash_many_salted_into(&[&a, &b], &[b"m1", b"m2"], 5, &mut out);
        assert_eq!(out.len(), 2);
        let capacity = out.capacity();
        iterated_hash_many_salted_into(&[&b], &[b"m3"], 5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.capacity(), capacity, "no reallocation on reuse");
        assert_eq!(
            out[0],
            iterated_hash(
                b"salt-b-that-is-much-longer-than-one-block-boundary",
                b"m3",
                5
            )
        );
    }

    #[test]
    #[should_panic(expected = "one salted hasher per message")]
    fn many_salted_rejects_mismatched_lengths() {
        let h = SaltedHasher::new(b"s");
        iterated_hash_many_salted(&[&h], &[], 3);
    }

    #[test]
    fn iterated_many_into_reuses_the_output_buffer() {
        let hasher = SaltedHasher::new(b"s");
        let mut out = Vec::with_capacity(8);
        hasher.iterated_many_into(&[b"a", b"b", b"c"], 5, &mut out);
        assert_eq!(out.len(), 3);
        let capacity = out.capacity();
        hasher.iterated_many_into(&[b"d", b"e"], 5, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out.capacity(), capacity, "no reallocation on reuse");
        assert_eq!(out[0], iterated_hash(b"s", b"d", 5));
    }

    #[test]
    fn salted_password_hasher_agrees_with_digest_only() {
        let hasher = PasswordHasher::new("test", 40);
        let salted = hasher.salted(b"carol");
        assert_eq!(
            salted.iterated(b"pre-image", 40),
            hasher.digest_only(b"carol", b"pre-image")
        );
        assert_eq!(
            hasher.digest_many(b"carol", &[b"g1", b"g2", b"g3", b"g4", b"g5"]),
            vec![
                hasher.digest_only(b"carol", b"g1"),
                hasher.digest_only(b"carol", b"g2"),
                hasher.digest_only(b"carol", b"g3"),
                hasher.digest_only(b"carol", b"g4"),
                hasher.digest_only(b"carol", b"g5"),
            ]
        );
    }

    #[test]
    fn iteration_counts_give_distinct_digests() {
        let d1 = iterated_hash(b"s", b"m", 1);
        let d2 = iterated_hash(b"s", b"m", 2);
        let d1000 = iterated_hash(b"s", b"m", 1000);
        assert_ne!(d1, d2);
        assert_ne!(d2, d1000);
        assert_ne!(d1, d1000);
    }

    #[test]
    fn salt_changes_digest() {
        assert_ne!(
            iterated_hash(b"salt-a", b"m", 10),
            iterated_hash(b"salt-b", b"m", 10)
        );
    }

    #[test]
    fn iterated_is_composition_of_single_rounds() {
        // h^3(m) must equal manually chaining three salted rounds.
        let salt = b"salty";
        let msg = b"message";
        let step1 = iterated_hash(salt, msg, 1);
        let step2 = {
            let mut h = Sha256::new();
            h.update(salt);
            h.update(&step1);
            h.finalize()
        };
        let step3 = {
            let mut h = Sha256::new();
            h.update(salt);
            h.update(&step2);
            h.finalize()
        };
        assert_eq!(iterated_hash(salt, msg, 3), step3);
    }

    #[test]
    fn password_hash_verify() {
        let hasher = PasswordHasher::new("test", 50);
        let stored = hasher.hash(b"user-7", b"the password bytes");
        assert!(stored.verify(b"the password bytes"));
        assert!(!stored.verify(b"not the password"));
        assert!(stored.verify_with(&hasher, b"user-7", b"the password bytes"));
        assert!(!stored.verify_with(&hasher, b"user-8", b"the password bytes"));
    }

    #[test]
    fn verify_with_rejects_wrong_iteration_count() {
        let hasher = PasswordHasher::new("test", 50);
        let other = PasswordHasher::new("test", 51);
        let stored = hasher.hash(b"u", b"m");
        assert!(!stored.verify_with(&other, b"u", b"m"));
    }

    #[test]
    fn record_round_trip() {
        let hasher = PasswordHasher::with_default_iterations("passpoints");
        let stored = hasher.hash(b"alice", b"secret");
        let record = stored.to_record();
        let parsed = PasswordHash::from_record(&record).expect("parse");
        assert_eq!(parsed, stored);
        assert!(parsed.verify(b"secret"));
    }

    #[test]
    fn record_parse_rejects_garbage() {
        assert!(PasswordHash::from_record("").is_none());
        assert!(PasswordHash::from_record("abc").is_none());
        assert!(PasswordHash::from_record("10$zz$aabb").is_none());
        assert!(PasswordHash::from_record("10$aa$deadbeef").is_none()); // digest too short
        assert!(PasswordHash::from_record("notanumber$aa$bb").is_none());
    }

    #[test]
    fn domain_separation() {
        let a = PasswordHasher::new("passpoints", 10);
        let b = PasswordHasher::new("netauth", 10);
        assert_ne!(a.digest_only(b"user", b"m"), b.digest_only(b"user", b"m"));
    }

    #[test]
    fn default_iterations_match_paper_example() {
        assert_eq!(PasswordHasher::DEFAULT_ITERATIONS, 1000);
        let h = PasswordHasher::with_default_iterations("x");
        assert_eq!(h.iterations, 1000);
    }
}
