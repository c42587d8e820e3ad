//! From-scratch cryptographic primitives used by the graphical password
//! system described in *Centered Discretization with Application to
//! Graphical Passwords* (Chiasson et al., UPSEC 2008).
//!
//! The paper requires that discretized click-points (grid-square
//! identifiers) be stored only in cryptographically hashed form, optionally
//! salted with a user identifier and strengthened with iterated hashing
//! ("using h^1000 effectively adds 10 bits of security").  This crate
//! provides everything needed for that storage layer, implemented from
//! scratch so that the reproduction has no external cryptographic
//! dependencies:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 with an incremental [`Sha256`] hasher,
//!   a single-compression fast path for one-block messages, and a reusable
//!   [`Midstate`] for fixed prefixes (salts).
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104) used for keyed integrity checks in
//!   the networked authentication substrate.
//! * [`iterated`] — iterated ("stretched") hashing `h^k`: the single-chain
//!   one-shot/midstate path ([`SaltedHasher`]), the batched paths
//!   ([`iterated_hash_many`], [`iterated_hash_many_salted`]) that advance
//!   independent chains through one interleaved kernel, and a convenience
//!   [`PasswordHasher`] combining salt, personalization and iteration count.
//! * [`sha_ni`] — the SHA-256 compression on the x86 SHA extensions for 1–4
//!   interleaved streams, reachable only through a runtime-detected
//!   [`ShaNi`] token; the crate's only `unsafe` code.
//! * [`hex`] — lower-case hexadecimal encoding/decoding for serialized
//!   password files.
//! * [`ct`] — constant-time equality for hash comparison during login.
//!
//! # Kernel selection
//!
//! Each iterated-hash call picks its compression kernel once, before its
//! rounds loop, by run-time detection alone ([`active_kernel`] names it):
//!
//! * **SHA-NI** when the CPU has it: one stream for
//!   [`SaltedHasher::iterated`]; four streams per call with a 1–3-stream
//!   tail for the batched paths, so a short batch pays for no idle lanes.
//! * **Portable** otherwise: the scalar chain for single hashes, and the
//!   auto-vectorized [`LANES`]-lane kernel (short tails padded or scalar)
//!   for batches.
//!
//! Both produce bit-identical digests, so stored records do not depend on
//! the host that wrote them.  [`iterated_hash_reference`], [`Sha256`],
//! [`Midstate`] and the bench-only
//! [`SaltedHasher::iterated_many_lanes_into`] always run portable code; the
//! reference is the specification every kernel is tested against.
//!
//! There is no AVX-512 kernel: h^3000 under the serving salt shape
//! measured 384 µs per message on SHA-NI ×4 against 341 µs for the portable
//! 16-lane kernel built for `x86-64-v4`, and SHA-NI also serves the batch
//! sizes of 1–15 that a 16-lane kernel pads.
//!
//! # Example
//!
//! ```
//! use gp_crypto::{sha256::Sha256, hex};
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ct;
pub mod hex;
pub mod hmac;
pub mod iterated;
pub mod sha256;
#[allow(unsafe_code)]
pub mod sha_ni;

pub use ct::ct_eq;
pub use hmac::HmacSha256;
pub use iterated::{
    active_kernel, iterated_hash, iterated_hash_many, iterated_hash_many_salted,
    iterated_hash_many_salted_into, iterated_hash_reference, PasswordHash, PasswordHasher,
    SaltedHasher, LANES,
};
pub use sha256::{Digest, Midstate, Sha256, DIGEST_LEN};
pub use sha_ni::ShaNi;
