//! Property-based tests for the crypto substrate.

use gp_crypto::sha256::compress;
use gp_crypto::{
    active_kernel, ct_eq, hex, iterated_hash, iterated_hash_many, iterated_hash_many_salted,
    iterated_hash_reference, HmacSha256, Midstate, PasswordHasher, SaltedHasher, Sha256, ShaNi,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Once;

/// The SHA-NI token, or `None` after printing (once per run) that this CPU
/// lacks SHA-NI, so the kernel-equivalence properties checked only the
/// portable path.
fn sha_ni() -> Option<ShaNi> {
    static NOTE: Once = Once::new();
    let ni = ShaNi::detect();
    if ni.is_none() {
        NOTE.call_once(|| {
            eprintln!(
                "SHA-NI not detected on this CPU: only the portable path ran; \
                 the SHA-NI kernel was not checked"
            );
        });
    }
    ni
}

/// `N` streams from the front of `states`/`blocks` through the SHA-NI
/// kernel, each checked against the portable compression.
fn sha_ni_matches_portable<const N: usize>(
    ni: ShaNi,
    states: &[u32],
    blocks: &[u8],
) -> Result<(), TestCaseError> {
    let mut lanes: [[u32; 8]; N] =
        core::array::from_fn(|s| states[8 * s..8 * s + 8].try_into().unwrap());
    let block_refs: [&[u8; 64]; N] =
        core::array::from_fn(|s| blocks[64 * s..64 * s + 64].try_into().unwrap());
    let mut expected = lanes;
    for (state, block) in expected.iter_mut().zip(block_refs) {
        compress(state, block);
    }
    ni.compress(&mut lanes, block_refs);
    prop_assert_eq!(lanes, expected, "{} streams", N);
    Ok(())
}

/// h^3000 under the serving salt shape (26 bytes, two blocks per round),
/// computed independently with Python's `hashlib`.
const H3000_SALT: &[u8] = b"gp-passwords/v1\x1fuser-00042";
const H3000_HEX: &str = "b41b6f2f1fd7916812682ae571fb6c5bf8a46fc2fb0e1cbbbff9beb1862bdd03";

#[test]
fn fixed_h3000_vector_on_every_path() {
    let message: Vec<u8> = (0u8..40).collect();
    let expected = hex::decode(H3000_HEX).unwrap();
    eprintln!("iterated-hash kernel: {}", active_kernel());
    assert_eq!(
        iterated_hash_reference(H3000_SALT, &message, 3000).to_vec(),
        expected
    );
    let hasher = SaltedHasher::new(H3000_SALT);
    assert_eq!(hasher.blocks_per_round(), 2);
    assert_eq!(hasher.iterated(&message, 3000).to_vec(), expected);
    // Five copies: one full 4-stream SHA-NI call plus a 1-stream tail.
    let batched = iterated_hash_many_salted(&[&hasher; 5], &[message.as_slice(); 5], 3000);
    for digest in batched {
        assert_eq!(digest.to_vec(), expected);
    }
}

proptest! {
    /// The SHA-NI kernel for every stream count is bit-identical to the
    /// portable compression on arbitrary states and blocks.
    #[test]
    fn sha_ni_compress_equals_portable(
        states in proptest::collection::vec(any::<u32>(), 32),
        blocks in proptest::collection::vec(any::<u8>(), 256),
    ) {
        if let Some(ni) = sha_ni() {
            sha_ni_matches_portable::<1>(ni, &states, &blocks)?;
            sha_ni_matches_portable::<2>(ni, &states, &blocks)?;
            sha_ni_matches_portable::<3>(ni, &states, &blocks)?;
            sha_ni_matches_portable::<4>(ni, &states, &blocks)?;
        }
    }

    /// The dispatched per-entry-salt batch path (the serving shape) is
    /// bit-identical to the reference on whichever kernel this CPU runs,
    /// over batch sizes 0–37 (full 4-stream calls, every tail, full and
    /// padded 16-lane passes) and salts of 0–140 bytes, so one batch mixes
    /// one- and two-block rounds and salts with full midstate blocks.
    #[test]
    fn dispatched_many_salted_equals_reference(
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..141),
             proptest::collection::vec(any::<u8>(), 0..80)),
            0..38),
        iterations in 1u32..7,
    ) {
        sha_ni();
        let hashers: Vec<SaltedHasher> = entries.iter().map(|(salt, _)| SaltedHasher::new(salt)).collect();
        let hasher_refs: Vec<&SaltedHasher> = hashers.iter().collect();
        let messages: Vec<&[u8]> = entries.iter().map(|(_, m)| m.as_slice()).collect();
        let expected: Vec<_> = entries
            .iter()
            .map(|(salt, m)| iterated_hash_reference(salt, m, iterations))
            .collect();
        prop_assert_eq!(iterated_hash_many_salted(&hasher_refs, &messages, iterations), expected);
    }

    /// The optimized one-shot/midstate scalar path is bit-identical to the
    /// reference implementation for arbitrary salt/message/iterations.
    #[test]
    fn iterated_hash_equals_reference(salt in proptest::collection::vec(any::<u8>(), 0..100),
                                      msg in proptest::collection::vec(any::<u8>(), 0..300),
                                      iterations in 0u32..40) {
        prop_assert_eq!(
            iterated_hash(&salt, &msg, iterations),
            iterated_hash_reference(&salt, &msg, iterations)
        );
    }

    /// The multi-lane batched path is bit-identical to the scalar path for
    /// arbitrary salts, message batches and iteration counts — the
    /// equivalence proof for the whole batched guess pipeline.
    #[test]
    fn iterated_hash_many_equals_scalar(
        salt in proptest::collection::vec(any::<u8>(), 0..80),
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120), 0..40),
        iterations in 0u32..24,
    ) {
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let batched = iterated_hash_many(&salt, &refs, iterations);
        let scalar: Vec<_> = refs
            .iter()
            .map(|m| iterated_hash_reference(&salt, m, iterations))
            .collect();
        prop_assert_eq!(batched, scalar);
    }

    /// Lane-width generic paths all agree with the default.
    #[test]
    fn lane_widths_agree(salt in proptest::collection::vec(any::<u8>(), 0..40),
                         messages in proptest::collection::vec(
                             proptest::collection::vec(any::<u8>(), 0..64), 1..20),
                         iterations in 1u32..12) {
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let hasher = SaltedHasher::new(&salt);
        let expected = hasher.iterated_many(&refs, iterations);
        let mut out = Vec::new();
        hasher.iterated_many_lanes_into::<2>(&refs, iterations, &mut out);
        prop_assert_eq!(&out, &expected);
        hasher.iterated_many_lanes_into::<8>(&refs, iterations, &mut out);
        prop_assert_eq!(&out, &expected);
    }

    /// A midstate split at any point of a message reproduces the one-shot
    /// digest.
    #[test]
    fn midstate_split_is_transparent(data in proptest::collection::vec(any::<u8>(), 0..400),
                                     split in 0usize..400) {
        let split = split.min(data.len());
        let midstate = Midstate::new(&data[..split]);
        prop_assert_eq!(midstate.digest_suffix(&data[split..]), Sha256::digest(&data));
    }
    /// Incremental hashing over arbitrary chunk boundaries must equal the
    /// one-shot digest.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                          split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Hex encoding round-trips arbitrary byte strings.
    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(encoded.len(), data.len() * 2);
        prop_assert_eq!(hex::decode(&encoded).unwrap(), data);
    }

    /// Constant-time equality agrees with `==`.
    #[test]
    fn ct_eq_matches_slice_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                              b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    /// ct_eq is reflexive.
    #[test]
    fn ct_eq_reflexive(a in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert!(ct_eq(&a, &a));
    }

    /// HMAC verification accepts the genuine tag and rejects a flipped bit.
    #[test]
    fn hmac_verify_and_tamper(key in proptest::collection::vec(any::<u8>(), 0..128),
                              msg in proptest::collection::vec(any::<u8>(), 0..256),
                              flip_byte in 0usize..32, flip_bit in 0u8..8) {
        let tag = HmacSha256::mac(&key, &msg);
        prop_assert!(HmacSha256::verify(&key, &msg, &tag));
        let mut bad = tag;
        bad[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!HmacSha256::verify(&key, &msg, &bad));
    }

    /// The password hasher verifies exactly the message it hashed.
    #[test]
    fn password_hash_round_trip(user in proptest::collection::vec(any::<u8>(), 0..32),
                                msg in proptest::collection::vec(any::<u8>(), 0..128),
                                iterations in 1u32..64) {
        let hasher = PasswordHasher::new("prop", iterations);
        let stored = hasher.hash(&user, &msg);
        prop_assert!(stored.verify(&msg));
        prop_assert!(stored.verify_with(&hasher, &user, &msg));
        // A different message of the same length must not verify.
        if !msg.is_empty() {
            let mut other = msg.clone();
            other[0] = other[0].wrapping_add(1);
            prop_assert!(!stored.verify(&other));
        }
    }

    /// Password-hash records survive serialization.
    #[test]
    fn password_record_round_trip(user in proptest::collection::vec(any::<u8>(), 0..16),
                                  msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let hasher = PasswordHasher::new("prop", 3);
        let stored = hasher.hash(&user, &msg);
        let parsed = gp_crypto::PasswordHash::from_record(&stored.to_record()).unwrap();
        prop_assert_eq!(parsed, stored);
    }

    /// Iterated hashing with distinct iteration counts never collides on the
    /// same (salt, message) pair — a regression guard against accidentally
    /// ignoring the iteration parameter.
    #[test]
    fn iterations_matter(salt in proptest::collection::vec(any::<u8>(), 0..16),
                         msg in proptest::collection::vec(any::<u8>(), 0..64),
                         k in 2u32..32) {
        prop_assert_ne!(iterated_hash(&salt, &msg, 1), iterated_hash(&salt, &msg, k));
    }
}
