//! The iterated hash `h^k` on the x86 SHA extensions ("SHA-NI"): one fused
//! round loop for 1–4 interleaved chains.
//!
//! `sha256rnds2` does two rounds of one chain per instruction, so a single
//! chain is bound by that instruction's latency.  Interleaving up to four
//! independent chains (four login attempts, four guesses) fills the gaps,
//! without the padded lanes the portable 16-lane kernel needs when a batch
//! is short.
//!
//! # What stays in registers
//!
//! [`ShaNi::iterate`] runs every round of a chain in one call.  Each
//! chain's salt midstate is loaded into the `ABEF`/`CDGH` layout
//! `sha256rnds2` works in once per call and stays there.  Each round
//! starts from it, runs the 16 quads of rounds per block from register
//! state, and writes the new digest into the digest slot of the chain's
//! padded round buffer with two byte-swapped 16-byte stores; the next
//! round's block loads read it back.  Nothing else is stored per round:
//! no state array, no digest copy, no call per block (beyond the stack
//! spills of 3–4 chains, whose working set exceeds the 16 vector
//! registers).  The round buffers are the caller's, and the digest slot
//! may sit anywhere a salt tail puts it: in a one-block round, in block 0
//! of a two-block round, or straddling the two.  When block 1 holds no
//! digest bytes (salt tails of 24 to 32 bytes, the serving salts), its
//! message schedule `W + K` is computed once per call instead of once per
//! round.
//!
//! # Copies stay outside the kernel
//!
//! The kernel uses the legacy-SSE encoded SHA instructions.  In a build
//! whose baseline includes AVX (the repository pins `x86-64-v3`), LLVM may
//! lower a 32-byte copy or a zero-fill to 256-bit `vmovdqu ymm`, which
//! leaves the upper halves of the vector registers dirty; every legacy-SSE
//! instruction after that pays a transition penalty, measured at ~100×
//! for the whole loop.  So the kernel's `#[target_feature]` function
//! moves no arrays: the caller copies the round buffers and digests in
//! and out, and LLVM emits `vzeroupper` at the call boundary.  The kernel
//! does not call `_mm256_zeroupper` either: that is an AVX instruction,
//! which [`ShaNi::detect`] does not check and the plain `x86-64` build
//! does not enable.  `bench_report` fails when the single-chain SHA-NI
//! row is not well below the portable scalar chain, which catches a
//! regression of this kind.
//!
//! # Safety
//!
//! This is the crate's only `unsafe` module.  The kernel is compiled with
//! `#[target_feature]`, so calling it on a CPU without those features is
//! undefined behaviour; it is reachable only through a [`ShaNi`] token,
//! and the only way to get one is [`ShaNi::detect`], which checks the
//! features at run time.  The remaining `unsafe` is the unaligned 16-byte
//! loads and stores the intrinsics take raw pointers for, whose bounds
//! [`ShaNi::iterate`] checks before entering the kernel.

use crate::sha256::{BLOCK_LEN, DIGEST_LEN};

/// Proof that the running CPU has the SHA extensions together with SSE2,
/// SSSE3 and SSE4.1, the features the kernel is compiled for.
///
/// Zero-sized and `Copy`; obtain one with [`ShaNi::detect`].  Off x86-64
/// the type is uninhabited and `detect` always returns `None`.
#[derive(Clone, Copy, Debug)]
pub struct ShaNi(Witness);

#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
struct Witness;

#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
enum Witness {}

impl ShaNi {
    /// Return a token if the running CPU supports the kernel, else `None`.
    ///
    /// The feature checks are cached by the standard library after the
    /// first call, so this is cheap enough to call once per hash call.
    pub fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
        {
            return Some(Self(Witness));
        }
        None
    }

    /// Run `rounds` rounds of `N` interleaved iterated-hash chains.
    ///
    /// Each round, chain `s` compresses the first `blocks` 64-byte blocks of
    /// `buffers[s]` starting from `midstates[s]`, then writes the resulting
    /// 32-byte digest into `buffers[s][digest_offsets[s]..][..32]`, where the
    /// next round reads it.  After the call each chain's digest slot holds
    /// its last round's digest (or is untouched when `rounds` is 0).
    ///
    /// Bit-identical to that loop over the portable compression.  `N` must
    /// be 1 to 4 (checked at compile time): past four, the chains' working
    /// sets no longer fit the 16 vector registers.
    ///
    /// # Panics
    ///
    /// If `blocks` is not 1 or 2, or a digest slot does not lie within the
    /// first `blocks` blocks of its buffer.
    pub fn iterate<const N: usize>(
        self,
        midstates: &[[u32; 8]; N],
        buffers: &mut [[u8; 2 * BLOCK_LEN]; N],
        digest_offsets: &[usize; N],
        blocks: usize,
        rounds: u32,
    ) {
        const { assert!(N >= 1 && N <= 4, "SHA-NI kernel interleaves 1 to 4 chains") };
        assert!(
            blocks == 1 || blocks == 2,
            "a round is 1 or 2 blocks, not {blocks}"
        );
        for &offset in digest_offsets {
            assert!(
                offset <= blocks * BLOCK_LEN - DIGEST_LEN,
                "digest slot at {offset} overruns a {blocks}-block round"
            );
        }
        // Two blocks with every digest wholly in block 0 (salt tails of 24
        // to 32 bytes): block 1 never changes.
        let fixed_tail = blocks == 2 && digest_offsets.iter().all(|&o| o + DIGEST_LEN <= BLOCK_LEN);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `ShaNi` exists only when `detect` found every feature
        // `x86::iterate` enables, and every digest slot was checked above
        // to lie within the round's blocks.
        unsafe {
            match (blocks, fixed_tail) {
                (1, _) => x86::iterate::<N, 1, false>(midstates, buffers, digest_offsets, rounds),
                (_, true) => x86::iterate::<N, 2, true>(midstates, buffers, digest_offsets, rounds),
                (_, false) => {
                    x86::iterate::<N, 2, false>(midstates, buffers, digest_offsets, rounds)
                }
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (midstates, buffers, digest_offsets, rounds, fixed_tail);
            match self.0 {}
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::sha256::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Bytes per chain in the `buffers` argument: one round's two blocks.
    const ROUND: usize = 2 * BLOCK_LEN;

    /// Absorb one block into every chain's `ABEF`/`CDGH` state: the 16
    /// quads of rounds, scheduling the message words `$w` as they go, then
    /// the feed-forward.
    ///
    /// A macro, not a function: a `#[target_feature]` function cannot be
    /// `#[inline(always)]`, and LLVM declines to inline a body this size
    /// that has several callers, which would pass every chain's state and
    /// words through memory once per block.
    macro_rules! compress {
        ($n:ident, $abef:ident, $cdgh:ident, $w:expr) => {{
            let mut w = $w;
            let (abef_in, cdgh_in) = ($abef, $cdgh);
            quad::<$n, 0>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 1>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 2>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 3>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 4>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 5>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 6>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 7>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 8>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 9>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 10>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 11>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 12>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 13>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 14>(&mut $abef, &mut $cdgh, &mut w);
            quad::<$n, 15>(&mut $abef, &mut $cdgh, &mut w);
            for s in 0..$n {
                $abef[s] = _mm_add_epi32($abef[s], abef_in[s]);
                $cdgh[s] = _mm_add_epi32($cdgh[s], cdgh_in[s]);
            }
        }};
    }

    /// `N` chains of `rounds` iterated-hash rounds, each round `BLOCKS`
    /// compressions from the chain's midstate, the digest written back into
    /// the chain's round buffer.  `FIXED_TAIL` (correct only for two blocks
    /// with every digest wholly in block 0) computes block 1's message
    /// schedule `W + K` once per call, since that block never changes.
    ///
    /// The midstates are loaded into the `ABEF`/`CDGH` register layout
    /// `sha256rnds2` expects once per call.  Per round, the loop reads the
    /// blocks and writes the digest's two 16-byte halves; at 3–4 chains
    /// the working set exceeds the 16 vector registers, and LLVM spills
    /// part of it to the stack.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`, and
    /// `digest_offsets[s] + 32 <= BLOCKS * 64` must hold for every chain.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn iterate<const N: usize, const BLOCKS: usize, const FIXED_TAIL: bool>(
        midstates: &[[u32; 8]; N],
        buffers: &mut [[u8; ROUND]; N],
        digest_offsets: &[usize; N],
        rounds: u32,
    ) {
        // Byte order: every big-endian message word swapped within its lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // One pointer for every buffer, so the loads and the digest stores
        // share its provenance; chain `s` starts at `ROUND * s`.
        let base = buffers.as_mut_ptr().cast::<u8>();
        let load_block = |b: usize| -> [[__m128i; 4]; N] {
            core::array::from_fn(|s| {
                core::array::from_fn(|j| {
                    // SAFETY: `b < BLOCKS <= 2` and `j < 4`, so the 16-byte
                    // read at `64 * b + 16 * j` lies within chain `s`'s
                    // buffer; `loadu` needs no alignment.
                    let raw = unsafe {
                        _mm_loadu_si128(base.add(ROUND * s + BLOCK_LEN * b + 16 * j).cast())
                    };
                    _mm_shuffle_epi8(raw, bswap)
                })
            })
        };

        let mut abef_in = [_mm_setzero_si128(); N];
        let mut cdgh_in = [_mm_setzero_si128(); N];
        for s in 0..N {
            let st = &midstates[s];
            let dcba = _mm_set_epi32(st[3] as i32, st[2] as i32, st[1] as i32, st[0] as i32);
            let hgfe = _mm_set_epi32(st[7] as i32, st[6] as i32, st[5] as i32, st[4] as i32);
            let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
            let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
            abef_in[s] = _mm_alignr_epi8::<8>(cdab, efgh);
            cdgh_in[s] = _mm_blend_epi16::<0xf0>(efgh, cdab);
        }
        let tail_wk = if FIXED_TAIL {
            schedule(load_block(1))
        } else {
            [[_mm_setzero_si128(); N]; 16]
        };

        for _ in 0..rounds {
            let (mut abef, mut cdgh) = (abef_in, cdgh_in);
            compress!(N, abef, cdgh, load_block(0));
            if FIXED_TAIL {
                compress_scheduled(&mut abef, &mut cdgh, &tail_wk);
            } else if BLOCKS == 2 {
                compress!(N, abef, cdgh, load_block(1));
            }
            for s in 0..N {
                // Back to `DCBA`/`HGFE` word order, then each word to big
                // endian: the digest's two 16-byte halves.
                let feba = _mm_shuffle_epi32::<0x1b>(abef[s]);
                let dchg = _mm_shuffle_epi32::<0xb1>(cdgh[s]);
                let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
                let hgef = _mm_alignr_epi8::<8>(dchg, feba);
                // SAFETY: the caller guarantees `digest_offsets[s] + 32`
                // is at most `64 * BLOCKS`, within chain `s`'s buffer.
                unsafe {
                    let slot = base.add(ROUND * s + digest_offsets[s]).cast::<__m128i>();
                    _mm_storeu_si128(slot, _mm_shuffle_epi8(dcba, bswap));
                    _mm_storeu_si128(slot.add(1), _mm_shuffle_epi8(hgef, bswap));
                }
            }
        }
    }

    /// [`compress!`] for a block whose schedule `W + K` is precomputed.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_scheduled<const N: usize>(
        abef: &mut [__m128i; N],
        cdgh: &mut [__m128i; N],
        wk: &[[__m128i; N]; 16],
    ) {
        let (abef_in, cdgh_in) = (*abef, *cdgh);
        for wk in wk {
            for s in 0..N {
                rounds4(&mut abef[s], &mut cdgh[s], wk[s]);
            }
        }
        for s in 0..N {
            abef[s] = _mm_add_epi32(abef[s], abef_in[s]);
            cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_in[s]);
        }
    }

    /// The full schedule `W + K` of one block per chain.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule<const N: usize>(mut w: [[__m128i; 4]; N]) -> [[__m128i; N]; 16] {
        // Built element by element, in order: a zero-filled array would be
        // a memset, which the AVX2 build emits as 32-byte stores.
        macro_rules! quads {
            ($($q:literal)*) => {[$(
                core::array::from_fn(|s| schedule_quad::<$q>(&mut w[s])),
            )*]};
        }
        quads!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    }

    /// Rounds `4Q..4Q+4` for every chain.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn quad<const N: usize, const Q: usize>(
        abef: &mut [__m128i; N],
        cdgh: &mut [__m128i; N],
        w: &mut [[__m128i; 4]; N],
    ) {
        for s in 0..N {
            let wk = schedule_quad::<Q>(&mut w[s]);
            rounds4(&mut abef[s], &mut cdgh[s], wk);
        }
    }

    /// `W + K` for rounds `4Q..4Q+4`.  From `Q = 4` on, the four message
    /// words are first scheduled into the vector they replace.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule_quad<const Q: usize>(w: &mut [__m128i; 4]) -> __m128i {
        if Q >= 4 {
            let (w0, w1, w2, w3) = (w[Q % 4], w[(Q + 1) % 4], w[(Q + 2) % 4], w[(Q + 3) % 4]);
            let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            w[Q % 4] = _mm_sha256msg2_epu32(sum, w3);
        }
        let k = _mm_set_epi32(
            K[4 * Q + 3] as i32,
            K[4 * Q + 2] as i32,
            K[4 * Q + 1] as i32,
            K[4 * Q] as i32,
        );
        _mm_add_epi32(w[Q % 4], k)
    }

    /// Four rounds of one chain, `wk` holding their `W + K`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, wk: __m128i) {
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }
}
