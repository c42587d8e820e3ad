//! SHA-256 compression on the x86 SHA extensions ("SHA-NI") for 1–4
//! interleaved streams.
//!
//! `sha256rnds2` does two rounds of one chain per instruction, so a single
//! chain is bound by that instruction's latency.  Interleaving up to four
//! independent chains (four login attempts, four guesses) fills the gaps,
//! without the padded lanes the portable 16-lane kernel needs when a batch
//! is short.
//!
//! This is the crate's only `unsafe` module.  The kernel is compiled with
//! `#[target_feature]`, so calling it on a CPU without those features is
//! undefined behaviour; it is reachable only through a [`ShaNi`] token,
//! and the only way to get one is [`ShaNi::detect`], which checks the
//! features at run time.  The remaining `unsafe` is the unaligned 16-byte
//! loads and stores the intrinsics take raw pointers for.

use crate::sha256::BLOCK_LEN;

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

    /// Absorb one 64-byte block into each of `N` independent states, the
    /// `N` chains interleaved instruction by instruction.
    ///
    /// Bit-identical to calling the portable compression once per stream.
    /// `N` must be 1 to 4 (checked at compile time): past four, the
    /// streams' working sets no longer fit the 16 vector registers.
    pub fn compress<const N: usize>(
        self,
        states: &mut [[u32; 8]; N],
        blocks: [&[u8; BLOCK_LEN]; N],
    ) {
        const { assert!(N >= 1 && N <= 4, "SHA-NI kernel interleaves 1 to 4 streams") };
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `ShaNi` exists only when `detect` found every feature
        // `x86::compress` enables.
        unsafe {
            x86::compress(states, blocks)
        };
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (states, blocks);
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

    /// The SHA-256 compression function for `N` interleaved streams.
    ///
    /// Working state is kept in the `ABEF`/`CDGH` register layout
    /// `sha256rnds2` expects; the message schedule in four 4-word vectors
    /// per stream, rotated in place by `sha256msg1`/`sha256msg2`.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress<const N: usize>(
        states: &mut [[u32; 8]; N],
        blocks: [&[u8; BLOCK_LEN]; N],
    ) {
        let mut abef = [_mm_setzero_si128(); N];
        let mut cdgh = [_mm_setzero_si128(); N];
        let mut w = [[_mm_setzero_si128(); 4]; N];
        // Byte order: every big-endian message word swapped within its lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for s in 0..N {
            let st = &states[s];
            let dcba = _mm_set_epi32(st[3] as i32, st[2] as i32, st[1] as i32, st[0] as i32);
            let hgfe = _mm_set_epi32(st[7] as i32, st[6] as i32, st[5] as i32, st[4] as i32);
            let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
            let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
            abef[s] = _mm_alignr_epi8::<8>(cdab, efgh);
            cdgh[s] = _mm_blend_epi16::<0xf0>(efgh, cdab);
            for (j, word) in w[s].iter_mut().enumerate() {
                // SAFETY: `blocks[s]` is 64 bytes and `j < 4`, so the
                // 16-byte read at `16 * j` is in bounds; `loadu` needs no
                // alignment.
                let raw = unsafe { _mm_loadu_si128(blocks[s].as_ptr().add(16 * j).cast()) };
                *word = _mm_shuffle_epi8(raw, bswap);
            }
        }
        let (abef_in, cdgh_in) = (abef, cdgh);

        quad::<N, 0>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 1>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 2>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 3>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 4>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 5>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 6>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 7>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 8>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 9>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 10>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 11>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 12>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 13>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 14>(&mut abef, &mut cdgh, &mut w);
        quad::<N, 15>(&mut abef, &mut cdgh, &mut w);

        for s in 0..N {
            let abef = _mm_add_epi32(abef[s], abef_in[s]);
            let cdgh = _mm_add_epi32(cdgh[s], cdgh_in[s]);
            let feba = _mm_shuffle_epi32::<0x1b>(abef);
            let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
            let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
            let hgef = _mm_alignr_epi8::<8>(dchg, feba);
            let out = states[s].as_mut_ptr().cast::<__m128i>();
            // SAFETY: `states[s]` is 32 bytes, written as two unaligned
            // 16-byte halves.
            unsafe {
                _mm_storeu_si128(out, dcba);
                _mm_storeu_si128(out.add(1), hgef);
            }
        }
    }

    /// Rounds `4Q..4Q+4` for every stream.  From `Q = 4` on, the round's
    /// four message words are first scheduled into the vector they replace.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn quad<const N: usize, const Q: usize>(
        abef: &mut [__m128i; N],
        cdgh: &mut [__m128i; N],
        w: &mut [[__m128i; 4]; N],
    ) {
        let k = _mm_set_epi32(
            K[4 * Q + 3] as i32,
            K[4 * Q + 2] as i32,
            K[4 * Q + 1] as i32,
            K[4 * Q] as i32,
        );
        for s in 0..N {
            let w = &mut w[s];
            if Q >= 4 {
                let (w0, w1, w2, w3) = (w[Q % 4], w[(Q + 1) % 4], w[(Q + 2) % 4], w[(Q + 3) % 4]);
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                w[Q % 4] = _mm_sha256msg2_epu32(sum, w3);
            }
            let wk = _mm_add_epi32(w[Q % 4], k);
            cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
            abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32::<0x0e>(wk));
        }
    }
}
