//! A small, dependency-free SHA-1 implementation (FIPS 180-1).
//!
//! The paper generates node and object identifiers by hashing (MD5 or SHA-1).
//! SHA-1 is long broken for collision resistance, but identifier generation
//! only needs uniform dispersion, for which it remains perfectly adequate —
//! and it keeps identifiers bit-compatible with the systems the paper cites
//! (PRR, Pastry, Tapestry all use 160-bit hashed identifiers).
//!
//! On an x86-64 CPU with the SHA extensions each block runs through
//! `sha1rnds4` and its message-schedule companions; every other CPU runs
//! the portable rounds, which the tests hold the hardware ones to.

/// Incremental SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use hyperring_id::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xa9);
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len_bits: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len_bits: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len_bits = self.len_bits.wrapping_add((data.len() as u64) * 8);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = usize::min(64 - self.buf_len, rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks();
        for block in blocks {
            self.compress(block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the 20-byte digest.
    pub fn finalize(self) -> [u8; 20] {
        let buf = self.buf;
        let tail = &buf[..self.buf_len];
        self.finish(tail)
    }

    /// Pads the message's last `tail` bytes (fewer than 64, counted in
    /// `len_bits` already) with 0x80, zeros and the 64-bit big-endian bit
    /// length, in one stack block or two, and returns the digest.
    fn finish(mut self, tail: &[u8]) -> [u8; 20] {
        let mut block = [0u8; 64];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
        if tail.len() >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&self.len_bits.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; 20];
        for (o, word) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Runs one block through the SHA extensions where the CPU has them,
    /// else through the portable rounds.
    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            // SAFETY: `ni::compress` enables `sha` and `sse4.1` only, and the
            // CPU has just been found to support both.
            #[allow(unsafe_code)]
            unsafe {
                ni::compress(&mut self.state, block)
            };
            return;
        }
        self.compress_portable(block);
    }

    /// The portable compression function: 80 rounds over one block.
    fn compress_portable(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// The compression function on the x86-64 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32,
        _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_xor_si128,
    };

    /// As `Sha1::compress_portable`, in 20 groups of four rounds. A register
    /// holds four words with the first in its high lane: `a b c d` of the
    /// state, or four message words. `e` lives in a high lane of its own,
    /// and from the second group on `sha1nexte` derives it from `a` four
    /// rounds back while adding it to the group's words.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let word: [u32; 16] = std::array::from_fn(|i| {
            u32::from_be_bytes(block[4 * i..][..4].try_into().expect("4 bytes"))
        });
        let quad = |q: &[u32]| _mm_set_epi32(q[0] as i32, q[1] as i32, q[2] as i32, q[3] as i32);
        let mut w: [__m128i; 4] = std::array::from_fn(|g| quad(&word[4 * g..]));
        let abcd0 = quad(&state[..4]);
        let e0 = quad(&[state[4], 0, 0, 0]);

        let mut abcd = abcd0;
        let mut back = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e0, w[0]));
        for g in 1..5 {
            four::<0>(g, &mut w, &mut abcd, &mut back);
        }
        for g in 5..10 {
            four::<1>(g, &mut w, &mut abcd, &mut back);
        }
        for g in 10..15 {
            four::<2>(g, &mut w, &mut abcd, &mut back);
        }
        for g in 15..20 {
            four::<3>(g, &mut w, &mut abcd, &mut back);
        }
        let abcd = _mm_add_epi32(abcd, abcd0);
        let e = _mm_sha1nexte_epu32(back, e0);
        state[0] = _mm_extract_epi32::<3>(abcd) as u32;
        state[1] = _mm_extract_epi32::<2>(abcd) as u32;
        state[2] = _mm_extract_epi32::<1>(abcd) as u32;
        state[3] = _mm_extract_epi32::<0>(abcd) as u32;
        state[4] = _mm_extract_epi32::<3>(e) as u32;
    }

    /// Rounds `4g..4g + 4` with round function `F`, scheduling their words
    /// from the sixteen before them once the block's own are used up.
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    fn four<const F: i32>(g: usize, w: &mut [__m128i; 4], abcd: &mut __m128i, back: &mut __m128i) {
        if g >= 4 {
            let [w0, w1, w2, w3] = [g, g + 1, g + 2, g + 3].map(|i| w[i % 4]);
            w[g % 4] = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32(w0, w1), w2), w3);
        }
        let e = _mm_sha1nexte_epu32(*back, w[g % 4]);
        *back = *abcd;
        *abcd = _mm_sha1rnds4_epu32::<F>(*abcd, e);
    }
}

/// One-shot SHA-1 of `data`.
///
/// # Examples
///
/// ```
/// let d = hyperring_id::sha1(b"");
/// assert_eq!(d[..4], [0xda, 0x39, 0xa3, 0xee]);
/// ```
pub fn sha1(data: &[u8]) -> [u8; 20] {
    // Whole blocks straight from `data`; no copy through the buffer.
    let mut h = Sha1::new();
    let (blocks, tail) = data.as_chunks();
    for block in blocks {
        h.compress(block);
    }
    h.len_bits = (data.len() as u64).wrapping_mul(8);
    h.finish(tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn padding_edges_are_pinned() {
        // One- and two-block padding edges: 55 bytes is the longest message
        // whose length fits its last block, 119 the longest for two.
        let pinned = [
            (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (55, "8ae2d46729cfe68ff927af5eec9c7d1b66d65ac2"),
            (56, "636e2ec698dac903498e648bd2f3af641d3c88cb"),
            (63, "6d942da0c4392b123528f2905c713a3ce28364bd"),
            (64, "c6138d514ffa2135bfce0ed0b8fac65669917ec7"),
            (65, "69bd728ad6e13cd76ff19751fde427b00e395746"),
            (119, "41c89d06001bab4ab78736b44efe7ce18ce6ae08"),
            (120, "d3dbd653bd8597b7475321b60a36891278e6a04a"),
            (1000, "c9c960a0b925474fab83942cc27d504fc24ac37b"),
        ];
        for (n, digest) in pinned {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            assert_eq!(hex(&sha1(&data)), digest, "length {n}");
        }
    }

    /// Whether this CPU runs the hardware kernel; says so when it does not.
    fn has_sha_extensions() -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            return true;
        }
        eprintln!("no SHA extensions on this CPU: only the portable rounds ran");
        false
    }

    /// One-shot SHA-1 padded here and compressed by the portable rounds
    /// alone.
    fn portable_sha1(data: &[u8]) -> [u8; 20] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = Sha1::new();
        for block in msg.chunks_exact(64) {
            h.compress_portable(block.try_into().expect("64 bytes"));
        }
        let mut out = [0u8; 20];
        for (o, word) in out.chunks_exact_mut(4).zip(h.state) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn hardware_rounds_match_portable_rounds() {
        use rand::{Rng, SeedableRng};
        if !has_sha_extensions() {
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        for _ in 0..1000 {
            let mut block = [0u8; 64];
            rng.fill(&mut block[..]);
            let start: [u32; 5] = std::array::from_fn(|_| rng.gen());
            let (mut portable, mut hardware) = (Sha1::new(), Sha1::new());
            (portable.state, hardware.state) = (start, start);
            portable.compress_portable(&block);
            hardware.compress(&block);
            assert_eq!(
                hardware.state, portable.state,
                "block {block:02x?} from {start:08x?}"
            );
        }
    }

    #[test]
    fn digests_match_portable_reference() {
        has_sha_extensions();
        let data: Vec<u8> = (0..300u32).map(|i| (i * 37 % 256) as u8).collect();
        for n in 0..=300 {
            assert_eq!(sha1(&data[..n]), portable_sha1(&data[..n]), "length {n}");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(&data), "split at {split}");
        }
    }

    #[test]
    fn oneshot_matches_random_splits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let data: Vec<u8> = (0..300).map(|_| rng.gen()).collect();
        for n in 0..=300 {
            let mut h = Sha1::new();
            let mut rest = &data[..n];
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(rng.gen_range(0..=rest.len()));
                h.update(piece);
                rest = tail;
            }
            assert_eq!(sha1(&data[..n]), h.finalize(), "length {n}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Message lengths around the 55/56/64-byte padding boundaries.
        for n in 50..70usize {
            let data = vec![0xabu8; n];
            let d1 = sha1(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "length {n}");
        }
    }
}
