//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the only hash function used in the workspace: Merkle trees,
//! HMAC, Fiat–Shamir transcripts, full-domain-hash signatures, and ledger
//! digests all bottom out here.

use prever_obs::work::{self, Unit};

/// A 32-byte SHA-256 digest.
///
/// Wraps `[u8; 32]` so digests get `Display` (lowercase hex) and a
/// collision-resistant, order-preserving `Ord` for use as map keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. the hash "before" a
    /// ledger's genesis entry).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(NIBBLES[(b >> 4) as usize] as char);
            s.push(NIBBLES[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Parses a 64-character hex string into a digest.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        let hex = hex.trim();
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// XOR-combines two digests (used by XOR-PIR response aggregation).
    pub fn xor(&self, other: &Digest) -> Digest {
        let mut out = [0u8; 32];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = a ^ b;
        }
        Digest(out)
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use prever_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state. Whole blocks are compressed
    /// where they lie; only a trailing partial block is copied.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress, data);
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`Self::update`] over a named compression function, so the tests
    /// can drive the buffering through either kernel on any host.
    #[inline]
    fn update_with(&mut self, kernel: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    #[inline]
    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        let mut last = [0u8; 128];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        let end = pad(&mut last, self.buf_len, self.total_len);
        kernel(&mut self.state, &last[..end]);
        state_digest(&self.state)
    }
}

/// Writes the FIPS 180-4 padding after the `len` message bytes already in
/// `last` (the tail of a message of `total_len` bytes; the rest of `last`
/// is zero): `0x80`, zeros, the bit length big-endian. Returns how much of
/// `last` is now whole blocks, 64 or 128.
fn pad(last: &mut [u8; 128], len: usize, total_len: u64) -> usize {
    last[len] = 0x80;
    let end = if len < 56 { 64 } else { 128 };
    last[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    end
}

fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Runs the compression function over `blocks` (a whole number of 64-byte
/// blocks), on the CPU's SHA extensions when it has them and on
/// [`compress_portable`] otherwise. Both produce the same state; the
/// choice is the CPU's alone (DESIGN.md §6, "SHA-256 kernel"). Each block
/// counts one [`Unit::Sha256Compress`].
#[inline]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    work::add(Unit::Sha256Compress, (blocks.len() / 64) as u64);
    #[cfg(target_arch = "x86_64")]
    if sha_ni::try_compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 compression function in plain integer code: what a
/// non-x86-64 or pre-SHA-NI host runs, and the reference the tests hold
/// the hardware kernel to.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (w, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions (`sha256rnds2` does
/// two rounds, `sha256msg1` / `sha256msg2` the message schedule).
///
/// Every intrinsic used here is a safe fn inside a `#[target_feature]`
/// context: values enter and leave the vector registers through
/// `_mm_set_*` / `_mm_extract_*`, never through a pointer.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Compresses `blocks` into `state` if the running CPU has every
    /// feature [`compress`] is compiled for; otherwise touches nothing and
    /// returns false. (`std` caches the CPUID answer: the test is a load
    /// and a mask per call.)
    #[inline]
    pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        let available = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if available {
            // SAFETY: `compress` is a safe fn whose only requirement of
            // its caller is its `#[target_feature]` set, and each feature
            // in that set has just been reported present on this CPU.
            #[allow(unsafe_code)]
            unsafe {
                compress(state, blocks)
            };
        }
        available
    }

    /// Round constants `K[4g..4g + 4]`, lowest word first.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn k(g: usize) -> __m128i {
        _mm_set_epi32(K[4 * g + 3] as i32, K[4 * g + 2] as i32, K[4 * g + 1] as i32, K[4 * g] as i32)
    }

    /// Message words `4g..4g + 4` of `block`, big-endian words in
    /// little-endian lanes.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load(block: &[u8], g: usize) -> __m128i {
        let half = |at: usize| {
            i64::from_le_bytes(block[at..at + 8].try_into().expect("an 8-byte slice"))
        };
        let raw = _mm_set_epi64x(half(16 * g + 8), half(16 * g));
        // Byte-swap each 32-bit lane.
        _mm_shuffle_epi8(raw, _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203))
    }

    /// Four rounds: `w` holds `W[4g..4g + 4]`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $g:expr) => {{
            let wk = _mm_add_epi32($w, k($g));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        }};
    }

    /// The next four schedule words from the previous sixteen
    /// (`$w0` oldest), written over `$w0`.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {{
            let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8::<4>($w3, $w2));
            $w0 = _mm_sha256msg2_epu32(t, $w3);
        }};
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        // The instruction wants the state as (a, b, e, f) and (c, d, g, h),
        // highest lane first.
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = load(block, 0);
            let mut w1 = load(block, 1);
            let mut w2 = load(block, 2);
            let mut w3 = load(block, 3);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 4);
            schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 5);
            schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 6);
            schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 7);
            schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 8);
            schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 9);
            schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 10);
            schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 11);
            schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 12);
            schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 13);
            schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 14);
            schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    sha256_concat(&[data])
}

/// One-shot SHA-256 over the concatenation of several slices, without
/// intermediate allocation.
///
/// A message that pads into two blocks or fewer — every Merkle node and
/// leaf, chained state digest and command digest in the workspace — is
/// laid out with its padding once, on the stack, and compressed from
/// there.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    concat_with(compress, parts)
}

#[inline]
fn concat_with(kernel: impl Fn(&mut [u32; 8], &[u8]), parts: &[&[u8]]) -> Digest {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if total > 128 - 9 {
        let mut h = Sha256::new();
        for p in parts {
            h.update_with(&kernel, p);
        }
        return h.finalize_with(&kernel);
    }
    let mut last = [0u8; 128];
    let mut at = 0;
    for p in parts {
        last[at..at + p.len()].copy_from_slice(p);
        at += p.len();
    }
    let end = pad(&mut last, total, total as u64);
    let mut state = H0;
    kernel(&mut state, &last[..end]);
    state_digest(&state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The SHA-NI kernel called directly, or `None` (with the reason
    /// printed) on a host that cannot run it.
    fn hardware_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::try_compress(&mut [0; 8], &[]) {
            return Some(|state, blocks| assert!(sha_ni::try_compress(state, blocks)));
        }
        eprintln!("skipped: this CPU does not report sha/sse2/ssse3/sse4.1; only the portable kernel ran");
        None
    }

    /// The portable kernel, and the hardware one where the CPU has it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        all.extend(hardware_kernel().map(|k| ("sha_ni", k)));
        all
    }

    /// FIPS 180-4 as written: pad the whole message, then compress it.
    /// Shares nothing with [`Sha256`]'s buffering or [`pad`].
    fn reference(kernel: Kernel, data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, &padded);
        state_digest(&state)
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn hardware_and_portable_kernels_agree_on_random_states_and_blocks() {
        let Some(hardware) = hardware_kernel() else { return };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..2_000 {
            let state: [u32; 8] = std::array::from_fn(|_| xorshift(&mut x) as u32);
            let blocks: Vec<u8> =
                (0..64 * (1 + case % 5)).map(|_| xorshift(&mut x) as u8).collect();
            let (mut hw, mut sw) = (state, state);
            hardware(&mut hw, &blocks);
            compress_portable(&mut sw, &blocks);
            assert_eq!(hw, sw, "case {case}: state {state:08x?}, {} blocks", blocks.len() / 64);
        }
    }

    #[test]
    fn nist_vectors_through_each_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for (name, kernel) in kernels() {
            for (message, want) in vectors {
                assert_eq!(reference(kernel, message).to_hex(), want, "{name}, reference");
                let mut h = Sha256::new();
                h.update_with(kernel, message);
                assert_eq!(h.finalize_with(kernel).to_hex(), want, "{name}, hasher");
                assert_eq!(concat_with(kernel, &[message]).to_hex(), want, "{name}, concat");
            }
        }
    }

    #[test]
    fn every_length_to_200_at_every_split_through_each_kernel() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for (name, kernel) in kernels() {
            for len in 0..=200 {
                let want = reference(compress_portable, &data[..len]);
                for split in 0..=len {
                    let (a, b) = data[..len].split_at(split);
                    let mut h = Sha256::new();
                    h.update_with(kernel, a);
                    h.update_with(kernel, b);
                    assert_eq!(h.finalize_with(kernel), want, "{name}: update {split} + {}", len - split);
                    assert_eq!(concat_with(kernel, &[a, b]), want, "{name}: concat {split} + {}", len - split);
                }
            }
        }
    }

    proptest! {
        /// Totals sit on the edges of the short-message path: one block
        /// of padding (55 | 56), a whole block (64 | 65), two (119 | 120).
        #[test]
        fn prop_concat_is_the_hash_of_the_concatenation(
            edge in 0usize..6,
            around in 0usize..3,
            fill in any::<u64>(),
            cuts in proptest::collection::vec(any::<usize>(), 0..=3),
        ) {
            let total = [55, 56, 64, 65, 119, 120][edge] + around - 1;
            let mut x = fill | 1;
            let data: Vec<u8> = (0..total).map(|_| xorshift(&mut x) as u8).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (total + 1)).collect();
            cuts.sort_unstable();
            cuts.push(total);
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut from = 0;
            for to in cuts {
                parts.push(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(parts.concat(), data.clone());
            prop_assert_eq!(sha256_concat(&parts), sha256(&data));
            prop_assert_eq!(sha256_concat(&parts), reference(compress_portable, &data));
        }
    }

    #[test]
    fn compressions_are_counted_per_block() {
        let blocks =
            |parts: &[&[u8]]| work::measure(|| sha256_concat(parts)).1[Unit::Sha256Compress];
        // The shapes the ledger and consensus hash all day.
        assert_eq!(blocks(&[&[0; 8], &[0; 8]]), 1, "command digest");
        assert_eq!(blocks(&[&[0; 32], &[1; 32]]), 2, "chained state digest");
        assert_eq!(blocks(&[&[1], &[0; 32], &[1; 32]]), 2, "Merkle node");
        assert_eq!(blocks(&[&[0; 1024]]), 17);
        assert_eq!(blocks(&[&[0; 119]]), 2, "the longest message laid out on the stack");
        assert_eq!(blocks(&[&[0; 120]]), 3, "the shortest one streamed");
    }

    // NIST / well-known test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // Lengths around the padding edge cases: 55, 56, 63, 64, 119, 120.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            let d1 = h.finalize();
            let d2 = sha256(&data);
            assert_eq!(d1, d2, "len {len}");
        }
    }

    #[test]
    fn concat_equals_joined() {
        let d1 = sha256_concat(&[b"hello, ", b"world"]);
        let d2 = sha256(b"hello, world");
        assert_eq!(d1, d2);
    }

    #[test]
    fn hex_is_lowercase_two_digits_per_byte() {
        let d = Digest(std::array::from_fn(|i| (i as u8).wrapping_mul(0x1f) ^ 0xa0));
        assert_eq!(d.to_hex(), "a0bf9efddc3b1a7958b796f5d433127150af8eedcc2b0a6948a786e5c4230261");
        assert_eq!(d.to_hex(), d.0.iter().map(|b| format!("{b:02x}")).collect::<String>());
        assert_eq!(Digest::ZERO.to_hex(), "0".repeat(64));
        assert_eq!(Digest([0xff; 32]).to_hex(), "f".repeat(64));
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn xor_is_involutive() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_eq!(a.xor(&b).xor(&b), a);
        assert_eq!(a.xor(&a), Digest::ZERO);
    }
}
