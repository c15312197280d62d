//! CRC-32 (IEEE 802.3) — the Data Mover's end-to-end integrity check.
//!
//! The paper (Section 4.3): "we use the built-in error correction in
//! GridFTP plus an additional CRC error check to guarantee correct and
//! uncorrupted file transfer" — TCP's 16-bit checksum is too weak for
//! multi-gigabyte transfers.
//!
//! Two kernels (DESIGN §12, "CRC-32 kernels"): a portable slice-by-16
//! table walk, and where the CPU probe finds `pclmulqdq` a carry-less-
//! multiply fold for inputs of 128 bytes and more.

/// Reflected CRC-32 with the IEEE polynomial.
pub struct Crc32 {
    /// The raw shift register: no final inversion applied.
    state: u32,
}

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the register after byte `b` followed by `k` zero
/// bytes, so sixteen lookups absorb sixteen input bytes at once.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Portable kernel: slice-by-16, then bytewise over the last `< 16` bytes.
fn slice16(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// PCLMULQDQ folding ("Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Gopal et al., Intel 2009; the constants are the
/// reflected IEEE set zlib and the Linux kernel use).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the fold accepts: four accumulators and one round.
    pub(super) const MIN_LEN: usize = 128;

    // x^(n) mod P(x), bit-reflected: fold distances 512+32/512-32 (K1, K2),
    // 128+32/128-32 (K3, K4), 64 (K5); then P(x) and µ = ⌊x^64 / P(x)⌋.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(data: &[u8], at: usize) -> __m128i {
        let lane = &data[at..at + 16];
        // SAFETY: `lane` is a bounds-checked 16-byte slice, and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Multiply `acc` by the two fold constants in `keys` and add `next`:
    /// `acc` moved forward by the distance the keys encode.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Absorb the longest prefix of `data` that is a multiple of 16 bytes
    /// into the raw register `crc`; returns the new register and how many
    /// bytes were absorbed.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`, `sse2` and `sse4.1`.
    /// `data.len() >= MIN_LEN` is asserted, not assumed.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> (u32, usize) {
        assert!(data.len() >= MIN_LEN);
        // SAFETY (whole body): the intrinsics need only the target
        // features this function enables, which the caller vouched for;
        // every `load` offset is bounds-checked inside `load`.
        unsafe {
            let mut x3 = load(data, 0);
            let mut x2 = load(data, 16);
            let mut x1 = load(data, 32);
            let mut x0 = load(data, 48);
            // The register enters as the low 32 bits of the message.
            x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));
            let mut at = 64;

            let k1k2 = _mm_set_epi64x(K2, K1);
            while data.len() - at >= 64 {
                x3 = fold(x3, load(data, at), k1k2);
                x2 = fold(x2, load(data, at + 16), k1k2);
                x1 = fold(x1, load(data, at + 32), k1k2);
                x0 = fold(x0, load(data, at + 48), k1k2);
                at += 64;
            }

            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut x = fold(x3, x2, k3k4);
            x = fold(x, x1, k3k4);
            x = fold(x, x0, k3k4);
            while data.len() - at >= 16 {
                x = fold(x, load(data, at), k3k4);
                at += 16;
            }

            // 128 → 64 → 32 bits, then Barrett reduction modulo P(x).
            let low32 = _mm_set_epi32(0, 0, 0, !0);
            x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
            x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
                _mm_srli_si128(x, 4),
            );
            let pu = _mm_set_epi64x(U_PRIME, P_X);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
            (_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32, at)
        }
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Incrementally absorb data (streams absorb block by block).
    pub fn update(&mut self, data: &[u8]) {
        let mut rest = data;
        #[cfg(target_arch = "x86_64")]
        if rest.len() >= clmul::MIN_LEN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: both features were just detected on this CPU, and
            // sse2 is part of the x86-64 baseline.
            let (state, absorbed) = unsafe { clmul::update(self.state, rest) };
            self.state = state;
            rest = &rest[absorbed..];
        }
        self.state = slice16(self.state, rest);
    }

    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition the kernels are held to: one table lookup per byte.
    fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    /// What `Crc32::update` makes of `data` from the raw register `crc`.
    fn dispatched(crc: u32, data: &[u8]) -> u32 {
        let mut c = Crc32 { state: crc };
        c.update(data);
        c.state
    }

    fn xorshift_bytes(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn first_table_is_the_bitwise_definition() {
        for (i, &e) in TABLES[0].iter().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            assert_eq!(e, c);
        }
    }

    #[test]
    fn kernels_match_bytewise_on_every_short_length_and_offset() {
        let buf = xorshift_bytes(600 + 16, 0x9E37_79B9_7F4A_7C15);
        for start in 0..=16 {
            for len in 0..=600 {
                let data = &buf[start..start + len];
                let reg = 0xFFFF_FFFF ^ (start * 601 + len) as u32;
                let want = bytewise(reg, data);
                assert_eq!(slice16(reg, data), want, "slice16 start {start} len {len}");
                assert_eq!(dispatched(reg, data), want, "dispatched start {start} len {len}");
            }
        }
    }

    #[test]
    fn kernels_match_bytewise_on_a_large_unaligned_buffer() {
        let buf = xorshift_bytes((1 << 20) + 77, 42);
        let data = &buf[3..];
        let reg = 0x1234_5678;
        let want = bytewise(reg, data);
        assert_eq!(slice16(reg, data), want);
        assert_eq!(dispatched(reg, data), want);
    }

    #[test]
    fn streaming_splits_straddle_the_kernel_boundaries() {
        // 300 bytes: splits put either half below, at and above the
        // 128-byte dispatch threshold and off the 64-/16-byte fold strides.
        let data = xorshift_bytes(300, 7);
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finalize(), whole, "split at {cut}");
        }
    }

    proptest! {
        #[test]
        fn kernels_match_bytewise_on_random_buffers(
            data in collection::vec(any::<u8>(), 0..4096),
            reg in any::<u32>(),
        ) {
            let want = bytewise(reg, &data);
            prop_assert_eq!(slice16(reg, &data), want);
            prop_assert_eq!(dispatched(reg, &data), want);
        }
    }

    #[test]
    fn known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(97) {
            inc.update(chunk);
        }
        assert_eq!(inc.finalize(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 4096];
        data[100] = 0x55;
        let base = crc32(&data);
        for pos in [0usize, 1, 2048, 4095] {
            let mut mutated = data.clone();
            mutated[pos] ^= 1;
            assert_ne!(crc32(&mutated), base, "flip at {pos} undetected");
        }
    }

    #[test]
    fn detects_transpositions() {
        let a = crc32(b"abcdef");
        let b = crc32(b"abdcef");
        assert_ne!(a, b);
    }
}
