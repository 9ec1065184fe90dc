//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for block and
//! table frames, and the little-endian cursor ([`ReadLe`], [`WriteLe`])
//! and bulk `f32` payload codec ([`put_f32s_le`], [`f32s_from_le`]) those
//! frames are read and written with.
//!
//! The store's frames travel HDD → SSD → DRAM and sit on disk for the
//! lifetime of a dataset; silent bit-rot there would otherwise surface as
//! NaN voxels or skewed entropy tables far downstream. Framing every
//! payload with a CRC turns corruption into an `InvalidData` error at
//! decode time, where the fetch path's fail-fast classification handles
//! it. Slicing-by-16: sixteen 256-entry tables, built once on first use,
//! fold sixteen input bytes per step, about five times faster than the
//! bytewise table loop and producing the same values.

use std::sync::OnceLock;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// register after byte `i` is followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `data` (IEEE, as used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for b in &mut chunks {
        // The register overlaps the first four bytes; each byte position
        // then looks up the table for the zero bytes that follow it.
        let w = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        c = t[15][usize::from(w[0])]
            ^ t[14][usize::from(w[1])]
            ^ t[13][usize::from(w[2])]
            ^ t[12][usize::from(w[3])]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append `data` to `buf` as little-endian `f32`s: one resize, then one
/// 4-byte store per value.
pub fn put_f32s_le(buf: &mut Vec<u8>, data: &[f32]) {
    let at = buf.len();
    buf.resize(at + data.len() * 4, 0);
    for (dst, v) in buf[at..].chunks_exact_mut(4).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian `f32`s. `raw.len()` must be a multiple of 4; the
/// callers bounds-check the length against the frame first.
pub fn f32s_from_le(raw: &[u8]) -> Vec<f32> {
    assert_eq!(raw.len() % 4, 0, "f32 payload length {} is not a multiple of 4", raw.len());
    // Zero-fill, then overwrite: this loop vectorizes, where collecting
    // from the chunk iterator copies one value at a time.
    let mut out = vec![0f32; raw.len() / 4];
    for (d, b) in out.iter_mut().zip(raw.chunks_exact(4)) {
        *d = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    out
}

macro_rules! le_accessors {
    ($($get:ident / $put:ident: $ty:ty),* $(,)?) => {
        /// Little-endian reads advancing a `&[u8]` cursor. Reading past the
        /// end panics; decoders check [`ReadLe::remaining`] first.
        pub trait ReadLe {
            /// Bytes left in the cursor.
            fn remaining(&self) -> usize;
            /// Skip `n` bytes.
            fn advance(&mut self, n: usize);
            /// Fill `dst` from the cursor and advance past it.
            fn copy_to_slice(&mut self, dst: &mut [u8]);

            /// Whether any byte is left.
            fn has_remaining(&self) -> bool {
                self.remaining() > 0
            }

            $(
                #[doc = concat!("Read one little-endian `", stringify!($ty), "`.")]
                fn $get(&mut self) -> $ty {
                    let mut raw = [0u8; std::mem::size_of::<$ty>()];
                    self.copy_to_slice(&mut raw);
                    <$ty>::from_le_bytes(raw)
                }
            )*
        }

        /// Little-endian appends to a `Vec<u8>` frame buffer.
        pub trait WriteLe {
            /// Append raw bytes.
            fn put_slice(&mut self, src: &[u8]);

            $(
                #[doc = concat!("Append one little-endian `", stringify!($ty), "`.")]
                fn $put(&mut self, v: $ty) {
                    self.put_slice(&v.to_le_bytes());
                }
            )*
        }
    };
}

le_accessors!(
    get_u8 / put_u8: u8,
    get_u16_le / put_u16_le: u16,
    get_u32_le / put_u32_le: u32,
    get_u64_le / put_u64_le: u64,
    get_f32_le / put_f32_le: f32,
    get_f64_le / put_f64_le: f64,
);

impl ReadLe for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }
}

impl WriteLe for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference CRC: the oracle the sliced kernel must
    /// match on every input.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn random_bytes(g: &mut viz_geom::rng::SplitMix64, n: usize) -> Vec<u8> {
        (0..n).map(|_| g.next_u64() as u8).collect()
    }

    #[test]
    fn sliced_crc_matches_reference_at_every_alignment_and_tail() {
        // Every length through four 16-byte steps, at every start offset:
        // each tail length meets each misalignment.
        let buf = random_bytes(&mut viz_geom::rng::SplitMix64::new(0xC4C3), 16 + 64);
        for offset in 0..16 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_reference(s), "offset {offset}, len {len}");
            }
        }
        // Seeded lengths up to 70 000 bytes at seeded offsets.
        viz_geom::rng::check(48, |g| {
            let len = g.below(70_001) as usize;
            let offset = g.below(16) as usize;
            let buf = random_bytes(g, offset + len);
            let s = &buf[offset..];
            assert_eq!(crc32(s), crc32_reference(s), "offset {offset}, len {len}");
        });
    }

    #[test]
    fn bulk_f32_codec_roundtrips_and_matches_scalar_writes() {
        let data = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::INFINITY, -7.25e-3];
        let mut bulk = vec![0xAA];
        put_f32s_le(&mut bulk, &data);
        let mut scalar = vec![0xAA];
        for &v in &data {
            scalar.put_f32_le(v);
        }
        assert_eq!(bulk, scalar);
        let back = f32s_from_le(&bulk[1..]);
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(f32s_from_le(&[]).is_empty());
        let nan = f32s_from_le(&f32::NAN.to_le_bytes());
        assert_eq!(nan[0].to_bits(), f32::NAN.to_bits());
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn cursor_roundtrips_every_width() {
        let mut buf = Vec::new();
        buf.put_slice(b"VB");
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_f32_le(-1.5);
        buf.put_f64_le(f64::MIN_POSITIVE);
        assert_eq!(&buf[2..5], &[7, 0xEF, 0xBE]);
        let mut r: &[u8] = &buf;
        r.advance(2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_f32_le(), -1.5);
        assert_eq!(r.get_f64_le(), f64::MIN_POSITIVE);
        assert!(!r.has_remaining());
    }

    #[test]
    #[should_panic]
    fn reading_past_the_end_panics() {
        let mut r: &[u8] = &[1, 2, 3];
        r.get_u32_le();
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..=255).collect();
        let good = crc32(&data);
        for i in [0usize, 17, 128, 255] {
            let mut bad = data.clone();
            bad[i] ^= 0x01;
            assert_ne!(crc32(&bad), good, "flip at byte {i} must change the crc");
        }
    }
}
