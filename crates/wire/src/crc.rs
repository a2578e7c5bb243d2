//! The workspace's one CRC-32 implementation.
//!
//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) guards three
//! independent durability/wire contracts in this codebase: the WAL frame
//! stream (`medsen-store`), the credential blob (`CytoPassword` in
//! `medsen-core`), and the cross-tier message frames defined here. All
//! three used to carry their own copy of the same const-fn table; this
//! module is now the single source the others delegate to.
//!
//! One deliberate exception: `medsen-fountain` keeps a frozen private
//! copy, because the fountain symbol frame is a wire contract with
//! embedded senders that must build the crate with zero dependencies.
//! A workspace-level test pins that copy bit-equal to this one, the same
//! way the PR 8 PRNG pin works.

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// Implemented here rather than vendored: the checksum is part of both
/// the persistence and the wire contract and must never drift with a
/// dependency.
///
/// Slicing-by-16: each step folds sixteen input bytes into the register
/// with sixteen independent table lookups, one per byte position, instead
/// of sixteen dependent byte steps. Table `k` advances a byte's
/// contribution past the `k` bytes that follow it, so XOR-ing the sixteen
/// lookups equals running the byte-at-a-time loop over the same block.
/// The tail shorter than a block takes the byte-at-a-time step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] =
            *<&[u8; 16]>::try_from(block).expect("chunks_exact yields 16 bytes");
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = t15[usize::from(b0 ^ c0)]
            ^ t14[usize::from(b1 ^ c1)]
            ^ t13[usize::from(b2 ^ c2)]
            ^ t12[usize::from(b3 ^ c3)]
            ^ t11[usize::from(b4)]
            ^ t10[usize::from(b5)]
            ^ t9[usize::from(b6)]
            ^ t8[usize::from(b7)]
            ^ t7[usize::from(b8)]
            ^ t6[usize::from(b9)]
            ^ t5[usize::from(b10)]
            ^ t4[usize::from(b11)]
            ^ t3[usize::from(b12)]
            ^ t2[usize::from(b13)]
            ^ t1[usize::from(b14)]
            ^ t0[usize::from(b15)];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t0[usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// The sixteen slicing tables, built at compile time. Table 0 is the
/// classic byte-at-a-time table; table `k` is table `k - 1` pushed
/// through one more zero byte.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slicing kernel replaced, kept as its
    /// reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_equals_the_bytewise_loop_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..4_200u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 23) as u8)
            .collect();
        for start in 0..16 {
            for len in (0..=300).chain([1_023, 1_024, 1_025, 4_095, 4_096, 4_183]) {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn is_sensitive_to_single_bit_flips() {
        let base = crc32(b"wire frame body");
        let mut flipped = b"wire frame body".to_vec();
        for byte in 0..flipped.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
    }
}
