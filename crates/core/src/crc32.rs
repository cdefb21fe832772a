//! CRC-32 (IEEE 802.3), used to detect package corruption in transit.
//!
//! Slice-by-16: one step folds sixteen input bytes through sixteen
//! 256-entry lookup tables, computed at compile time, instead of running
//! 128 shift/xor rounds. The tables are 16 KiB of static data.

/// The IEEE polynomial, bit-reflected.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[k][b]` is the CRC register after feeding byte `b` followed by
/// `k` zero bytes into a zero register. A 16-byte block XORs the lookups
/// of its bytes, byte `i` in table `15 - i`.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 of `data` (IEEE polynomial, reflected).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        let mut x = *block;
        for (b, c) in x.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        crc = x
            .iter()
            .zip(TABLES.iter().rev())
            .fold(0, |acc, (&b, t)| acc ^ t[b as usize]);
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The bit-at-a-time definition: the oracle the tables must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u64>() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"jump-start profile package".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn matches_bitwise_at_every_short_length_and_offset() {
        let buf = random_bytes(42, 16 + 256);
        for start in 0..16 {
            for len in 0..=256 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn matches_bitwise_on_a_megabyte() {
        let buf = random_bytes(7, (1 << 20) + 13);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_bitwise_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }
}
