//! Oracle for the durable layer's checksum: pinned vectors keep the
//! format from drifting, the streaming form equals the one-shot function
//! however a body is split, and on every body of 0–40 bytes (so every
//! word and tail boundary, in both lanes) every single-bit flip and
//! every truncation changes the checksum — also once the body is a
//! sealed frame.

use qpredict_durable::{check_frame, checksum, seal, Checksum};

/// SplitMix64, for reproducible bodies without dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const MAX_LEN: usize = 40;

/// Bodies of every length 0..=MAX_LEN: all zero bytes (where a zero
/// tail pads like a shorter body), all `0xFF`, and random bytes.
fn bodies() -> Vec<Vec<u8>> {
    let mut rng = Rng(0x5EA1);
    let mut out = Vec::new();
    for n in 0..=MAX_LEN {
        out.push(vec![0u8; n]);
        out.push(vec![0xFFu8; n]);
        out.push((0..n).map(|_| rng.next() as u8).collect());
    }
    out
}

const PINNED: [(&[u8], u64); 7] = [
    (b"", 0xA510_6751_FBCA_3AD2),
    (b"a", 0x0850_3AB9_3DD9_605A),
    (b"abcdefgh", 0xA7AE_A50F_DEF4_7B45),
    (b"abcdefghi", 0x81DD_A209_22E8_ABD6),
    (b"0123456789abcdef", 0x45E0_601E_E4CC_DA0C),
    (b"0123456789abcdefg", 0x7D12_2C3A_874F_FA3B),
    (
        b"The quick brown fox jumps over the lazy dog",
        0xA8AB_BC43_FE48_2C78,
    ),
];

#[test]
fn pinned_vectors() {
    for (bytes, want) in PINNED {
        assert_eq!(
            checksum(bytes),
            want,
            "{:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

/// `body` fed to a [`Checksum`] in pieces: the whole 16-byte blocks
/// below `a`, then those below `b`, then the rest as the tail.
fn streamed(body: &[u8], a: usize, b: usize) -> u64 {
    let (a, b) = (a & !15, b & !15);
    let mut sum = Checksum::new();
    sum.update(&body[..a]);
    sum.update(&body[a..b]);
    sum.finish(&body[b..])
}

#[test]
fn streaming_equals_one_shot_at_every_split() {
    let mut rng = Rng(0x57EA);
    for n in 0..=300 {
        let body: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
        let want = checksum(&body);
        for split in 0..=n {
            assert_eq!(streamed(&body, split, split), want, "len {n} at {split}");
        }
        for a in (0..=n).step_by(16) {
            for b in (a..=n).step_by(16) {
                assert_eq!(streamed(&body, a, b), want, "len {n} at {a}, {b}");
            }
        }
    }
    for (bytes, want) in PINNED {
        for split in 0..=bytes.len() {
            assert_eq!(streamed(bytes, split, split), want, "{bytes:?} at {split}");
        }
    }
}

#[test]
#[should_panic(expected = "16 bytes")]
fn streaming_refuses_a_partial_block_before_the_tail() {
    Checksum::new().update(&[0; 15]);
}

#[test]
fn every_single_bit_flip_changes_the_checksum() {
    for body in bodies() {
        let sum = checksum(&body);
        for i in 0..body.len() {
            for bit in 0..8 {
                let mut flipped = body.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(
                    checksum(&flipped),
                    sum,
                    "len {} byte {i} bit {bit}",
                    body.len()
                );
            }
        }
    }
}

#[test]
fn every_truncation_changes_the_checksum() {
    for body in bodies() {
        // Every prefix, the whole body included, has its own checksum.
        let mut sums: Vec<u64> = (0..=body.len()).map(|n| checksum(&body[..n])).collect();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), body.len() + 1, "len {}", body.len());
    }
}

#[test]
fn a_change_inside_one_word_is_always_detected() {
    // Any change confined to one 8-byte word (or the tail word) is
    // detected by construction, whatever it is: rewrite one word of a
    // body with many random values.
    let mut rng = Rng(0x0DD);
    let body: Vec<u8> = (0..MAX_LEN).map(|_| rng.next() as u8).collect();
    let sum = checksum(&body);
    for start in (0..body.len()).step_by(8) {
        let end = (start + 8).min(body.len());
        for _ in 0..2000 {
            let mut changed = body.clone();
            let bytes = rng.next().to_le_bytes();
            changed[start..end].copy_from_slice(&bytes[..end - start]);
            if changed != body {
                assert_ne!(checksum(&changed), sum, "word at {start}");
            }
        }
    }
}

/// Sealable bodies of 1..=MAX_LEN bytes: printable text ending in a
/// newline, as the line-oriented encoders write.
fn frame_bodies() -> Vec<String> {
    let mut rng = Rng(0xF4A3E);
    (1..=MAX_LEN)
        .map(|n| {
            let mut s: String = (1..n)
                .map(|_| (b' ' + (rng.next() % 95) as u8) as char)
                .collect();
            s.push('\n');
            s
        })
        .collect()
}

#[test]
fn a_sealed_frame_rejects_every_flip_and_truncation() {
    for body in frame_bodies() {
        let sealed = seal(body.clone());
        let (got, sum) = check_frame(&sealed).expect("verifies");
        assert_eq!((got, sum), (body.as_str(), checksum(body.as_bytes())));
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut bytes = sealed.clone().into_bytes();
                bytes[i] ^= 1 << bit;
                // Bytes that are not UTF-8 never reach the frame check.
                let Ok(mutated) = String::from_utf8(bytes) else {
                    continue;
                };
                assert!(
                    check_frame(&mutated).is_err(),
                    "body len {} byte {i} bit {bit}",
                    body.len()
                );
            }
        }
        // Only dropping the final newline keeps the frame, and the same
        // body; every shorter prefix is rejected.
        for cut in 0..sealed.len() - 1 {
            assert!(
                check_frame(&sealed[..cut]).is_err(),
                "body len {} cut {cut}",
                body.len()
            );
        }
        let (kept, _) = check_frame(&sealed[..sealed.len() - 1]).expect("newline optional");
        assert_eq!(kept, body);
    }
}
