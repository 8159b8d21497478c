//! The streaming writer against the in-memory one: hashing a body as it
//! is encoded gives `checksum(encode(x))`, and `write_sealed` writes
//! `seal(encode(x))` byte for byte, whatever the body's shape around the
//! writer's 64 KiB drain — records shorter and longer than it, tokens
//! before any record, an empty body.

use qpredict_durable::codec::{encode, encoded_checksum};
use qpredict_durable::{
    check_frame, checksum, read_to_string, seal, write_sealed, Codec, CodecError, Reader, Writer,
};

/// The drain threshold of a streaming writer.
const FLUSH: usize = 64 * 1024;

/// SplitMix64, for reproducible shapes without dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A body of a chosen shape: `lead` integer tokens before any record,
/// then one record per entry of `records`, holding a string token of
/// that many bytes (escapes included) and a float.
struct Shape {
    lead: usize,
    records: Vec<usize>,
}

impl Codec for Shape {
    fn encode(&self, w: &mut Writer) {
        for i in 0..self.lead {
            w.put(&(i as i64 - 3));
        }
        for (i, &len) in self.records.iter().enumerate() {
            let text: String = (0..len)
                .map(|k| if k % 7 == 6 { ' ' } else { 'x' })
                .collect();
            w.record("r").put(&i).put(&text).put(&(i as f64 / 3.0));
        }
    }

    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Shape, CodecError> {
        Err(r.error("encode-only"))
    }
}

fn shape(lead: usize, records: Vec<usize>) -> Shape {
    Shape { lead, records }
}

fn shapes() -> Vec<(&'static str, Shape)> {
    let mut rng = Rng(0x5EA1ED);
    let mut random = |n: usize, max: usize| (0..n).map(|_| rng.below(max)).collect::<Vec<_>>();
    vec![
        ("empty", shape(0, vec![])),
        ("lead tokens only", shape(5, vec![])),
        ("one short record", shape(0, vec![3])),
        ("lead, then short records", shape(3, random(9000, 40))),
        ("short records", shape(0, random(20000, 30))),
        (
            "records around the threshold",
            shape(0, vec![FLUSH - 40, 1, FLUSH, 2, FLUSH + 17, 0]),
        ),
        (
            "records longer than it",
            shape(1, vec![3 * FLUSH, 5, 2 * FLUSH + 9]),
        ),
        ("mixed", shape(2, random(600, 2000))),
    ]
}

#[test]
fn hashing_as_encoding_equals_the_checksum_of_the_body() {
    for (name, shape) in shapes() {
        let body = encode(&shape);
        assert_eq!(
            encoded_checksum(&shape),
            checksum(body.as_bytes()),
            "{name}"
        );
    }
    // Bodies of every length up to well past one drain, one byte apart.
    for lead in 0..3 {
        for len in (FLUSH - 100..FLUSH + 40).chain(0..100) {
            let shape = shape(lead, vec![len, 1, len / 2]);
            let body = encode(&shape);
            assert_eq!(
                encoded_checksum(&shape),
                checksum(body.as_bytes()),
                "{lead} {len}"
            );
        }
    }
}

#[test]
fn a_sealed_write_is_the_sealed_body_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("qpredict_sealed_writer_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("body.snap");
    for (name, shape) in shapes() {
        let body = encode(&shape);
        let sealed = write_sealed(&path, "snap.tmp", false, |w| {
            w.put(&shape);
        })
        .expect("writes");
        let text = read_to_string(&path).expect("reads");
        assert!(text == seal(body.clone()), "{name}");
        assert_eq!(sealed.sum, checksum(body.as_bytes()), "{name}");
        assert_eq!(sealed.bytes, text.len() as u64, "{name}");
        assert!(!path.with_extension("snap.tmp").exists(), "{name}");
        if !body.is_empty() {
            assert_eq!(
                check_frame(&text).expect("verifies").1,
                sealed.sum,
                "{name}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A body whose writes fail after its first drain: a typed error naming
/// the temp file, nothing renamed into place, the temp file removed, and
/// the next write lands.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_write_names_the_temp_file_and_renames_nothing() {
    let dir = std::env::temp_dir().join(format!("qpredict_sealed_full_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("body.snap");
    let tmp = path.with_extension("snap.tmp");
    std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
    let shape = shape(0, vec![40; 5000]);
    let err = write_sealed(&path, "snap.tmp", true, |w| {
        w.put(&shape);
    })
    .expect_err("/dev/full refuses every write");
    assert_eq!(err.op, format!("write {}", tmp.display()));
    assert!(!path.exists() && std::fs::symlink_metadata(&tmp).is_err());
    write_sealed(&path, "snap.tmp", true, |w| {
        w.put(&shape);
    })
    .expect("the next write lands");
    assert!(read_to_string(&path).unwrap() == seal(encode(&shape)));
    std::fs::remove_dir_all(&dir).ok();
}
