#![warn(missing_docs)]

//! Shared durable-file machinery for search checkpoints and the serve
//! WAL/snapshots:
//!
//! * **One state codec** — [`codec`] is the only place that knows how a
//!   snapshot or checkpoint body is laid out: tagged records of
//!   positional tokens, `f64`s as the hex of their IEEE-754 bits so
//!   decode∘encode is the identity (NaN payloads and `-0.0` included).
//!   Each stateful type implements [`Codec`] once, listing its fields in
//!   both directions.
//! * **One checksum** — [`checksum`] reads its input eight bytes at a
//!   time, so seals, WAL records, state fingerprints and config
//!   fingerprints cost a fraction of a nanosecond per byte.
//! * **Checksum framing** — a file body is "sealed" by appending a
//!   trailing `sum <16 hex digits of its checksum>` line covering every
//!   byte above it ([`seal`]); [`check_frame`] verifies the checksum
//!   *before* any field is interpreted and returns the body, so a
//!   truncated or bit-flipped file is rejected with a typed
//!   [`FrameError`], never a panic or silent garbage. The seal is
//!   streamed: [`Checksum`] is the checksum fed in 16-byte blocks, so a
//!   writer hashes the body 64 KiB at a time as it writes it, and
//!   appends the `sum` line at the end — no body is ever held whole
//!   ([`codec::encoded_checksum`] fingerprints a state the same way).
//! * **Atomic replace** — [`write_sealed`] streams an encoded body and
//!   its seal into a sibling temporary file, [`write_atomic`] writes a
//!   plain text there; either fsyncs, then renames into place: a kill at
//!   any instant leaves either the old or the new file intact, never a
//!   torn one. Both go through one replace routine.

pub mod codec;

pub use codec::{Codec, CodecError, Reader, Sealed, Writer};

use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

/// Odd multiplier of the checksum's rounds (2⁶⁴ divided by the golden
/// ratio, rounded to odd).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Starting states of the checksum's two lanes (hex digits of π).
const LANE_SEEDS: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];

/// One round: fold word `w` into lane state `h`. For a fixed `w` it is
/// a bijection of `h` (xor, then an odd multiply and a rotation, each
/// invertible), and for a fixed `h` it is injective in `w`.
#[inline(always)]
fn round(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MUL).rotate_left(29)
}

/// The little-endian word of an 8-byte chunk.
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"))
}

/// The durable layer's one 64-bit checksum: seals, WAL records, state
/// and configuration fingerprints.
///
/// The input is read as 8-byte little-endian words, then a final word
/// holding the 0–7 byte tail zero-padded; word `i` is folded into lane
/// `i mod 2` by the round `h = rotl((h ^ w) · K, 29)` with `K` odd, so
/// the two lanes' multiply chains run side by side. The lanes are
/// combined by `a ^ rotl(b, 32)`, the byte length is xored in and the
/// result goes through the MurmurHash3 64-bit finalizer (a bijection)
/// for avalanche.
///
/// Every step after a word is read is a bijection of the state, and a
/// word enters injectively, so two inputs of one length that differ
/// only inside one 8-byte word (any bit flips within it, the tail
/// included) always get different checksums. A truncation changes the
/// length that is folded in; like any other change, it goes undetected
/// only by a 64-bit coincidence.
pub fn checksum(bytes: &[u8]) -> u64 {
    Checksum::new().finish(bytes)
}

/// [`checksum`] of a body fed in pieces: [`Checksum::update`] takes
/// blocks whose length is a multiple of 16 bytes (one word per lane),
/// [`Checksum::finish`] the rest, of any length. Any split of a body
/// gives the one-shot checksum of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    lanes: [u64; 2],
    len: u64,
}

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum::new()
    }
}

impl Checksum {
    /// The state before any byte.
    pub const fn new() -> Checksum {
        Checksum {
            lanes: LANE_SEEDS,
            len: 0,
        }
    }

    /// Fold `blocks` in.
    ///
    /// # Panics
    /// If `blocks.len()` is not a multiple of 16.
    #[inline]
    pub fn update(&mut self, blocks: &[u8]) {
        assert!(
            blocks.len().is_multiple_of(16),
            "checksum blocks come in 16 bytes"
        );
        for pair in blocks.chunks_exact(16) {
            self.lanes[0] = round(self.lanes[0], word(&pair[..8]));
            self.lanes[1] = round(self.lanes[1], word(&pair[8..]));
        }
        self.len += blocks.len() as u64;
    }

    /// Fold in the last bytes, `tail`, and return the checksum of
    /// everything fed.
    #[inline]
    pub fn finish(mut self, tail: &[u8]) -> u64 {
        let (blocks, rest) = tail.split_at(tail.len() & !15);
        self.update(blocks);
        let (full, tail) = rest.split_at(rest.len() & 8);
        let mut lanes = self.lanes;
        let mut lane = 0;
        if !full.is_empty() {
            lanes[0] = round(lanes[0], word(full));
            lane = 1;
        }
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        lanes[lane] = round(lanes[lane], u64::from_le_bytes(last));
        let len = self.len + rest.len() as u64;
        avalanche(lanes[0] ^ lanes[1].rotate_left(32) ^ len)
    }
}

/// The MurmurHash3 `fmix64` finalizer: every input bit flips about half
/// of the output bits.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// A filesystem failure with the attempted operation spelled out, e.g.
/// `"rename /dir/x.tmp -> /dir/x"`. The caller wraps it into its own
/// error type; `op` keeps the path and verb out of every call site.
#[derive(Debug)]
pub struct IoOpError {
    /// What was being attempted.
    pub op: String,
    /// The underlying error.
    pub source: std::io::Error,
}

impl fmt::Display for IoOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.op, self.source)
    }
}

impl std::error::Error for IoOpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Why a checksummed frame failed verification.
#[derive(Debug)]
pub enum FrameError {
    /// No trailing `sum ` line at all — the file was truncated before
    /// the seal, or is not a sealed file. `lines` is the 1-based count
    /// of lines actually present (for error messages).
    MissingChecksum {
        /// 1-based line count of the text as read.
        lines: usize,
    },
    /// A `sum ` line exists but its value is not parseable hex.
    UnreadableChecksum {
        /// 1-based line count of the text as read.
        lines: usize,
    },
    /// The recorded checksum does not match the body as read: the file
    /// was truncated or corrupted between the header and the seal.
    Mismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum of the body as read.
        computed: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::MissingChecksum { lines } => {
                write!(f, "missing trailing checksum line after {lines} line(s)")
            }
            FrameError::UnreadableChecksum { lines } => {
                write!(f, "unreadable checksum line at line {lines}")
            }
            FrameError::Mismatch { stored, computed } => write!(
                f,
                "checksum {computed:016X} != recorded {stored:016X} \
                 (truncated or bit-flipped file)"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append the trailing `sum <hex>` line covering every byte of `body`
/// (which must end with a newline, as line-oriented encoders produce).
/// [`write_sealed`] writes the same bytes without holding them.
pub fn seal(mut body: String) -> String {
    use std::fmt::Write as _;
    let sum = checksum(body.as_bytes());
    let _ = writeln!(body, "sum {sum:016X}");
    body
}

/// Verify the trailing checksum of a sealed frame and return the body
/// (checksum line stripped, trailing newline kept — exactly the bytes
/// that were hashed) with the checksum it verified, so a caller that
/// needs the checksum does not hash the body again. Nothing in the body
/// is interpreted.
pub fn check_frame(text: &str) -> Result<(&str, u64), FrameError> {
    let lines = || text.lines().count().max(1);
    let body_end = match text.rfind("\nsum ") {
        Some(i) => i + 1, // keep the newline in the checksummed body
        None => return Err(FrameError::MissingChecksum { lines: lines() }),
    };
    let (body, sum_line) = text.split_at(body_end);
    // Exactly `sum <16 upper-case hex digits>`, as `seal` writes it,
    // newline optional: nothing else may follow the seal, and a flipped
    // case bit is a damaged seal, not the same checksum.
    let stored = sum_line
        .strip_suffix('\n')
        .unwrap_or(sum_line)
        .strip_prefix("sum ")
        .and_then(codec::parse_hex16)
        .ok_or(FrameError::UnreadableChecksum { lines: lines() })?;
    let computed = checksum(body.as_bytes());
    if stored != computed {
        return Err(FrameError::Mismatch { stored, computed });
    }
    Ok((body, stored))
}

/// Write `text` to `path` atomically: create the parent directory if
/// needed, serialize to a sibling temp file (`path` with its extension
/// replaced by `tmp_extension`), fsync, rename over `path`, then fsync
/// the directory so the rename itself survives a crash.
pub fn write_atomic(path: &Path, text: &str, tmp_extension: &str) -> Result<(), IoOpError> {
    replace_atomically(path, tmp_extension, true, |mut file| {
        let written = file.write_all(text.as_bytes());
        (file, written)
    })
}

/// Write the sealed body that `body` encodes to `path` atomically, as
/// [`write_atomic`] does `seal(`[`codec::encode`]`(..))`, byte for byte,
/// but streamed: the writer hands the body to the temp file and to a
/// running [`Checksum`] 64 KiB at a time, then appends the `sum` line.
/// Returns the checksum and the file's byte count.
///
/// The two fsyncs run only when `sync`. Without them the rename is still
/// atomic against a killed process, but an OS crash may lose the file or
/// leave it empty or torn — callers that skip the syncs must verify what
/// they read back (a sealed frame does). A failed write, its error naming
/// the temp file, removes the temp file and renames nothing.
pub fn write_sealed(
    path: &Path,
    tmp_extension: &str,
    sync: bool,
    body: impl FnOnce(&mut Writer),
) -> Result<Sealed, IoOpError> {
    replace_atomically(path, tmp_extension, sync, |file| {
        let mut w = Writer::streaming(Some(file));
        body(&mut w);
        let (file, sealed) = w.seal();
        (file.expect("a file sink"), sealed)
    })
}

/// The one atomic replace: create `path`'s directory, let `fill` write
/// the sibling temp file, sync it when `sync`, rename it over `path` and
/// sync the directory when `sync`. A failure before the rename removes
/// the temp file.
fn replace_atomically<T>(
    path: &Path,
    tmp_extension: &str,
    sync: bool,
    fill: impl FnOnce(File) -> (File, std::io::Result<T>),
) -> Result<T, IoOpError> {
    let io_err = |op: String| move |source: std::io::Error| IoOpError { op, source };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(io_err(format!("create {}", dir.display())))?;
    }
    let tmp = path.with_extension(tmp_extension);
    let file = File::create(&tmp).map_err(io_err(format!("create {}", tmp.display())))?;
    let (file, filled) = fill(file);
    let done = filled
        .map_err(io_err(format!("write {}", tmp.display())))
        .and_then(|value| {
            if sync {
                file.sync_all()
                    .map_err(io_err(format!("sync {}", tmp.display())))?;
            }
            Ok(value)
        });
    drop(file);
    if done.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    let value = done?;
    std::fs::rename(&tmp, path).map_err(io_err(format!(
        "rename {} -> {}",
        tmp.display(),
        path.display()
    )))?;
    if sync {
        let dir = dir.unwrap_or(Path::new("."));
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err(format!("sync {}", dir.display())))?;
    }
    Ok(value)
}

/// Read `path` to a string, tagging failures with the operation.
pub fn read_to_string(path: &Path) -> Result<String, IoOpError> {
    std::fs::read_to_string(path).map_err(|source| IoOpError {
        op: format!("read {}", path.display()),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_reference_vector() {
        assert_eq!(checksum(b"a"), 0x0850_3AB9_3DD9_605A);
        assert_eq!(checksum(b""), 0xA510_6751_FBCA_3AD2);
    }

    #[test]
    fn seal_then_check_round_trips() {
        let body = "magic v1\nkey value\n".to_string();
        let sealed = seal(body.clone());
        assert!(sealed.starts_with(&body));
        assert!(sealed.ends_with('\n'));
        assert_eq!(check_frame(&sealed).expect("verifies").0, body);
    }

    #[test]
    fn truncation_and_flips_are_detected() {
        let sealed = seal("magic v1\na 1\nb 2\nc 3\n".to_string());
        // Every truncation except "only the final newline removed"
        // (which leaves an intact checksum line) must be rejected.
        for cut in 1..sealed.len() - 1 {
            assert!(check_frame(&sealed[..cut]).is_err(), "cut at {cut}");
        }
        // A bit flip anywhere must never yield a *different* body: either
        // the frame is rejected, or only framing whitespace was hit and
        // the body comes back byte-identical.
        let original = check_frame(&sealed).unwrap().0.to_string();
        for i in 0..sealed.len() {
            let mut bytes = sealed.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            if let Ok((body, _)) = check_frame(&mutated) {
                assert_eq!(body, original, "flip at byte {i} corrupted the body");
            }
        }
    }

    #[test]
    fn frame_errors_are_typed() {
        assert!(matches!(
            check_frame("no seal here\n"),
            Err(FrameError::MissingChecksum { .. })
        ));
        assert!(matches!(
            check_frame("body\nsum not-hex\n"),
            Err(FrameError::UnreadableChecksum { .. })
        ));
        assert!(matches!(
            check_frame("body\nsum 0000000000000000\n"),
            Err(FrameError::Mismatch { .. })
        ));
        let sealed = seal("body\n".to_string());
        let lower = format!("body\n{}", sealed["body\n".len()..].to_ascii_lowercase());
        assert_ne!(lower, sealed, "the checksum has a letter digit");
        assert!(matches!(
            check_frame(&lower),
            Err(FrameError::UnreadableChecksum { .. })
        ));
    }

    #[test]
    fn write_atomic_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("qpredict_durable_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        write_atomic(&path, "hello\n", "snap.tmp").expect("write");
        assert!(!path.with_extension("snap.tmp").exists());
        assert_eq!(read_to_string(&path).expect("read"), "hello\n");
        write_atomic(&path, "world\n", "snap.tmp").expect("overwrite");
        assert_eq!(read_to_string(&path).expect("reread"), "world\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_sealed_names_the_appended_checksum() {
        let dir = std::env::temp_dir().join("qpredict_durable_unit_sealed");
        let path = dir.join("state.snap");
        for sync in [true, false] {
            let sealed = write_sealed(&path, "snap.tmp", sync, |w| {
                w.record("magic").word("v1");
            })
            .expect("write");
            assert!(!path.with_extension("snap.tmp").exists());
            let text = read_to_string(&path).expect("read");
            assert_eq!(text, seal("magic v1\n".to_string()));
            assert!(text.ends_with(&format!("sum {:016X}\n", sealed.sum)));
            assert_eq!(check_frame(&text).expect("verifies").1, sealed.sum);
            assert_eq!(sealed.bytes, text.len() as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_missing_file_tags_the_operation() {
        let err = read_to_string(Path::new("/nonexistent/qpredict/x.snap")).unwrap_err();
        assert!(err.op.contains("read"), "{err}");
        assert!(err.to_string().contains("x.snap"));
    }
}
