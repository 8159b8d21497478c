//! The write-ahead log: every raw input line, checksummed, in order.
//!
//! The WAL is the service's source of truth between snapshots. Each
//! record carries the raw input line (not the parsed event — malformed
//! lines are evidence too) tagged with its input sequence number and a
//! checksum ([`qpredict_durable::checksum`] of `<seq> <raw line>`, as 16
//! upper-case hex digits):
//!
//! ```text
//! qpredict-wal v2 fp=<config fingerprint>
//! <checksum> <seq> <raw line>
//! ```
//!
//! v2 replaced v1's FNV-1a record checksums; a v1 log is refused by its
//! header, never read with the wrong checksum.
//!
//! Reading is prefix-tolerant: a scan accepts the longest valid prefix
//! and reports how many bytes of torn/corrupt tail follow, which recovery
//! truncates before appending again. A record whose checksum fails (or is
//! not 16 upper-case hex digits), whose sequence number does not
//! increase, or whose final newline is missing ends the valid prefix —
//! everything before it is trusted, nothing after.

use qpredict_durable::checksum;
use qpredict_durable::codec::{decimal_digits, hex_digits, parse_hex16};

/// First line of every WAL file (before the `fp=` field).
pub const WAL_MAGIC: &str = "qpredict-wal v2";

/// Render the header line for a service with config fingerprint `fp`.
pub fn header(fp: u64) -> String {
    format!("{WAL_MAGIC} fp={fp:016X}\n")
}

/// Append one record (with trailing newline) to `buf`: the body is
/// written in place, then its checksum filled in ahead of it. Digits
/// come from the codec's tables, so no formatter runs.
pub fn push_record(buf: &mut Vec<u8>, seq: u64, raw: &str) {
    let sum_at = buf.len();
    buf.extend_from_slice(b"0000000000000000 ");
    let body_at = buf.len();
    buf.extend_from_slice(decimal_digits(seq, &mut [0; 20]));
    buf.push(b' ');
    buf.extend_from_slice(raw.as_bytes());
    let sum = checksum(&buf[body_at..]);
    buf[sum_at..body_at - 1].copy_from_slice(&hex_digits(sum));
    buf.push(b'\n');
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Config fingerprint from the header.
    pub fp: u64,
    /// Valid records, in order: `(seq, raw line)`.
    pub records: Vec<(u64, String)>,
    /// Byte length of the valid prefix (header + intact records).
    /// Truncating the file to this length removes the torn tail.
    pub valid_len: u64,
    /// Bytes of unreadable tail following the valid prefix.
    pub torn_bytes: u64,
}

/// Scan WAL `text`, accepting the longest valid prefix.
///
/// Only an unreadable *header* is an error — that file was never a WAL
/// of ours. Anything wrong after the header is a torn tail, reported,
/// not fatal.
pub fn scan(text: &str) -> Result<WalScan, String> {
    let header_end = text.find('\n').ok_or("missing WAL header")?;
    let header = &text[..header_end];
    let fp_field = header
        .strip_prefix(WAL_MAGIC)
        .and_then(|r| r.strip_prefix(" fp="))
        .ok_or_else(|| match header.split(" fp=").next() {
            Some(magic) if magic.starts_with("qpredict-wal ") => {
                format!("WAL format {magic:?} is not {WAL_MAGIC:?}; it cannot be resumed")
            }
            _ => format!("not a WAL header: {header:?}"),
        })?;
    let fp = u64::from_str_radix(fp_field, 16).map_err(|e| format!("bad WAL fingerprint: {e}"))?;

    let mut records = Vec::new();
    let mut valid_len = (header_end + 1) as u64;
    let mut offset = header_end + 1;
    let mut last_seq = 0u64;
    let bytes = text.as_bytes();
    while offset < bytes.len() {
        let Some(nl) = text[offset..].find('\n').map(|i| offset + i) else {
            break; // no final newline: torn
        };
        let line = &text[offset..nl];
        let Some(rec) = parse_record(line, last_seq) else {
            break;
        };
        last_seq = rec.0;
        records.push(rec);
        offset = nl + 1;
        valid_len = offset as u64;
    }
    Ok(WalScan {
        fp,
        records,
        valid_len,
        torn_bytes: (bytes.len() as u64).saturating_sub(valid_len),
    })
}

fn parse_record(line: &str, last_seq: u64) -> Option<(u64, String)> {
    let (sum, body) = line.split_once(' ')?;
    let sum = parse_hex16(sum)?;
    if checksum(body.as_bytes()) != sum {
        return None;
    }
    let (seq, raw) = match body.split_once(' ') {
        Some((s, r)) => (s, r),
        None => (body, ""),
    };
    let seq: u64 = seq.parse().ok()?;
    if seq <= last_seq {
        return None; // sequence must increase; a repeat is corruption
    }
    Some((seq, raw.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, raw: &str) -> String {
        let mut buf = Vec::new();
        push_record(&mut buf, seq, raw);
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn records_are_the_checksum_then_the_body() {
        let body = "7 submit 1 100 nodes=4";
        let want = format!("{:016X} {body}\n", checksum(body.as_bytes()));
        assert_eq!(record(7, "submit 1 100 nodes=4"), want);
        assert_eq!(want, "6B41D17A40158503 7 submit 1 100 nodes=4\n");
    }

    /// SplitMix64, for reproducible values without dependencies.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn table_framing_equals_the_formatter_framing() {
        // The framing `push_record` had when it rendered through `write!`.
        fn formatted(seq: u64, raw: &str) -> String {
            let body = format!("{seq} {raw}");
            format!("{:016X} {body}\n", checksum(body.as_bytes()))
        }
        let mut state = 0x3A1;
        let mut seqs = vec![0, 1, 9, 10, 99, 100, 999, 1000, u64::MAX - 1, u64::MAX];
        for _ in 0..2000 {
            let v = splitmix(&mut state);
            seqs.push(v);
            seqs.push(v >> (v % 64));
        }
        let raws = ["", "x", "submit 1 100 nodes=4", "query 7 8 ünïcode"];
        let mut buf = Vec::new();
        let mut want = String::new();
        for (i, &seq) in seqs.iter().enumerate() {
            let raw = raws[i % raws.len()];
            assert_eq!(record(seq, raw), formatted(seq, raw), "seq {seq}");
            push_record(&mut buf, seq, raw);
            want.push_str(&formatted(seq, raw));
        }
        // Records appended to one buffer frame each other correctly.
        assert_eq!(String::from_utf8(buf).unwrap(), want);
    }

    #[test]
    fn every_record_flip_and_truncation_is_rejected() {
        // The checksum oracle on WAL records: raw lines of 0–40 bytes put
        // the record body across every word and tail boundary.
        let mut state = 0x3A2;
        for n in 0..=40 {
            let raw: String = (0..n)
                .map(|_| (b' ' + (splitmix(&mut state) % 95) as u8) as char)
                .collect();
            let text = format!("{}{}", header(1), record(12, &raw));
            let header_len = header(1).len();
            assert_eq!(scan(&text).unwrap().records, vec![(12, raw.clone())]);
            for i in header_len..text.len() {
                for bit in 0..8 {
                    let mut bytes = text.clone().into_bytes();
                    bytes[i] ^= 1 << bit;
                    let Ok(mutated) = String::from_utf8(bytes) else {
                        continue;
                    };
                    let s = scan(&mutated).unwrap();
                    assert!(s.records.is_empty(), "raw len {n} byte {i} bit {bit}");
                    assert_eq!(s.valid_len, header_len as u64);
                }
            }
            for cut in header_len..text.len() {
                let s = scan(&text[..cut]).unwrap();
                assert!(s.records.is_empty(), "raw len {n} cut {cut}");
            }
        }
    }

    fn sample() -> String {
        let mut s = header(0xABCD);
        s.push_str(&record(1, "submit 1 100 nodes=4"));
        s.push_str(&record(2, "query 1 101"));
        s.push_str(&record(5, "# gap in seq is fine, decrease is not"));
        s
    }

    #[test]
    fn round_trips() {
        let scan = scan(&sample()).unwrap();
        assert_eq!(scan.fp, 0xABCD);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0], (1, "submit 1 100 nodes=4".to_string()));
        assert_eq!(scan.records[2].0, 5);
        assert_eq!(scan.valid_len, sample().len() as u64);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn empty_raw_lines_survive() {
        let mut s = header(1);
        s.push_str(&record(1, ""));
        s.push_str(&record(2, "x"));
        let scan = scan(&s).unwrap();
        assert_eq!(scan.records, vec![(1, String::new()), (2, "x".to_string())]);
    }

    #[test]
    fn torn_tail_is_bounded_not_fatal() {
        let good = sample();
        // Truncate mid-record: everything before the cut record survives.
        for cut in good.len() - 10..good.len() - 1 {
            let scan = scan(&good[..cut]).unwrap();
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            assert!(scan.torn_bytes > 0);
            assert!(scan.valid_len < cut as u64 + 1);
        }
    }

    #[test]
    fn bit_flips_end_the_valid_prefix() {
        let good = sample();
        let header_len = header(0xABCD).len();
        for i in header_len..good.len() {
            let mut bytes = good.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            if let Ok(s) = scan(&mutated) {
                // Whatever survives must be an exact prefix of the truth.
                for (got, want) in s.records.iter().zip([
                    (1u64, "submit 1 100 nodes=4"),
                    (2, "query 1 101"),
                    (5, "# gap in seq is fine, decrease is not"),
                ]) {
                    if got.0 == want.0 && got.1 == want.1 {
                        continue;
                    }
                    // A flip inside a *newline* can merge records; the
                    // checksum then fails and the scan stops — so any
                    // surviving record must match exactly.
                    panic!("flip at {i} forged record {got:?}");
                }
            }
        }
    }

    #[test]
    fn non_increasing_seq_stops_the_scan() {
        let mut s = header(1);
        s.push_str(&record(3, "a"));
        s.push_str(&record(3, "b"));
        let scan = scan(&s).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn bad_header_is_an_error() {
        assert!(scan("").is_err());
        assert!(scan("some other file\n").is_err());
        assert!(scan("qpredict-wal v2 fp=zz\n").is_err());
        let v1 = scan("qpredict-wal v1 fp=9651D848C60BFFD8\n").unwrap_err();
        assert!(v1.contains("\"qpredict-wal v1\" is not"), "{v1}");
    }
}
