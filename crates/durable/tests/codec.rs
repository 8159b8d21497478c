//! Property tests for the state codec: random values round-trip bit for
//! bit, and every truncation, trailing token or record, wrong tag, and
//! duplicate key is rejected.

use std::collections::{HashMap, VecDeque};

use qpredict_durable::codec::{decimal_digits, decode, encode, hex_digits, parse_hex16};
use qpredict_durable::{Codec, CodecError, Reader, Writer};

/// SplitMix64: enough randomness for the properties, no dependencies.
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

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

const SPECIAL_F64: &[u64] = &[
    0x0000_0000_0000_0000, // 0.0
    0x8000_0000_0000_0000, // -0.0
    0x7FF0_0000_0000_0000, // +inf
    0xFFF0_0000_0000_0000, // -inf
    0x7FF8_0000_0000_0000, // quiet NaN
    0x7FF0_0000_DEAD_BEEF, // signalling NaN with a payload
    0xFFFF_FFFF_FFFF_FFFF, // negative NaN, all payload bits
    0x0000_0000_0000_0001, // smallest subnormal
    0x800F_FFFF_FFFF_FFFF, // largest negative subnormal
    0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
];

const SPECIAL_STR: &[&str] = &[
    "",
    " ",
    "two words",
    "line\nbreak",
    "\r\n\t",
    "%",
    "%20",
    "'",
    "-",
    "ünïcødé ✓",
    "\u{a0}no-break\u{2028}separator",
    "trailing space ",
    "\u{7f}\u{0}",
];

fn f64_of(rng: &mut Rng) -> f64 {
    if rng.below(3) == 0 {
        f64::from_bits(rng.pick(SPECIAL_F64))
    } else {
        f64::from_bits(rng.next())
    }
}

fn string_of(rng: &mut Rng) -> String {
    if rng.below(2) == 0 {
        return rng.pick(SPECIAL_STR).to_string();
    }
    let alphabet: Vec<char> = "ab -%'\n\r\tz\u{e9}\u{2603}0".chars().collect();
    (0..rng.below(12)).map(|_| rng.pick(&alphabet)).collect()
}

/// A value touching every codec shape: scalars, options, lists, arrays,
/// tuples, an inline map, and a map of records.
#[derive(Debug, Clone)]
struct Sample {
    unsigned: u64,
    signed: i64,
    floats: Vec<f64>,
    flags: [bool; 3],
    text: String,
    maybe: Option<u32>,
    maybe_text: Option<String>,
    deque: VecDeque<i64>,
    inline: HashMap<u32, (String, f64)>,
    rows: Vec<(bool, u16)>,
    table: HashMap<u64, Vec<String>>,
}

impl Sample {
    fn random(rng: &mut Rng) -> Sample {
        let special_u64 = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        let special_i64 = [0, -1, i64::MIN, i64::MAX];
        Sample {
            unsigned: if rng.below(2) == 0 {
                rng.pick(&special_u64)
            } else {
                rng.next()
            },
            signed: if rng.below(2) == 0 {
                rng.pick(&special_i64)
            } else {
                rng.next() as i64
            },
            floats: (0..rng.below(6)).map(|_| f64_of(rng)).collect(),
            flags: [rng.below(2) == 0, rng.below(2) == 0, rng.below(2) == 0],
            text: string_of(rng),
            maybe: (rng.below(2) == 0).then(|| rng.next() as u32),
            maybe_text: (rng.below(2) == 0).then(|| string_of(rng)),
            deque: (0..rng.below(4)).map(|_| rng.next() as i64).collect(),
            inline: (0..rng.below(4))
                .map(|_| (rng.next() as u32, (string_of(rng), f64_of(rng))))
                .collect(),
            rows: (0..rng.below(4))
                .map(|_| (rng.below(2) == 0, rng.next() as u16))
                .collect(),
            table: (0..rng.below(4))
                .map(|_| {
                    let names = (0..rng.below(3)).map(|_| string_of(rng)).collect();
                    (rng.next(), names)
                })
                .collect(),
        }
    }

    /// Equality with floats compared by bit pattern.
    fn same(&self, other: &Sample) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let inline = |m: &HashMap<u32, (String, f64)>| {
            let mut v: Vec<(u32, String, u64)> = m
                .iter()
                .map(|(k, (s, x))| (*k, s.clone(), x.to_bits()))
                .collect();
            v.sort();
            v
        };
        self.unsigned == other.unsigned
            && self.signed == other.signed
            && bits(&self.floats) == bits(&other.floats)
            && self.flags == other.flags
            && self.text == other.text
            && self.maybe == other.maybe
            && self.maybe_text == other.maybe_text
            && self.deque == other.deque
            && inline(&self.inline) == inline(&other.inline)
            && self.rows == other.rows
            && self.table == other.table
    }
}

impl Codec for Sample {
    fn encode(&self, w: &mut Writer) {
        w.record("sample v1");
        w.record("scalars")
            .put(&self.unsigned)
            .put(&self.signed)
            .put(&self.flags)
            .put(&self.text)
            .put(&self.maybe)
            .put(&self.maybe_text);
        w.record("lists")
            .put(&self.floats)
            .put(&self.deque)
            .put(&self.inline)
            .put(&self.rows);
        w.map_records("entry", &self.table);
    }

    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Sample, CodecError> {
        r.record("sample v1")?.record("scalars")?;
        Ok(Sample {
            unsigned: r.get()?,
            signed: r.get()?,
            flags: r.get()?,
            text: r.get()?,
            maybe: r.get()?,
            maybe_text: r.get()?,
            floats: r.record("lists")?.get()?,
            deque: r.get()?,
            inline: r.get()?,
            rows: r.get()?,
            table: r.map_records("entry", &(), &())?,
        })
    }
}

fn samples() -> impl Iterator<Item = (u64, Sample)> {
    (0..300u64).map(|seed| (seed, Sample::random(&mut Rng(0xC0DEC + seed))))
}

#[test]
fn random_values_round_trip_bit_for_bit() {
    for (seed, v) in samples() {
        let text = encode(&v);
        let back: Sample =
            decode(&text, &()).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert!(v.same(&back), "seed {seed}: {v:?} != {back:?}");
        assert_eq!(encode(&back), text, "seed {seed}: re-encode differs");
    }
}

#[test]
fn every_truncation_is_rejected() {
    for (seed, v) in samples().take(60) {
        let text = encode(&v);
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            assert!(
                decode::<_, Sample>(&text[..cut], &()).is_err(),
                "seed {seed}: cut at {cut} accepted:\n{}",
                &text[..cut]
            );
        }
    }
}

#[test]
fn trailing_tokens_and_records_are_rejected() {
    for (seed, v) in samples().take(60) {
        let text = encode(&v);
        let lines: Vec<&str> = text.lines().collect();
        for i in 0..lines.len() {
            let mut extra: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            extra[i].push_str(" 7");
            let extra = extra.join("\n") + "\n";
            assert!(
                decode::<_, Sample>(&extra, &()).is_err(),
                "seed {seed}: trailing token on line {} accepted",
                i + 1
            );
        }
        let more = format!("{text}entry 9 0\n");
        assert!(decode::<_, Sample>(&more, &()).is_err(), "seed {seed}");
    }
}

#[test]
fn a_wrong_tag_is_rejected() {
    for (seed, v) in samples().take(60) {
        let text = encode(&v);
        let lines: Vec<&str> = text.lines().collect();
        for i in 0..lines.len() {
            let mut wrong: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            wrong[i].insert(0, 'x');
            let wrong = wrong.join("\n") + "\n";
            let err = decode::<_, Sample>(&wrong, &()).expect_err("wrong tag accepted");
            assert_eq!(err.line, i + 1, "seed {seed}: {err}");
        }
    }
}

#[test]
fn special_scalars_survive() {
    let v = Sample {
        unsigned: u64::MAX,
        signed: i64::MIN,
        floats: SPECIAL_F64.iter().map(|&b| f64::from_bits(b)).collect(),
        flags: [true, false, true],
        text: "a b\nc %d ✓".into(),
        maybe: None,
        maybe_text: Some(String::new()),
        deque: VecDeque::from([i64::MIN, -1, 0, i64::MAX]),
        inline: SPECIAL_STR
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, (s.to_string(), -0.0)))
            .collect(),
        rows: vec![(true, u16::MAX)],
        table: HashMap::from([(u64::MAX, vec![String::new(), "-".into()])]),
    };
    let text = encode(&v);
    assert!(text.lines().all(|l| !l.contains("  ")), "{text}");
    let back: Sample = decode(&text, &()).expect("round trip");
    assert!(v.same(&back), "{v:?} != {back:?}");
}

#[test]
fn duplicate_or_unordered_keys_are_rejected() {
    let ok = "sample v1\nscalars 0 0 0 0 0 ' - -\nlists 0 0 0 0\n\
              entry 2\nentry 1 0\nentry 2 0\n";
    assert!(decode::<_, Sample>(ok, &()).is_ok());
    let dup = ok.replace("entry 2 0", "entry 1 0");
    assert!(decode::<_, Sample>(&dup, &()).is_err());
    let unordered = ok
        .replace("entry 1 0", "entry 3 0")
        .replace("entry 2 0", "entry 1 0");
    assert!(decode::<_, Sample>(&unordered, &()).is_err());
    let inline_dup = ok.replace(
        "lists 0 0 0",
        "lists 0 0 2 5 'a 0000000000000000 5 'b 0000000000000000",
    );
    assert!(decode::<_, Sample>(&inline_dup, &()).is_err());
}

#[test]
fn malformed_tokens_are_rejected() {
    let ok = "sample v1\nscalars 0 0 0 0 0 ' - -\nlists 0 0 0 0\nentry 0\n";
    assert!(decode::<_, Sample>(ok, &()).is_ok());
    for bad in [
        "scalars +1 0 0 0 0 ' - -",                   // sign on an unsigned
        "scalars 18446744073709551616 0 0 0 0 ' - -", // u64 overflow
        "scalars 0 0 2 0 0 ' - -",                    // not a bool
        "scalars 0 0 0 0 0 x - -",                    // not a string
        "scalars 0 0 0 0 0 '%4 - -",                  // truncated escape
        "scalars 0 0 0 0 0 '%ff - -",                 // lower-case escape
        "scalars 0 0 0 0 0 '  - -",                   // empty token
        "scalars 0 0 0 0 0 ' - - ",                   // trailing space
    ] {
        let text = ok.replace("scalars 0 0 0 0 0 ' - -", bad);
        assert!(decode::<_, Sample>(&text, &()).is_err(), "{bad:?} accepted");
    }
    let floats = ok.replace("lists 0 0 0", "lists 1 3ff0000000000000 0 0");
    assert!(decode::<_, Sample>(&floats, &()).is_err(), "lower-case hex");
    let short = ok.replace("lists 0 0 0", "lists 1 3FF000000000000 0 0");
    assert!(decode::<_, Sample>(&short, &()).is_err(), "15 hex digits");
}

#[test]
fn table_tokens_equal_the_formatter() {
    // `Writer` renders integers and hex words through digit-pair
    // tables; every token must be the bytes `format!` writes.
    let mut rng = Rng(0x7AB1E);
    let mut values = vec![0u64, 9, 10, 99, 100, 999, 1000, u64::MAX - 1, u64::MAX];
    values.extend((1..20).map(|k| 10u64.pow(k)));
    values.extend((1..20).map(|k| 10u64.pow(k) - 1));
    for _ in 0..5000 {
        let v = rng.next();
        values.push(v);
        values.push(v >> rng.below(64));
    }
    let mut signed = vec![i64::MIN, i64::MIN + 1, -100, -99, -10, -9, -1, i64::MAX];
    for &v in &values {
        assert_eq!(decimal_digits(v, &mut [0; 20]), format!("{v}").as_bytes());
        assert_eq!(&hex_digits(v), format!("{v:016X}").as_bytes());
        assert_eq!(parse_hex16(&format!("{v:016X}")), Some(v));
        signed.push(v as i64);
    }
    let mut w = Writer::default();
    let mut want = String::new();
    for (i, &v) in values.iter().enumerate() {
        w.record("u").put(&v).put(&f64::from_bits(v));
        want.push_str(&format!("u {v} {v:016X}\n"));
        let s = signed[i % signed.len()];
        w.record("i").put(&s).put(&(v as u32)).put(&(v as u16));
        want.push_str(&format!("i {s} {} {}\n", v as u32, v as u16));
    }
    assert_eq!(w.finish(), want);
}

#[test]
fn parse_hex16_takes_only_what_hex_digits_writes() {
    assert_eq!(parse_hex16("0123456789ABCDEF"), Some(0x0123_4567_89AB_CDEF));
    for bad in [
        "",
        "0",
        "0123456789ABCDE",
        "0123456789ABCDEF0",
        "0123456789abcdef",
        "0123456789ABCDEG",
        "+123456789ABCDEF",
    ] {
        assert_eq!(parse_hex16(bad), None, "{bad:?}");
    }
}
