//! A minimal hand-rolled JSON codec — the serving tier's wire format.
//!
//! The workspace builds fully offline, so there is no serde; this
//! module implements the JSON subset the protocol needs: full parsing
//! of RFC 8259 values into a [`Json`] tree and deterministic encoding
//! back out. Object keys keep insertion order, numbers are `f64`
//! (integers survive exactly up to 2^53, far beyond any request
//! field), and [`write_num`] writes an `f64` byte for byte as Rust's
//! shortest-roundtrip `Display` does, so a value parses back
//! bit-identically — which is what makes whole response *bodies*
//! comparable byte-for-byte in the batching bit-identity tests. It
//! computes the digits of a generator's usual outputs with exact
//! integer arithmetic, at under half the cost of going through
//! `core::fmt`, which serving pays once per float of every response.

use std::cmp::Ordering;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing garbage is an
    /// error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9.007_199_254_740_992e15 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `x` exactly as `Display` writes it (the fewest digits that
/// parse back to `x`, never an exponent), or `null` when `x` is NaN or
/// infinite, which JSON cannot express.
///
/// For |x| in [2^-19, 2^53), where a generator's outputs live, the
/// digits come from exact integer arithmetic at under half the
/// cost; anything else, and the rare exact tie that arithmetic leaves
/// to `core`, goes through `write!`.
pub fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if !write_shortest(x, out) {
        let _ = write!(out, "{x}");
    }
}

/// `10^i` for `i` in `0..=22`.
const POW10: [u128; 23] = {
    let mut p = [1u128; 23];
    let mut i = 1;
    while i < p.len() {
        p[i] = p[i - 1] * 10;
        i += 1;
    }
    p
};

/// Writes `x` as `Display` does when |x| is in [2^-19, 2^53), and
/// returns `false`, having written nothing, for any other `x`.
///
/// `core`'s shortest mode (`flt2dec`) picks, among the decimals inside
/// the rounding interval of `x`, those with the fewest digits, and of
/// these the one nearest `x`. This does the same exactly: it scales
/// |x| to 17 or 18 integer digits in `u128`, drops the last digit
/// while the interval still holds a multiple of the next power of ten,
/// and rounds |x| to the nearer multiple left inside. On an exact tie
/// between the two it returns `false` too.
fn write_shortest(x: f64, out: &mut String) -> bool {
    let bits = x.to_bits();
    let biased = (bits >> 52) as i32 & 0x7ff;
    if !(1004..=1075).contains(&biased) {
        return false;
    }
    // |x| = m / 2^q, and 2^e <= |x| < 2^(e + 1)
    let m = bits & ((1 << 52) - 1) | 1 << 52;
    let q = (1075 - biased) as u32;
    let e = biased - 1023;
    // k = floor(e * log10 2), so t = |x| * 10^s lies in [10^16, 2 * 10^17)
    let k = (e * 78_913) >> 18;
    let s = (16 - k) as usize;
    let pow = POW10[s];
    // |x| * 10^s and the ends of its rounding interval, half an ulp
    // either side, all over 2^shift. `flt2dec` also narrows the
    // interval below a binade's first significand and closes it when m
    // is even; neither changes a result in this range. A first
    // significand's x = 2^e has at most 16 significant digits here, so
    // it is its own shortest form, and an end is a decimal with at most
    // s fractional digits only when e = 52, where the integer |x| is
    // shorter.
    let shift = q + 1;
    let v = (u128::from(m) * pow) << 1;
    let t = (v >> shift) as u64;
    debug_assert!((10_u64.pow(16)..2 * 10_u64.pow(17)).contains(&t), "{x}");
    let frac = v & ((1 << shift) - 1);
    // the integers inside are those in (a, b]: at least one, since the
    // interval is wider than 1 at 17 digits
    let mut a = ((v - pow) >> shift) as u64;
    let mut b = ((v + pow) >> shift) as u64;
    // the fewest digits: the largest 10^j with a multiple in (a, b]
    let mut j = 0;
    while a / 10 < b / 10 {
        a /= 10;
        b /= 10;
        j += 1;
    }
    // of the two multiples of 10^j around |x|, the one inside, or the
    // nearer when both are
    let p = POW10[j] as u64;
    let below = t / p;
    let up = match (below > a, below < b) {
        (true, true) => {
            let side = if j == 0 {
                (frac << 1).cmp(&(1 << shift))
            } else {
                // 10^j is even, so only an equal remainder needs frac
                (t % p * 2).cmp(&p).then(frac.cmp(&0))
            };
            match side {
                Ordering::Less => false,
                Ordering::Greater => true,
                Ordering::Equal => return false,
            }
        }
        (inside, _) => !inside,
    };

    let c = below + u64::from(up);
    let n = c.ilog10() as usize + 1;
    let eighteen = eighteen_digits(c);
    let digits = &eighteen[18 - n..];
    // |x| = 0.digits * 10^point, laid out as `flt2dec` lays it out:
    // never more than 26 bytes, since |x| >= 2^-19 puts at most five
    // zeros after the point
    let point = n as i32 + j as i32 - s as i32;
    let mut text = [b'0'; 32];
    let mut len = 0;
    if x < 0.0 {
        text[0] = b'-';
        len = 1;
    }
    if point <= 0 {
        text[len + 1] = b'.';
        len += 2 + (-point) as usize;
        text[len..len + n].copy_from_slice(digits);
        len += n;
    } else if point < n as i32 {
        let (int, fract) = digits.split_at(point as usize);
        text[len..len + int.len()].copy_from_slice(int);
        len += int.len();
        text[len] = b'.';
        text[len + 1..len + 1 + fract.len()].copy_from_slice(fract);
        len += 1 + fract.len();
    } else {
        text[len..len + n].copy_from_slice(digits);
        len += point as usize;
    }
    out.push_str(std::str::from_utf8(&text[..len]).expect("ASCII"));
    true
}

/// `"00" "01" ... "99"`.
const PAIRS: [u8; 200] = {
    let mut p = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        p[2 * i] = b'0' + (i / 10) as u8;
        p[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    p
};

/// `c < 10^18` in 18 decimal digits, zero-padded: two independent
/// halves of nine, two digits at a time.
fn eighteen_digits(c: u64) -> [u8; 18] {
    let mut d = [b'0'; 18];
    for (at, half) in [(0, c / 1_000_000_000), (9, c % 1_000_000_000)] {
        let mut h = half as u32;
        for i in (0..4).rev() {
            let pair = (h % 100) as usize * 2;
            h /= 100;
            d[at + 1 + 2 * i..at + 3 + 2 * i].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        d[at] = b'0' + h as u8;
    }
    d
}

/// Writes a quoted, escaped JSON string.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.pos < self.b.len() && matches!(self.b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            kv.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let c = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err("lone high surrogate".into());
                                }
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => {
                    // re-decode the UTF-8 sequence starting here
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    let end = start + len;
                    if len == 0 || end > self.b.len() {
                        return Err(format!("invalid UTF-8 at offset {start}"));
                    }
                    let chunk = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| format!("invalid UTF-8 at offset {start}"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.b.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.b[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii number bytes");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at offset {start}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(r#"{"model":"timevae","n":8,"seed":42,"deadline_ms":250}"#).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("timevae"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(8));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("deadline_ms").unwrap().as_u64(), Some(250));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn roundtrips_nested_values() {
        let text = r#"{"a":[1,2.5,-3e2,true,false,null],"b":{"c":"x\"y\\z\n"}}"#;
        let v = Json::parse(text).unwrap();
        let enc = v.encode();
        assert_eq!(Json::parse(&enc).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 123456.789] {
            let enc = Json::Num(x).encode();
            let back = Json::parse(&enc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {enc}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        let v = Json::parse("\"naïve → 🚀\"").unwrap();
        assert_eq!(v.as_str(), Some("naïve → 🚀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "\"\\q\"",
            "{\"a\":}",
            "nulll",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
    }
}
