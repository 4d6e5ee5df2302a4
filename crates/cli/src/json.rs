//! The one JSON writer and parser of the workspace.
//!
//! The workspace builds offline without `serde`, so this module hand-rolls
//! both halves. [`Value`] renders pretty-printed JSON with stable key order
//! (objects are ordered pairs, not maps) so emitted artifacts diff cleanly
//! between runs; [`Value::parse`] reads any JSON document back without ever
//! panicking, and [`Value::get`] addresses a leaf by dotted path
//! (`"under_faults.latency.p99"`). Every report the CLI, the bench bins and
//! the verifier emit is built as a [`Value`] by one serializer and rendered
//! here.

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (rendered without a decimal point).
    Int(u64),
    /// Floating-point number (non-finite values render as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

/// Builds a [`Value::Obj`] from a JSON-like object literal, converting each
/// value with [`Value::from`]; keys keep their written order:
///
/// ```
/// use regvault_cli::json;
/// use regvault_cli::json::Value;
///
/// let doc = json!({ "served": 458_u64, "latency": json!({ "p99": 117_274_u64 }) });
/// assert_eq!(doc.get("latency.p99"), Some(&Value::Int(117_274)));
/// ```
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::json::Value::Obj(vec![$(($key.to_owned(), $crate::json::Value::from($value))),*])
    };
}

/// `From` conversions for the scalar and container types reports carry.
macro_rules! from {
    ($($ty:ty => |$x:ident| $make:expr),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from($x: $ty) -> Self {
                $make
            }
        })*
    };
}

from! {
    bool => |b| Value::Bool(b),
    u8 => |n| Value::Int(n.into()),
    u32 => |n| Value::Int(n.into()),
    u64 => |n| Value::Int(n),
    usize => |n| Value::Int(n as u64),
    f64 => |x| Value::Num(x),
    &str => |s| Value::Str(s.to_owned()),
    String => |s| Value::Str(s),
    Vec<Value> => |items| Value::Arr(items),
}

/// Deepest array/object nesting [`Value::parse`] accepts; deeper input is
/// rejected instead of recursing toward a stack overflow.
pub const MAX_DEPTH: usize = 128;

impl Value {
    /// Looks up a dotted path: each segment names an object key, or an
    /// array index for arrays. `None` when any segment does not resolve.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&Value> {
        path.split('.')
            .try_fold(self, |value, segment| match value {
                Value::Obj(pairs) => pairs.iter().find(|(key, _)| key == segment).map(|(_, v)| v),
                Value::Arr(items) => segment.parse::<usize>().ok().and_then(|i| items.get(i)),
                _ => None,
            })
    }

    /// The numeric value of an `Int` or `Num`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Parses a complete JSON document. Never panics: malformed input,
    /// trailing bytes, bad escapes, lone surrogates and nesting deeper than
    /// [`MAX_DEPTH`] all come back as an error.
    ///
    /// Numbers without a fraction, exponent or sign that fit a `u64` parse
    /// as [`Value::Int`]; every other number parses as [`Value::Num`].
    ///
    /// # Errors
    ///
    /// Describes the byte offset and reason of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Num(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if x.fract() != 0.0 {
                    out.push_str(&x.to_string());
                } else if x.abs() < 1e15 {
                    // Always include a decimal point so the type is stable
                    // across runs whose values happen to be integral.
                    out.push_str(&format!("{x:.1}"));
                } else {
                    // Large integral floats keep an exponent, so they read
                    // back as floats rather than integers.
                    out.push_str(&format!("{x:e}"));
                }
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_seq(out, depth, "[]", items.iter().map(|v| (None, v))),
            Value::Obj(pairs) => {
                write_seq(out, depth, "{}", pairs.iter().map(|(k, v)| (Some(k), v)));
            }
        }
    }
}

/// Writes an array or object: one entry per line, indented one level
/// deeper than its brackets; empty containers stay on one line.
fn write_seq<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    entries: impl Iterator<Item = (Option<&'a String>, &'a Value)>,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let mut empty = true;
    for (key, value) in entries {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(close);
}

/// Writes `s` as a JSON string literal, quotes included.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent parser over the input bytes (RFC 8259 grammar).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> String {
        format!("invalid JSON at byte {}: {reason}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'{') => self
                .seq(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.err("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected `:`"));
                    }
                    p.skip_ws();
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Parses the comma-separated entries of an array or object whose
    /// opening bracket is at the cursor, up to and including `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(entries);
        }
        loop {
            self.skip_ws();
            entries.push(entry(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(entries);
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or a closing bracket"));
            }
        }
    }

    fn literal(&mut self, word: &'static str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut integral = !negative;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        // The scanned span is ASCII digits and signs, so it is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.err("unterminated string"));
                    };
                    self.pos += 1;
                    let c = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    let mut utf8 = [0u8; 4];
                    buf.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
                }
                0x00..=0x1f => return Err(self.err("control character in string")),
                _ => buf.push(byte),
            }
        }
        // Raw bytes were copied whole between ASCII delimiters of valid
        // UTF-8 input, so this only fails on a logic error — still no panic.
        String::from_utf8(buf).map_err(|_| self.err("invalid UTF-8 in string"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("invalid `\\u` escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape, joining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return Err(self.err("lone surrogate"));
                }
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("lone surrogate"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone surrogate")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid `\\u` escape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        json!({
            "name": "qarma \"fast\"",
            "blocks_per_sec": 1.5e7,
            "count": 42_u64,
            "rows": vec![json!({ "x": 2.0 })],
            "empty": Vec::new(),
            "flag": true,
            "none": Value::Null,
        })
    }

    #[test]
    fn renders_pretty_and_reads_back() {
        let text = sample().render();
        assert!(
            text.starts_with("{\n  \"name\": \"qarma \\\"fast\\\"\",\n"),
            "{text}"
        );
        assert!(
            text.contains("\"rows\": [\n    {\n      \"x\": 2.0\n    }\n  ],"),
            "{text}"
        );
        assert!(text.contains("\"empty\": [],"), "{text}");
        assert_eq!(Value::parse(&text), Ok(sample()));
    }

    #[test]
    fn numbers_keep_their_type() {
        // (value, rendering): integral floats keep a decimal point or an
        // exponent so they never read back as integers.
        for (value, text) in [
            (Value::Int(2), "2"),
            (Value::Num(2.0), "2.0"),
            (Value::Num(1e15), "1e15"),
            (Value::Num(-0.25), "-0.25"),
        ] {
            assert_eq!(value.render(), format!("{text}\n"));
            assert_eq!(Value::parse(text), Ok(value));
        }
        assert_eq!(Value::Num(f64::NAN).render(), "null\n");
        assert_eq!(Value::parse("3E+8"), Ok(Value::Num(3e8)));
        assert_eq!(Value::parse("-7"), Ok(Value::Num(-7.0)));
        let past_u64 = Value::parse("18446744073709551616");
        assert_eq!(past_u64, Ok(Value::Num(18_446_744_073_709_551_616.0)));
    }

    #[test]
    fn escapes_round_trip_including_control_characters() {
        let nasty = "q\"b\\s/\n\r\t\u{0}\u{1f}\u{7f}é😀";
        let text = Value::from(nasty).render();
        assert_eq!(text, "\"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u001f\u{7f}é😀\"\n");
        assert_eq!(Value::parse(&text), Ok(Value::from(nasty)));
        // Every escape form a foreign writer may use reads back too.
        let foreign = r#""\/\b\f\u0041\u00e9\ud83d\ude00""#;
        assert_eq!(Value::parse(foreign), Ok(Value::from("/\u{8}\u{c}Aé😀")));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let lines = r#"{"a": 1
            [1, 2
            {"a" 1}
            {"a": 1,}
            [1,]
            {1: 2}
            "unterminated
            "bad \q escape"
            "short \u12"
            "lone \ud800"
            "lone \ud800A"
            "lone \ud800\u0041"
            "lone \udc00"
            {} trailing
            [1] [2]
            tru
            nul
            -
            01
            1.
            1e
            .5
            +1
            1e999
            \"#;
        for bad in lines
            .lines()
            .map(str::trim)
            .chain(["", "   ", "\"raw \n newline\""])
        {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Every proper prefix of a valid document is rejected.
        let text = sample().render();
        for cut in (0..text.trim_end().len()).filter(|&cut| text.is_char_boundary(cut)) {
            assert!(Value::parse(&text[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn nesting_past_the_depth_limit_is_rejected() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.ends_with("nesting too deep"), "{err}");
        // Far past the limit: rejected without recursing toward a stack
        // overflow.
        assert!(Value::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn path_lookup_addresses_the_named_section() {
        let doc = json!({
            "baseline": json!({ "served": 2000_u64 }),
            "under_faults": json!({ "served": 458_u64, "latency": json!({ "p99": 117_274_u64 }) }),
            "rows": vec![Value::Int(7), Value::Int(9)],
        });
        let doc = Value::parse(&doc.render()).unwrap();
        assert_eq!(doc.get("baseline.served"), Some(&Value::Int(2000)));
        assert_eq!(doc.get("under_faults.served"), Some(&Value::Int(458)));
        let p99 = doc.get("under_faults.latency.p99").and_then(Value::as_f64);
        assert_eq!(p99, Some(117_274.0));
        assert_eq!(doc.get("rows.1"), Some(&Value::Int(9)));
        for missing in [
            "rows.2",
            "served",
            "under_faults.served.x",
            "baseline.latency",
        ] {
            assert_eq!(doc.get(missing), None, "{missing}");
        }
    }

    /// SplitMix64: a tiny deterministic generator for the property test.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn string(&mut self) -> String {
            let pool = [
                'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1b}', 'é', '😀',
            ];
            (0..self.below(8))
                .map(|_| pool[self.below(pool.len() as u64) as usize])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Value {
            match self.below(if depth >= 4 { 5 } else { 7 }) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 1),
                2 => Value::Int(self.below(u64::MAX) >> self.below(64)),
                3 => loop {
                    // Any finite float: arbitrary bit patterns cover
                    // subnormals, huge magnitudes and integral values.
                    let x = f64::from_bits(self.below(u64::MAX));
                    if x.is_finite() {
                        break Value::Num(x);
                    }
                },
                4 => Value::Str(self.string()),
                5 => Value::Arr((0..self.below(5)).map(|_| self.value(depth + 1)).collect()),
                _ => Value::Obj(
                    (0..self.below(5))
                        .map(|_| (self.string(), self.value(depth + 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn parse_inverts_render_over_generated_values() {
        let mut gen = Gen(0x5EED);
        for case in 0..2_000 {
            let value = gen.value(0);
            let text = value.render();
            assert_eq!(Value::parse(&text), Ok(value), "case {case}: {text}");
        }
        // Integral floats around the exponent switch keep their type too.
        for x in [1e14, 1e15, 123_456_789_012_345_680.0, -4.5e18, 0.5, -0.0] {
            assert_eq!(Value::parse(&Value::Num(x).render()), Ok(Value::Num(x)));
        }
    }
}
