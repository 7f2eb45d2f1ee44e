//! Minimal JSON encoding: string escaping, deterministic number
//! formatting, and the [`JsonObject`] builder. In-tree because the
//! workspace is dependency-free; [`push_str_lit`] is the workspace's one
//! JSON string escaper and [`JsonObject`] its one object writer (bench
//! rows, lint reports, scheduler metrics).

use std::fmt::Write;

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
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

/// Append a finite `f64` as a JSON number using Rust's shortest
/// round-trip formatting (deterministic for equal inputs). Non-finite
/// values — which a correct simulation never produces — encode as 0 so
/// the output stays valid JSON.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push('0');
    }
}

/// An in-progress JSON object: fields render in insertion order, so
/// equal inputs give byte-identical output.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        push_str_lit(&mut self.buf, k);
        self.buf.push(':');
        &mut self.buf
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        push_str_lit(self.key(k), v);
        self
    }

    /// Add an integer field.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field. Non-finite values serialize as `null` (JSON has
    /// no NaN/Inf).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        let buf = self.key(k);
        if v.is_finite() {
            let _ = write!(buf, "{v}");
        } else {
            buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add an array-of-objects field.
    pub fn array(mut self, k: &str, items: impl IntoIterator<Item = JsonObject>) -> Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push('{');
            buf.push_str(&item.buf);
            buf.push('}');
        }
        buf.push(']');
        self
    }

    /// Render as a single-line JSON object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_in_order() {
        let j = JsonObject::new()
            .str("op", "triton")
            .int("queries", 4)
            .num("tput_gtps", 1.5)
            .bool("shed", false)
            .array("rows", [JsonObject::new().int("n", 1), JsonObject::new()])
            .render();
        assert_eq!(
            j,
            r#"{"op":"triton","queries":4,"tput_gtps":1.5,"shed":false,"rows":[{"n":1},{}]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = JsonObject::new().str("k", "a\"b\\c\nd").render();
        assert_eq!(j, r#"{"k":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn non_finite_is_null() {
        let j = JsonObject::new().num("x", f64::NAN).render();
        assert_eq!(j, r#"{"x":null}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().render(), "{}");
        assert_eq!(JsonObject::new().array("a", []).render(), r#"{"a":[]}"#);
    }

    fn lit(s: &str) -> String {
        let mut out = String::new();
        push_str_lit(&mut out, s);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(lit("plain"), "\"plain\"");
        assert_eq!(lit("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(lit("x\ny"), "\"x\\ny\"");
        assert_eq!(lit("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_are_finite_or_zero() {
        let mut out = String::new();
        push_f64(&mut out, 1.5);
        out.push(',');
        push_f64(&mut out, f64::NAN);
        out.push(',');
        push_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "1.5,0,0");
    }
}
