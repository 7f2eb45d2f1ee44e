//! Hand-rolled JSON emission (in-tree replacement for `serde_json`,
//! which the offline build cannot fetch).
//!
//! Experiment binaries emit machine-readable rows as JSON objects — one
//! per line (JSON Lines) — alongside their human-readable tables. The
//! writer covers exactly what the harness needs: objects with string,
//! number, and boolean fields, plus correct string escaping.

use std::fmt::Write as _;

use triton_trace::json::push_str_lit;

/// An in-progress JSON object.
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
            .render();
        assert_eq!(
            j,
            r#"{"op":"triton","queries":4,"tput_gtps":1.5,"shed":false}"#
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
    }
}
