//! Minimal JSON encoding helpers: string escaping and deterministic
//! number formatting. In-tree because the workspace is dependency-free;
//! [`push_str_lit`] is the workspace's one JSON string escaper.

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

#[cfg(test)]
mod tests {
    use super::*;

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
