//! The workspace's JSON reader and writer, re-exported from
//! [`polyflow_isa::json`] under the path the service's callers import.
//! [`compact`] has no caller here: the writer renders the compact form
//! directly, and [`compact`] stays as the tests' oracle.

pub use polyflow_isa::json::{compact, escape, parse, Json, JsonError, Style, Writer};

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-run [`compact`] agrees with a char-by-char reference
    /// scan on escapes, multi-byte text, whitespace inside and outside
    /// strings, and unterminated input.
    #[test]
    fn compact_matches_the_char_by_char_reference() {
        fn reference(rendered: &str) -> String {
            let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
            for c in rendered.chars() {
                if in_string {
                    out.push(c);
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_string = false;
                    }
                } else if !matches!(c, ' ' | '\t' | '\n' | '\r') {
                    in_string = c == '"';
                    out.push(c);
                }
            }
            out
        }
        for case in [
            "",
            "   ",
            "{ \"π → λ\" : [ 1 ,\t2 ]\r\n}",
            "{\"a\": \"x \\\" y\", \"b\": \"\\\\\" }",
            "{\"é\\é\": \"tab\there\"}  ",
            "{\"open\": \"never closed ",
            "{\"trailing\": \"\\",
            "  x  y  \"  z  \"  w  ",
        ] {
            assert_eq!(compact(case), reference(case), "{case:?}");
        }
        let rendered = polyflow_sim::SimResult::default().to_json();
        assert_eq!(compact(&rendered), reference(&rendered));
    }

    #[test]
    fn compact_is_single_line_for_sim_results() {
        let r = polyflow_sim::SimResult::default();
        let c = compact(&r.to_json());
        assert!(!c.contains('\n'));
        assert!(c.starts_with('{') && c.ends_with('}'));
        // And it still parses.
        parse(&c).unwrap();
    }
}
