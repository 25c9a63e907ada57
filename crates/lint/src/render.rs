//! Rendering diagnostics: rustc-style human output and a stable JSON
//! form for CI baselines.
//!
//! The JSON renderer is hand-rolled (the workspace is offline, no serde):
//! keys are emitted in a fixed order and strings escaped per RFC 8259, so
//! the output is byte-stable and safe to `diff` against a committed
//! baseline.

use std::fmt::Write as _;

use receivers_obs::export::json_str;
use receivers_sql::span::{line_col, line_text};

use crate::diag::{Diagnostic, Severity};

/// Render one diagnostic in rustc style against its source text.
pub fn render(diag: &Diagnostic, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}[{}]: {}",
        diag.severity, diag.code.code, diag.message
    );
    let mut g = "  ".to_owned();
    if let Some(span) = diag.span {
        let start = line_col(source, span.start);
        let end = line_col(source, span.end);
        let text = line_text(source, start.line);
        g = " ".repeat(start.line.to_string().len());
        let _ = writeln!(out, "{g}--> {start}");
        let _ = writeln!(out, "{g} |");
        let _ = writeln!(out, "{} | {text}", start.line);
        // Carets under the span, clipped to its first line.
        let width = if end.line == start.line {
            (end.col - start.col).max(1)
        } else {
            (text.len() + 1 - start.col).max(1)
        };
        let _ = writeln!(
            out,
            "{g} | {:pad$}{}",
            "",
            "^".repeat(width),
            pad = start.col - 1
        );
    }
    for note in &diag.notes {
        match note.span {
            Some(s) => {
                let at = line_col(source, s.start);
                let _ = writeln!(out, "{g} = note: {} (at {at})", note.message);
            }
            None => {
                let _ = writeln!(out, "{g} = note: {}", note.message);
            }
        }
    }
    if let Some(sugg) = &diag.suggestion {
        let _ = writeln!(out, "{g} = suggestion: replace with `{}`", sugg.replacement);
    }
    out
}

/// Render a whole report: every diagnostic, then a one-line summary.
pub fn render_report(diags: &[Diagnostic], source: &str) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render(d, source));
        out.push('\n');
    }
    let (e, w, n, h) = count(diags);
    let _ = writeln!(
        out,
        "{e} error(s), {w} warning(s), {n} note(s), {h} help(s)"
    );
    out
}

/// Render a report as stable, pretty-printed JSON (no trailing newline).
pub fn render_json(diags: &[Diagnostic], source: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"code\": {},", json_str(d.code.code));
        let _ = writeln!(out, "      \"severity\": {},", json_str(d.severity.label()));
        let _ = write!(out, "      \"message\": {}", json_str(&d.message));
        if let Some(span) = d.span {
            let lc = line_col(source, span.start);
            let _ = write!(
                out,
                ",\n      \"span\": {{ \"start\": {}, \"end\": {}, \"line\": {}, \"col\": {} }}",
                span.start, span.end, lc.line, lc.col
            );
        }
        if !d.notes.is_empty() {
            out.push_str(",\n      \"notes\": [");
            for (j, note) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        {{ \"message\": {}", json_str(&note.message));
                if let Some(s) = note.span {
                    let lc = line_col(source, s.start);
                    let _ = write!(out, ", \"line\": {}, \"col\": {}", lc.line, lc.col);
                }
                out.push_str(" }");
            }
            out.push_str("\n      ]");
        }
        if let Some(sugg) = &d.suggestion {
            let _ = write!(
                out,
                ",\n      \"suggestion\": {{ \"start\": {}, \"end\": {}, \"replacement\": {} }}",
                sugg.span.start,
                sugg.span.end,
                json_str(&sugg.replacement)
            );
        }
        out.push_str("\n    }");
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    let (e, w, n, h) = count(diags);
    let _ = write!(
        out,
        "  \"summary\": {{ \"errors\": {e}, \"warnings\": {w}, \"notes\": {n}, \"helps\": {h} }}\n}}"
    );
    out
}

/// `(errors, warnings, notes, helps)` of a diagnostic list.
pub fn count(diags: &[Diagnostic]) -> (usize, usize, usize, usize) {
    let of = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    (
        of(Severity::Error),
        of(Severity::Warning),
        of(Severity::Note),
        of(Severity::Help),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::codes;
    use receivers_sql::Span;

    #[test]
    fn human_rendering_points_a_caret_at_the_span() {
        let src = "delete from Payroll where Salary in table Fire";
        let d = Diagnostic::new(codes::UNKNOWN_TABLE, "unknown table `Payroll`")
            .with_span(Span::new(12, 19))
            .note("the catalog defines `Employee`, `Fire`, `NewSal`");
        let r = render(&d, src);
        let expected = "\
error[R0003]: unknown table `Payroll`
 --> 1:13
  |
1 | delete from Payroll where Salary in table Fire
  |             ^^^^^^^
  = note: the catalog defines `Employee`, `Fire`, `NewSal`
";
        assert_eq!(r, expected);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let src = "x";
        let d = Diagnostic::new(codes::SYNTAX_ERROR, "bad \"quote\"").with_span(Span::new(0, 1));
        let j = render_json(&[d], src);
        assert!(j.contains("\"message\": \"bad \\\"quote\\\"\""));
        assert!(j.contains("\"span\": { \"start\": 0, \"end\": 1, \"line\": 1, \"col\": 1 }"));
        assert!(j.ends_with(
            "\"summary\": { \"errors\": 1, \"warnings\": 0, \"notes\": 0, \"helps\": 0 }\n}"
        ));
    }

    #[test]
    fn empty_report_renders_an_empty_array() {
        assert_eq!(
            render_json(&[], ""),
            "{\n  \"diagnostics\": [],\n  \"summary\": { \"errors\": 0, \"warnings\": 0, \"notes\": 0, \"helps\": 0 }\n}"
        );
    }
}
