//! Benchmark harness for the Dynamic Quarantine reproduction.
//!
//! Two entry points:
//!
//! * the **`figures` binary** (`cargo run --release -p dynaquar-bench
//!   --bin figures -- all`) regenerates the data series behind every
//!   figure and in-prose table of the paper, printing the same rows the
//!   paper plots and writing CSVs;
//! * the **Criterion benches** (`cargo bench -p dynaquar-bench`), one per
//!   figure plus ablations (ODE steppers, routing precomputation, rate
//!   limiter implementations, cap-weight normalization).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dynaquar_core::experiments::{ExperimentOutput, Quality};

/// Renders an experiment's outcome as the text block the `figures`
/// binary prints: title, notes, per-curve summary rows, and check
/// verdicts.
pub fn render_output(out: &ExperimentOutput) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "=== {} [{}]", out.title, out.id);
    for note in &out.notes {
        let _ = writeln!(s, "    note: {note}");
    }
    for curve in out.series.iter() {
        let summary = dynaquar_epidemic::timeto::CurveSummary::of(&curve.series);
        let _ = writeln!(s, "    curve {:<45} {}", curve.label, summary);
    }
    for check in &out.checks {
        let verdict = if check.passed { "PASS" } else { "FAIL" };
        let _ = writeln!(s, "    [{verdict}] {} ({})", check.description, check.details);
    }
    s
}

/// Renders an experiment's outcome as a Markdown section (used by
/// `figures --markdown` to regenerate EXPERIMENTS-style reports).
pub fn render_markdown(out: &ExperimentOutput) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "### `{}` — {}\n", out.id, out.title);
    for note in &out.notes {
        let _ = writeln!(s, "> {note}");
    }
    if !out.notes.is_empty() {
        s.push('\n');
    }
    if !out.series.is_empty() {
        let _ = writeln!(s, "| curve | t10 | t50 | t90 | final |");
        let _ = writeln!(s, "|---|---|---|---|---|");
        for curve in out.series.iter() {
            let summary = dynaquar_epidemic::timeto::CurveSummary::of(&curve.series);
            let cell = |v: Option<f64>| v.map_or_else(|| "—".to_string(), |t| format!("{t:.1}"));
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {:.3} |",
                curve.label,
                cell(summary.t10),
                cell(summary.t50),
                cell(summary.t90),
                summary.final_value
            );
        }
        s.push('\n');
    }
    let _ = writeln!(s, "| check | verdict | measured |");
    let _ = writeln!(s, "|---|---|---|");
    for check in &out.checks {
        let verdict = if check.passed { "**PASS**" } else { "**FAIL**" };
        let _ = writeln!(s, "| {} | {verdict} | {} |", check.description, check.details);
    }
    s.push('\n');
    s
}

/// Runs one experiment by id at the given quality.
///
/// # Panics
///
/// Panics if `id` is unknown.
pub fn run_experiment(id: &str, quality: Quality) -> ExperimentOutput {
    dynaquar_core::experiments::run(id, quality)
        .unwrap_or_else(|| panic!("unknown experiment id {id}"))
}

/// Pulls the first number following `"key":` out of a JSON text — the
/// minimal reader the bench binaries use to read back their own flat
/// reports without a JSON dependency. The key may sit at any depth; the
/// first occurrence in the text wins. `None` when the key is absent or
/// not followed by a number.
pub fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)?;
    let rest = text[at + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_reads_nested_keys_and_exponents() {
        let text = r#"{"outer": {"rows": [{"threads": 4, "run_secs": 1.5e-3}]}, "n": -2}"#;
        assert_eq!(json_f64(text, "threads"), Some(4.0));
        assert_eq!(json_f64(text, "run_secs"), Some(0.0015));
        assert_eq!(json_f64(text, "n"), Some(-2.0));
        assert_eq!(json_f64(text, "missing"), None);
        // A key whose value is not a number reads as absent.
        assert_eq!(json_f64(text, "outer"), None);
    }

    #[test]
    fn render_includes_title_and_checks() {
        let out = run_experiment("fig2", Quality::Quick);
        let text = render_output(&out);
        assert!(text.contains("Figure 2"));
        assert!(text.contains("PASS"));
        assert!(text.contains("curve"));
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        run_experiment("nope", Quality::Quick);
    }

    #[test]
    fn markdown_renders_tables() {
        let out = run_experiment("fig2", Quality::Quick);
        let md = render_markdown(&out);
        assert!(md.starts_with("### `fig2`"));
        assert!(md.contains("| curve | t10 | t50 | t90 | final |"));
        assert!(md.contains("**PASS**"));
        assert!(md.contains("| No RL |"));
    }

    #[test]
    fn markdown_for_tables_omits_curve_table() {
        let out = run_experiment("tab_worms", Quality::Quick);
        let md = render_markdown(&out);
        assert!(!md.contains("| curve |"));
        assert!(md.contains("| check | verdict | measured |"));
    }
}
