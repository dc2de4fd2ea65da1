//! Plain-text report tables for the experiment binaries.
//!
//! The experiments print fixed-width ASCII tables mirroring the paper's
//! figures, one binary per figure in `biorank-experiments`.

use crate::harness::MethodAp;

/// Renders a Fig. 5-style table: one column per method plus the random
/// baseline, rows = mean and stdev.
pub fn ap_table(title: &str, methods: &[MethodAp]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = 10usize;
    let mut header = format!("{:<8}", "");
    let mut mean_row = format!("{:<8}", "Mean");
    let mut std_row = format!("{:<8}", "Stdv");
    for m in methods {
        header.push_str(&format!("{:>width$}", shorten(&m.method)));
        mean_row.push_str(&format!("{:>width$.2}", m.summary.mean));
        std_row.push_str(&format!("{:>width$.2}", m.summary.std_dev));
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&mean_row);
    out.push('\n');
    out.push_str(&std_row);
    out.push('\n');
    out
}

/// Renders a generic table with a header row and aligned columns.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:<w$}", cell, w = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    render(&header_cells, &widths, &mut out);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    render(&sep, &widths, &mut out);
    for row in rows {
        render(row, &widths, &mut out);
    }
    out
}

/// Shortens method names to the paper's column labels.
fn shorten(name: &str) -> String {
    match name {
        "Rel(R&MC)" | "Rel(MC)" | "Rel(closed)" | "Rel(naiveMC)" => "Rel".to_string(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn ap_table_renders_means() {
        let methods = vec![
            MethodAp {
                method: "Rel(R&MC)".into(),
                per_case: vec![0.8, 0.9],
                summary: summarize(&[0.8, 0.9]),
            },
            MethodAp {
                method: "InEdge".into(),
                per_case: vec![0.5, 0.7],
                summary: summarize(&[0.5, 0.7]),
            },
        ];
        let t = ap_table("Scenario 1", &methods);
        assert!(t.contains("Scenario 1"));
        assert!(t.contains("Rel"));
        assert!(t.contains("InEdge"));
        assert!(t.contains("0.85"));
        assert!(t.contains("0.60"));
    }

    #[test]
    fn generic_table_aligns_columns() {
        let t = table(
            &["Protein", "Rank"],
            &[
                vec!["ABCC8".into(), "1".into()],
                vec!["CFTR".into(), "21-22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Protein"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].contains("21-22"));
    }

    #[test]
    fn shorten_maps_reliability_variants() {
        assert_eq!(shorten("Rel(R&MC)"), "Rel");
        assert_eq!(shorten("Prop"), "Prop");
    }
}
