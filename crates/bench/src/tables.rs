//! Plain-text table rendering for the figure harness.

/// A fixed-width text table with a title and column headers.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append one row (cells already formatted).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Append an annotation printed under the table (e.g. the paper's
    /// corresponding claim).
    pub(crate) fn note(&mut self, note: impl Into<String>) -> &mut Table {
        self.notes.push(note.into());
        self
    }

    /// Render to a string.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds adaptively (s / ms / µs).
pub(crate) fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.1} µs", secs * 1e6)
    }
}

/// Format bytes adaptively (B / KB / MB), the unit chosen by magnitude
/// so a negative count scales like a positive one.
pub(crate) fn fmt_bytes(bytes: f64) -> String {
    if bytes.abs() >= 1048576.0 {
        format!("{:.2} MB", bytes / 1048576.0)
    } else if bytes.abs() >= 1024.0 {
        format!("{:.2} KB", bytes / 1024.0)
    } else {
        format!("{bytes:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["a", "metric"]);
        t.row(vec!["1".into(), "10.0".into()]);
        t.row(vec!["200".into(), "7".into()]);
        t.note("paper says x");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("note: paper says x"));
        // Right-aligned: the '200' row starts at the same width as header.
        assert!(s.lines().any(|l| l.trim_start().starts_with("200")));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        Table::new("t", &["a", "b"]).row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0021), "2.10 ms");
        assert_eq!(fmt_secs(0.0000005), "0.5 µs");
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2048.0), "2.00 KB");
        assert_eq!(fmt_bytes(3.0 * 1048576.0), "3.00 MB");
        assert_eq!(fmt_bytes(-512.0), "-512 B");
        assert_eq!(fmt_bytes(-31760.0), "-31.02 KB");
        assert_eq!(fmt_bytes(-3.0 * 1048576.0), "-3.00 MB");
    }
}
