//! Minimal fixed-width text tables for experiment output.

/// A simple text table: headers plus rows, rendered with aligned columns.
///
/// ```
/// use franklin_dhar_icn::table::TextTable;
/// let mut t = TextTable::new(vec!["W", "N=16"]);
/// t.row(vec!["1".into(), "69".into()]);
/// let s = t.render();
/// assert!(s.contains("W"));
/// assert!(s.contains("69"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    ///
    /// # Panics
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns, a header separator, and a trailing
    /// newline.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numeric-looking cells, left-align the rest.
                let numeric = cell
                    .chars()
                    .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | '%'));
                if numeric && !cell.is_empty() {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Eight-level bar glyphs, lowest to highest.
const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render `values` as a fixed-width sparkline, downsampling by taking the
/// max within each column (peaks are the signal in occupancy/backlog
/// series; averaging would smooth away exactly the onsets being plotted).
/// The scale is linear from zero to the series maximum.
#[must_use]
pub fn sparkline(values: &[u64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let peak = values.iter().copied().max().unwrap_or(0);
    let columns = width.min(values.len());
    let mut out = String::with_capacity(columns * BARS[0].len_utf8());
    for col in 0..columns {
        // Partition indices evenly: column c covers [c*n/cols, (c+1)*n/cols).
        let lo = col * values.len() / columns;
        let hi = ((col + 1) * values.len() / columns).max(lo + 1);
        let v = values[lo..hi].iter().copied().max().unwrap_or(0);
        // Scale so only the true peak reaches the top glyph.
        let level = v
            .saturating_mul(BARS.len() as u64 - 1)
            .saturating_add(peak / 2)
            .checked_div(peak)
            .unwrap_or(0);
        out.push(BARS[level as usize]);
    }
    out
}

/// Format a float with `digits` significant-looking decimal places, trimming
/// trailing zeros the way the paper's tables do (e.g. `14.8`, `0.91`, `32`).
#[must_use]
pub fn trim_float(value: f64, digits: usize) -> String {
    let s = format!("{value:.digits$}");
    if s.contains('.') {
        let trimmed = s.trim_end_matches('0').trim_end_matches('.');
        trimmed.to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "10000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("10000"));
    }

    #[test]
    fn numeric_cells_right_align() {
        let mut t = TextTable::new(vec!["W", "pins"]);
        t.row(vec!["1".into(), "69".into()]);
        t.row(vec!["8".into(), "294".into()]);
        let s = t.render();
        // "69" should be right-aligned under the 4-char "pins" column.
        assert!(s.contains("  69"), "got:\n{s}");
    }

    #[test]
    fn trim_float_matches_paper_style() {
        assert_eq!(trim_float(14.80, 1), "14.8");
        assert_eq!(trim_float(0.9100, 2), "0.91");
        assert_eq!(trim_float(32.0, 1), "32");
        assert_eq!(trim_float(6.06, 1), "6.1");
        assert_eq!(trim_float(6.04, 1), "6");
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn sparkline_scales_and_downsamples() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[0, 0], 2), "▁▁");
        assert_eq!(sparkline(&[0, 1, 2, 3, 4, 5, 6, 7], 8), "▁▂▃▄▅▆▇█");
        // Max-downsampling keeps the peak when width < len.
        let wide = sparkline(&[0, 0, 0, 9, 0, 0, 0, 0], 4);
        assert_eq!(wide.chars().count(), 4);
        assert!(wide.contains('█'));
    }

    #[test]
    fn len_and_empty() {
        let mut t = TextTable::new(vec!["a"]);
        assert!(t.is_empty());
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
    }
}
