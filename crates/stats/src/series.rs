//! Labelled numeric series — the textual analogue of a line/bar figure.

use std::fmt;

/// A named family of `(x, y)` points, rendered as aligned text columns.
///
/// A figure with several lines becomes one [`Series`] per line sharing the
/// same x-labels; the experiment harness prints them side by side so a
/// figure can be "regenerated" as text and compared against the paper's
/// plotted curves.
///
/// # Examples
///
/// ```
/// use predbranch_stats::Series;
///
/// let mut s = Series::new("F5: misp vs size", "size KB");
/// s.line("gshare");
/// s.line("gshare+PGU");
/// s.point("1", &[8.1, 7.0]);
/// s.point("2", &[7.5, 6.2]);
/// assert_eq!(s.lines().len(), 2);
/// assert!(s.to_string().contains("gshare+PGU"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    title: String,
    x_label: String,
    lines: Vec<String>,
    points: Vec<(String, Vec<f64>)>,
}

impl Series {
    /// Creates an empty series collection with a title and x-axis label.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Self {
        Series {
            title: title.into(),
            x_label: x_label.into(),
            lines: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Declares a line (one curve in the figure). Lines must be declared
    /// before points are added.
    ///
    /// # Panics
    ///
    /// Panics if points have already been added.
    pub fn line(&mut self, name: impl Into<String>) {
        assert!(
            self.points.is_empty(),
            "declare all lines before adding points"
        );
        self.lines.push(name.into());
    }

    /// Adds one x position with a y value per declared line.
    ///
    /// # Panics
    ///
    /// Panics if `ys.len()` does not match the number of declared lines.
    pub fn point(&mut self, x: impl Into<String>, ys: &[f64]) {
        assert_eq!(
            ys.len(),
            self.lines.len(),
            "one y value required per declared line"
        );
        self.points.push((x.into(), ys.to_vec()));
    }

    /// The figure title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Declared line names.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The recorded `(x, ys)` points.
    pub fn points(&self) -> &[(String, Vec<f64>)] {
        &self.points
    }

    /// The y values of line `idx` across all points, if the line exists.
    pub fn line_values(&self, idx: usize) -> Option<Vec<f64>> {
        if idx >= self.lines.len() {
            return None;
        }
        Some(self.points.iter().map(|(_, ys)| ys[idx]).collect())
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let xw = self
            .points
            .iter()
            .map(|(x, _)| x.len())
            .chain(std::iter::once(self.x_label.len()))
            .max()
            .unwrap_or(4);
        let lw: Vec<usize> = self.lines.iter().map(|l| l.len().max(8)).collect();
        write!(f, "{:<xw$}", self.x_label)?;
        for (line, w) in self.lines.iter().zip(&lw) {
            write!(f, "  {line:>w$}")?;
        }
        writeln!(f)?;
        let rule = xw + lw.iter().map(|w| w + 2).sum::<usize>();
        writeln!(f, "{}", "-".repeat(rule))?;
        for (x, ys) in &self.points {
            write!(f, "{x:<xw$}")?;
            for (y, w) in ys.iter().zip(&lw) {
                write!(f, "  {y:>w$.4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("fig", "x");
        s.line("base");
        s.line("new");
        s.point("a", &[1.0, 2.0]);
        s.point("b", &[3.0, 4.0]);
        s
    }

    #[test]
    fn lines_and_points_recorded() {
        let s = sample();
        assert_eq!(s.lines(), &["base".to_string(), "new".to_string()]);
        assert_eq!(s.points().len(), 2);
    }

    #[test]
    fn line_values_extracts_column() {
        let s = sample();
        assert_eq!(s.line_values(0).unwrap(), vec![1.0, 3.0]);
        assert_eq!(s.line_values(1).unwrap(), vec![2.0, 4.0]);
        assert!(s.line_values(2).is_none());
    }

    #[test]
    #[should_panic(expected = "one y value")]
    fn point_arity_checked() {
        let mut s = sample();
        s.point("c", &[1.0]);
    }

    #[test]
    #[should_panic(expected = "before adding points")]
    fn late_line_declaration_rejected() {
        let mut s = sample();
        s.line("too late");
    }

    #[test]
    fn display_contains_all_labels() {
        let text = sample().to_string();
        for needle in ["fig", "base", "new", "a", "b", "1.0000", "4.0000"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn empty_series_displays_header_only() {
        let s = Series::new("empty", "x");
        let text = s.to_string();
        assert!(text.contains("empty"));
    }
}
