//! What an experiment returns: a [`Report`] is data — a title, note lines,
//! tables and shape [`Check`]s — and its `Display` impl is the one renderer,
//! so table rules and the `[ok]`/`[MISS]` spelling are decided here only.

use std::fmt;

/// One verdict on a qualitative claim of the paper ("LoCEC-CNN is the best
/// method"). The binary prints it; the shape tests assert on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// The claim, with the measured value where there is one.
    pub name: String,
    /// Whether the synthetic world reproduces it.
    pub ok: bool,
}

/// A captioned table of preformatted cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Printed above the header; may be empty.
    pub caption: String,
    /// Column names.
    pub header: Vec<String>,
    /// Rows, each as long as `header`.
    pub rows: Vec<Vec<String>>,
}

/// Splits a `a | b | c` line into its trimmed cells.
fn cells(line: &str) -> Vec<String> {
    line.split('|').map(|cell| cell.trim().to_owned()).collect()
}

impl Table {
    /// An empty table; `header` names the columns as `a | b | c`.
    pub fn new(caption: &str, header: &str) -> Table {
        Table {
            caption: caption.to_owned(),
            header: cells(header),
            rows: Vec::new(),
        }
    }

    /// Appends one row, written like the header: `x | 0.123 | 45.6%`.
    pub fn row(&mut self, line: impl AsRef<str>) {
        let row = cells(line.as_ref());
        assert_eq!(row.len(), self.header.len(), "row width ≠ header width");
        self.rows.push(row);
    }
}

/// The result of one experiment.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// E.g. `Table IV: Relationship Classification Performance`.
    pub title: String,
    /// Free-form lines printed under the title.
    pub notes: Vec<String>,
    /// The regenerated table(s) or figure series.
    pub tables: Vec<Table>,
    /// Shape verdicts.
    pub checks: Vec<Check>,
}

impl Report {
    /// A report with a title and nothing else yet.
    pub fn new(title: &str) -> Report {
        Report {
            title: title.to_owned(),
            ..Report::default()
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Appends a shape check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            name: name.into(),
            ok,
        });
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.caption.is_empty() {
            writeln!(f, "{}", self.caption)?;
        }
        let lines = || std::iter::once(&self.header).chain(&self.rows);
        let width = |c: usize| {
            lines()
                .map(|line| line[c].chars().count())
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..self.header.len()).map(width).collect();
        for (i, line) in lines().enumerate() {
            for (cell, &w) in line.iter().zip(&widths) {
                // Numbers read best flush right, text flush left.
                if cell.starts_with(|ch: char| ch.is_ascii_digit()) {
                    write!(f, "| {cell:>w$} ")?;
                } else {
                    write!(f, "| {cell:<w$} ")?;
                }
            }
            writeln!(f, "|")?;
            if i == 0 {
                widths
                    .iter()
                    .try_for_each(|w| write!(f, "|{:-<1$}", "", w + 2))?;
                writeln!(f, "|")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        for table in &self.tables {
            write!(f, "\n{table}")?;
        }
        if !self.checks.is_empty() {
            writeln!(f, "\nShape checks:")?;
        }
        for check in &self.checks {
            let verdict = if check.ok { "ok" } else { "MISS" };
            writeln!(f, "  [{verdict}] {}", check.name)?;
        }
        writeln!(f)
    }
}
