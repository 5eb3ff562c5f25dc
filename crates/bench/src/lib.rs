//! # bff-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§5). Each figure has a binary printing the same
//! rows/series the paper reports, and `paper` runs everything, writing
//! CSV files under `target/paper/`.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig4` | Fig. 4(a-d): multideployment sweep |
//! | `fig5` | Fig. 5(a-b): multisnapshotting sweep |
//! | `fig6` | Fig. 6: Bonnie++ throughput |
//! | `fig7` | Fig. 7: Bonnie++ operations/s |
//! | `fig8` | Fig. 8: Monte Carlo application |
//! | `ablations` | Design-choice sweeps from DESIGN.md §3 |
//! | `paper` | All of the above |
//! | `dedup_sweep` | Write dedup off/on, cluster dedup index, snapshot GC (`BENCH_3`, `BENCH_5`) |
//! | `prefetch_sweep` | Cross-VM prefetching and the pipelined chain (`BENCH_4`, `BENCH_5`) |
//! | `load_sweep` | The wall-clock [`storm`] under a table of deployments: `--transport` or `--durable` (`BENCH_7`, `BENCH_9`) |
//! | `recovery_sweep` | The [`storm`] while `blob_server` processes are `kill -9`ed and respawned (`BENCH_8`) |
//! | `blob_server` | Hosts any subset of the server roles in its own process |
//! | `bench_regression` | The CI gate: one table of (baseline, summary, key, floor) rows |
//!
//! Criterion microbenches (`cargo bench`) cover the hot data structures:
//! segment-tree shadowing, range sets, payload ropes, the max-min flow
//! network, chunk maps and the qcow2 mapping path.

pub mod procs;
pub mod storm;

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Scale selector for figure binaries: `--mini` runs the test-sized
/// configuration (seconds), default runs paper scale (minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Paper-scale: 2 GB image, up to 110 instances.
    Paper,
    /// Miniature (CI-sized) run exercising identical code paths.
    Mini,
}

impl RunScale {
    /// Parse from argv: `--mini` selects the miniature scale.
    pub fn from_args() -> RunScale {
        if std::env::args().any(|a| a == "--mini") {
            RunScale::Mini
        } else {
            RunScale::Paper
        }
    }

    /// The experiment scale object.
    pub fn exp_scale(self) -> bff_cloud::experiments::ExpScale {
        match self {
            RunScale::Paper => bff_cloud::experiments::ExpScale::paper(),
            RunScale::Mini => bff_cloud::experiments::ExpScale::mini(),
        }
    }

    /// Instance-count sweep matching the figure x-axes.
    pub fn sweep(self) -> Vec<usize> {
        match self {
            RunScale::Paper => vec![1, 20, 40, 60, 80, 100, 110],
            RunScale::Mini => vec![2, 4, 8],
        }
    }
}

/// The value following `flag` on the command line, if any.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    args.find(|a| a == flag)?;
    Some(
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value")),
    )
}

/// Where CSV outputs go.
pub fn output_dir() -> PathBuf {
    let dir = Path::new("target").join("paper");
    fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// A simple fixed-width table printer that doubles as a CSV writer.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Print to stdout and write `<name>.csv` under [`output_dir`].
    pub fn emit(&self) {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        println!("\n== {} ==", self.name);
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
        // CSV.
        let path = output_dir().join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "{}", self.headers.join(",")).expect("write csv");
        for row in &self.rows {
            writeln!(f, "{}", row.join(",")).expect("write csv");
        }
        println!("[written {}]", path.display());
        // JSON (one object per row) — the format CI uploads as artifacts.
        let path = output_dir().join(format!("{}.json", self.name));
        fs::write(&path, self.to_json()).expect("write json");
        println!("[written {}]", path.display());
    }

    /// The table as a JSON array of row objects (cells as strings).
    pub fn to_json(&self) -> String {
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, c)| format!("\"{}\":\"{}\"", escape(h), escape(c)))
                    .collect();
                format!("  {{{}}}", fields.join(","))
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Write `<file>` under [`output_dir`] as one flat JSON object — the
/// form `bench_regression` reads — and echo it.
pub fn write_summary(file: &str, fields: &[(&str, String)]) {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    let text = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = output_dir().join(file);
    fs::write(&path, &text).expect("write summary");
    print!("\n{text}");
    println!("[written {}]", path.display());
}

/// Format a float with 3 decimals (display helper for tables).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("unit-test-table", &["a", "b"]);
        t.row(&[&1, &f3(2.5)]);
        t.emit();
        let csv = fs::read_to_string(output_dir().join("unit-test-table.csv")).unwrap();
        assert_eq!(csv, "a,b\n1,2.500\n");
        let json = fs::read_to_string(output_dir().join("unit-test-table.json")).unwrap();
        assert_eq!(json, "[\n  {\"a\":\"1\",\"b\":\"2.500\"}\n]\n");
    }

    #[test]
    fn scales_parse() {
        assert_eq!(RunScale::Paper.sweep().last(), Some(&110));
        assert!(RunScale::Mini.sweep().len() >= 2);
    }
}
