//! Result persistence and table printing.
//!
//! Every figure prints the paper-style rows to stdout *and* writes
//! a JSON document under `results/` so EXPERIMENTS.md numbers are
//! regenerable and diffable.

use std::path::PathBuf;

use tchain_obs::json::{self, ToJson, Writer};
use tchain_obs::MetricMap;

use crate::runner::FailedCell;
use crate::scenario::RunOutcome;

tchain_obs::json_struct! {
    /// Aggregated observability bookkeeping for one figure's batch of
    /// runs, persisted next to the figure data by [`persist`].
    ///
    /// Every field is determined by the simulation alone, so a persisted
    /// document is a pure function of code, scale and seed: the same
    /// bytes for any `--jobs` worker count and on any host.
    #[derive(Debug, Clone, Default)]
    pub struct RunMeta {
        /// Simulator runs absorbed into this record.
        pub runs: u64,
        /// Cells that panicked, or that the verdict failed, in submission
        /// order; none of them is booked or averaged.
        pub failed_cells: Vec<FailedCell>,
        /// Named metrics from the stats registry, summed across runs.
        pub metrics: MetricMap,
    }
}

impl RunMeta {
    /// Sums a driver metric snapshot into the batch.
    pub(crate) fn absorb_metrics(&mut self, metrics: &MetricMap) {
        for (k, &v) in metrics {
            let slot = self.metrics.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
    }
}

/// A completed cell's output, as [`crate::runner::sweep_points`] books
/// it into its figure's [`RunMeta`].
pub trait Absorb {
    /// What the figure keeps once the cell is booked.
    type Booked;
    /// Books one run into `meta` and hands back what the figure keeps, or
    /// leaves `meta` alone and returns why the cell failed
    /// ([`RunOutcome::verdict`]).
    fn book(self, meta: &mut RunMeta) -> Result<Self::Booked, String>;
}

/// A swarm's outcome: its run and metrics, if the verdict passes it.
impl Absorb for RunOutcome {
    type Booked = RunOutcome;
    fn book(self, meta: &mut RunMeta) -> Result<RunOutcome, String> {
        self.verdict()?;
        meta.runs += 1;
        meta.absorb_metrics(&self.metrics);
        Ok(self)
    }
}

/// A swarm's outcome beside what the cell read from the swarm itself:
/// booked as the outcome alone.
impl<T> Absorb for (T, RunOutcome) {
    type Booked = (T, RunOutcome);
    fn book(self, meta: &mut RunMeta) -> Result<(T, RunOutcome), String> {
        let (extras, out) = self;
        Ok((extras, out.book(meta)?))
    }
}

/// A cell with no fluid swarm (analysis, overhead, every net
/// experiment's wire run): its value and a metric snapshot, booked as a
/// run and its metrics.
impl<T> Absorb for (T, MetricMap) {
    type Booked = T;
    fn book(self, meta: &mut RunMeta) -> Result<T, String> {
        meta.runs += 1;
        meta.absorb_metrics(&self.1);
        Ok(self.0)
    }
}

/// Directory for experiment outputs (repo-root `results/`, overridable
/// with `TCHAIN_RESULTS`).
pub fn results_dir() -> PathBuf {
    std::env::var("TCHAIN_RESULTS").map(PathBuf::from).unwrap_or_else(|_| {
        // Resolve relative to the workspace root when run via cargo.
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.pop();
        p.pop();
        p.push("results");
        p
    })
}

/// Serializes a figure's data plus its [`RunMeta`] as a two-field
/// document `{"meta": …, "data": …}` to `results/<name>.<scale>.json`.
pub fn save_with_meta<T: ToJson>(
    name: &str,
    scale: &str,
    data: &T,
    meta: &RunMeta,
) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.{scale}.json"));
    std::fs::write(&path, meta_document(data, meta))?;
    Ok(path)
}

/// The `{"meta": …, "data": …}` envelope, pretty-printed.
fn meta_document<T: ToJson>(data: &T, meta: &RunMeta) -> String {
    struct Document<'a, T>(&'a RunMeta, &'a T);
    impl<T: ToJson> ToJson for Document<'_, T> {
        fn write_json(&self, w: &mut Writer) {
            w.open('{');
            w.key("meta");
            self.0.write_json(w);
            w.key("data");
            self.1.write_json(w);
            w.close('}');
        }
    }
    json::to_string_pretty(&Document(meta, data))
}

/// Saves a figure document with run metadata; failures are reported on
/// stderr instead of panicking so a long sweep still prints its tables.
pub fn persist<T: ToJson>(name: &str, scale: &str, data: &T, meta: &RunMeta) {
    if let Err(e) = save_with_meta(name, scale, data, meta) {
        eprintln!("warning: failed to write results/{name}.{scale}.json: {e}");
    }
}

/// Prints a fixed-width table: header then rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats an optional mean (e.g. free-riders that never finished print
/// as `DNF`).
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "DNF".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_roundtrip() {
        let dir = std::env::temp_dir().join("tchain-results-test");
        std::env::set_var("TCHAIN_RESULTS", &dir);
        let meta = RunMeta { runs: 1, ..Default::default() };
        let path = save_with_meta("unit", "quick", &vec![1.0, 2.0], &meta).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc, meta_document(&vec![1.0, 2.0], &meta));
        std::env::remove_var("TCHAIN_RESULTS");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_meta_absorbs_runs() {
        let mut meta = RunMeta::default();
        let mut out = RunOutcome::default();
        out.metrics.insert("txns.completed".into(), 3);
        let out = out.book(&mut meta).unwrap();
        let (extras, out) = ("extras", out).book(&mut meta).unwrap();
        assert_eq!(extras, "extras");
        assert_eq!(meta.runs, 2);
        assert_eq!(meta.metrics["txns.completed"], 6, "metrics sum");
        assert_eq!(("value", out.metrics).book(&mut meta), Ok("value"));
        assert_eq!(meta.metrics["txns.completed"], 9);
        ((), MetricMap::new()).book(&mut meta).unwrap();
        assert_eq!(meta.metrics["txns.completed"], 9, "an empty map books a run only");
        assert_eq!(meta.runs, 4);
    }

    #[test]
    fn a_stranded_outcome_books_nothing() {
        let mut meta = RunMeta::default();
        let mut out = RunOutcome { stranded: 3, unfinished_compliant: 3, ..Default::default() };
        out.compliant_times = vec![1.0; 7];
        out.metrics.insert("txns.completed".into(), 3);
        let reason = ("extras", out).book(&mut meta).unwrap_err();
        assert!(reason.starts_with("stranded: 3 of 10 compliant leechers unfinished"), "{reason}");
        assert_eq!(meta.runs, 0);
        assert!(meta.metrics.is_empty());
    }

    #[test]
    fn meta_envelope_has_fixed_shape() {
        let mut meta = RunMeta { runs: 2, ..Default::default() };
        meta.metrics.insert("txns.completed".into(), 3);
        let doc = meta_document(&vec![1u64, 2], &meta);
        assert_eq!(
            doc,
            r#"{
  "meta": {
    "runs": 2,
    "failed_cells": [],
    "metrics": {
      "txns.completed": 3
    }
  },
  "data": [
    1,
    2
  ]
}"#
        );
    }

    #[test]
    fn failed_cells_are_persisted() {
        let meta = RunMeta {
            failed_cells: vec![crate::runner::FailedCell {
                figure: "figXX".into(),
                scenario: "T-Chain n=50".into(),
                seed: 42,
                panic: "boom".into(),
            }],
            ..Default::default()
        };
        let doc = meta_document(&Vec::<u64>::new(), &meta);
        assert!(doc.contains("figXX"));
        assert!(doc.contains("boom"));
    }

    #[test]
    fn fmt_opt_handles_dnf() {
        assert_eq!(fmt_opt(Some(12.34)), "12.3");
        assert_eq!(fmt_opt(None), "DNF");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
