//! Result persistence and table printing.
//!
//! Every figure binary prints the paper-style rows to stdout *and* writes
//! a JSON document under `results/` so EXPERIMENTS.md numbers are
//! regenerable and diffable.

use std::path::PathBuf;

use tchain_obs::json::{self, ToJson};
use tchain_obs::{MetricMap, PhaseProfile};

use crate::runner::FailedCell;
use crate::scenario::RunOutcome;

/// Aggregated observability bookkeeping for one figure's batch of runs,
/// persisted next to the figure data by [`persist`].
///
/// The persisted envelope separates the *simulation-determined* fields
/// (`runs`, `peak_event_depth`, `metrics`, `failed_cells`) from the
/// *host-measured* ones (`wall_clock_s`, `phases`): the former are
/// byte-identical for any `--jobs` worker count, the latter vary from
/// run to run and are emitted on a single strippable `"host"` line (see
/// [`deterministic_view`]) or omitted entirely with
/// `TCHAIN_HOST_META=off`.
#[derive(Debug, Clone, Default)]
pub struct RunMeta {
    /// Simulator runs absorbed into this record.
    pub runs: u64,
    /// Summed host wall-clock seconds across those runs.
    pub wall_clock_s: f64,
    /// Largest event-ring high-water mark seen (0 with tracing off).
    pub peak_event_depth: u64,
    /// Per-phase main-loop profile merged across runs (empty unless
    /// profiling was on).
    pub phases: PhaseProfile,
    /// Named metrics from the stats registry, summed across runs.
    pub metrics: MetricMap,
    /// Cells that panicked and were skipped by the runner.
    pub failed: Vec<FailedCell>,
}

impl RunMeta {
    /// Folds one run's bookkeeping into the batch record.
    pub fn absorb(&mut self, out: &RunOutcome) {
        self.runs += 1;
        self.wall_clock_s += out.wall_clock_s;
        self.peak_event_depth = self.peak_event_depth.max(out.peak_event_depth as u64);
        self.phases.merge(&out.phases);
        self.absorb_metrics(&out.metrics);
    }

    /// Counts a run driven outside [`crate::run_proto`] (figure modules
    /// that step a swarm directly), with its measured wall clock.
    pub fn note_run(&mut self, wall_clock_s: f64) {
        self.runs += 1;
        self.wall_clock_s += wall_clock_s;
    }

    /// Sums a driver metric snapshot into the batch (for directly-driven
    /// swarms, pairs with [`RunMeta::note_run`]).
    pub fn absorb_metrics(&mut self, metrics: &MetricMap) {
        for (k, &v) in metrics {
            let slot = self.metrics.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
    }

    /// Records a sweep's panicked cells into the batch (they are part of
    /// the persisted run summary, not a reason to abort the figure).
    pub fn note_failures(&mut self, failures: &[FailedCell]) {
        self.failed.extend_from_slice(failures);
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

/// Serializes a figure's data to `results/<name>.<scale>.json`.
pub fn save<T: ToJson>(name: &str, scale: &str, data: &T) -> std::io::Result<PathBuf> {
    write_results_file(name, scale, json::to_string_pretty(data))
}

/// Serializes a figure's data plus its [`RunMeta`] as a two-field
/// document `{"meta": …, "data": …}` to `results/<name>.<scale>.json`.
pub fn save_with_meta<T: ToJson>(
    name: &str,
    scale: &str,
    data: &T,
    meta: &RunMeta,
) -> std::io::Result<PathBuf> {
    write_results_file(name, scale, meta_document(data, meta))
}

/// Hand-assembled `{"meta": {"host": …, "sim": …}, "data": …}` envelope.
///
/// The two meta halves are built field-by-field from compactly
/// serialized values so the host-measured fields stay on one strippable
/// line (see [`deterministic_view`]). `TCHAIN_HOST_META=off` omits that
/// line, making the whole document byte-identical across repeated runs.
fn meta_document<T: ToJson>(data: &T, meta: &RunMeta) -> String {
    let sim = format!(
        "{{\n\"runs\": {},\n\"peak_event_depth\": {},\n\"failed_cells\": {},\n\"metrics\": {}\n}}",
        meta.runs,
        meta.peak_event_depth,
        json::to_string(&meta.failed),
        json::to_string(&meta.metrics),
    );
    let host_line = if host_meta_enabled() {
        format!(
            "\"host\": {{\"wall_clock_s\":{},\"phases\":{}}},\n",
            json::to_string(&meta.wall_clock_s),
            json::to_string(&meta.phases),
        )
    } else {
        String::new()
    };
    format!(
        "{{\n\"meta\": {{\n{host_line}\"sim\": {sim}\n}},\n\"data\": {}\n}}",
        json::to_string_pretty(data)
    )
}

fn host_meta_enabled() -> bool {
    !matches!(
        std::env::var("TCHAIN_HOST_META").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// Strips the host-measured line from a persisted results document,
/// leaving exactly the bytes that must be identical for any `--jobs`
/// worker count (and equal to a `TCHAIN_HOST_META=off` document). The
/// line filter relies on [`meta_document`] emitting the host object on
/// one line that starts with `"host": `.
pub fn deterministic_view(doc: &str) -> String {
    doc.lines()
        .filter(|l| !l.trim_start().starts_with("\"host\": "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Saves a figure document with run metadata; failures are reported on
/// stderr instead of panicking so a long sweep still prints its tables.
pub fn persist<T: ToJson>(name: &str, scale: &str, data: &T, meta: &RunMeta) {
    if let Err(e) = save_with_meta(name, scale, data, meta) {
        eprintln!("warning: failed to write results/{name}.{scale}.json: {e}");
    }
}

fn write_results_file(name: &str, scale: &str, json: String) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.{scale}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
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

    /// Serializes tests that read or toggle `TCHAIN_HOST_META`.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn save_roundtrip() {
        let dir = std::env::temp_dir().join("tchain-results-test");
        std::env::set_var("TCHAIN_RESULTS", &dir);
        let path = save("unit", "quick", &vec![1.0, 2.0]).unwrap();
        let back: Vec<f64> =
            json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1.0, 2.0]);
        std::env::remove_var("TCHAIN_RESULTS");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_meta_absorbs_runs() {
        let mut meta = RunMeta::default();
        let mut out = RunOutcome { wall_clock_s: 0.5, peak_event_depth: 7, ..Default::default() };
        out.metrics.insert("txns.completed".into(), 3);
        meta.absorb(&out);
        out.peak_event_depth = 4;
        meta.absorb(&out);
        assert_eq!(meta.runs, 2);
        assert_eq!(meta.peak_event_depth, 7, "peak takes the max");
        assert_eq!(meta.metrics["txns.completed"], 6, "metrics sum");
        assert!((meta.wall_clock_s - 1.0).abs() < 1e-12);
        meta.note_run(0.25);
        assert_eq!(meta.runs, 3);
    }

    #[test]
    fn meta_envelope_has_fixed_shape() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let meta = RunMeta { runs: 2, ..Default::default() };
        let doc = meta_document(&vec![1u64, 2], &meta);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"meta\""));
        assert!(doc.contains("\"data\""));
        assert!(doc.contains("\"runs\""));
        assert!(doc.contains("\"host\""));
        assert!(doc.contains("\"sim\""));
        assert!(doc.contains("\"failed_cells\""));
    }

    #[test]
    fn host_line_is_exactly_the_nondeterministic_part() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let meta = RunMeta { runs: 3, wall_clock_s: 1.25, ..Default::default() };
        let doc = meta_document(&vec![7u64], &meta);
        // The host object lives on a single line…
        let host_lines: Vec<&str> =
            doc.lines().filter(|l| l.trim_start().starts_with("\"host\": ")).collect();
        assert_eq!(host_lines.len(), 1);
        assert!(host_lines[0].contains("wall_clock_s"));
        // …and stripping it yields the TCHAIN_HOST_META=off document.
        let stripped = deterministic_view(&doc);
        assert!(!stripped.contains("wall_clock_s"));
        std::env::set_var("TCHAIN_HOST_META", "off");
        let off = meta_document(&vec![7u64], &meta);
        std::env::remove_var("TCHAIN_HOST_META");
        assert_eq!(stripped, off);
        // Two metas differing only in host measurements agree after the strip.
        let slower = RunMeta { runs: 3, wall_clock_s: 99.0, ..Default::default() };
        let doc2 = meta_document(&vec![7u64], &slower);
        assert_ne!(doc, doc2);
        assert_eq!(deterministic_view(&doc), deterministic_view(&doc2));
    }

    #[test]
    fn failed_cells_are_persisted() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut meta = RunMeta::default();
        meta.note_failures(&[crate::runner::FailedCell {
            figure: "figXX".into(),
            scenario: "T-Chain n=50".into(),
            seed: 42,
            panic: "boom".into(),
        }]);
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
