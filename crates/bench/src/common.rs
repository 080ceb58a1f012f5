//! Shared plumbing for the experiment harness: dataset scales, workload
//! builders, and result-table formatting.

use datagen::{CarGenerator, HaiGenerator, TpchGenerator};
use dataset::{Dataset, DirtyDataset};
use distributed::DistributedStreamingSession;
use mlnclean::{ChangeSet, Report};
use rules::RuleSet;

/// Number of worker threads the rayon pool uses (recorded in every
/// `BENCH_*.json` so perf points are comparable across machines).
pub fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

/// Peak-RSS meter backed by Linux's `/proc/self/status` (`VmHWM`, the
/// resident-set high-water mark) with an explicit capability probe so the
/// artifacts stay honest on platforms without procfs.
///
/// Writing `"5"` to `/proc/self/clear_refs` resets the high-water mark to
/// the *current* RSS, which lets the ladder attribute a per-engine peak to
/// each engine run instead of one monotone process-wide number.  Where the
/// reset is unavailable the readings are still recorded, flagged
/// `resettable: false` (they then measure the process-wide peak so far).
#[derive(Debug, Clone, Copy)]
pub struct PeakRss {
    /// `VmHWM` is readable at all.
    pub supported: bool,
    /// The high-water mark can be reset between engine runs.
    pub resettable: bool,
}

impl PeakRss {
    /// Probe what the platform supports.
    pub fn probe() -> Self {
        let supported = Self::read_kib().is_some();
        let resettable = supported && std::fs::write("/proc/self/clear_refs", "5").is_ok();
        PeakRss {
            supported,
            resettable,
        }
    }

    /// Reset the high-water mark to the current RSS (no-op when the platform
    /// cannot).
    pub fn reset(&self) {
        if self.resettable {
            let _ = std::fs::write("/proc/self/clear_refs", "5");
        }
    }

    /// Read the peak RSS in KiB, or `None` off-Linux.
    pub fn read_kib() -> Option<u64> {
        Self::status_kib("VmHWM:")
    }

    /// Read the *current* RSS in KiB, or `None` off-Linux.  Right after
    /// [`reset`](Self::reset) this equals the high-water mark, which makes
    /// it the floor to subtract when attributing peak growth to one run
    /// (allocators retain freed memory, so the floor is not zero even when
    /// everything from earlier runs has been dropped).
    pub fn current_kib() -> Option<u64> {
        Self::status_kib("VmRSS:")
    }

    fn status_kib(key: &str) -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
}

/// How large the synthetic datasets are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few hundred rows — used by unit/integration smoke tests.
    Tiny,
    /// A few thousand rows — the default for `cargo run -p bench`.
    Small,
    /// Tens of thousands of rows — closer to the paper's sizes; slower.
    Full,
}

impl Scale {
    /// Parse from the command line.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    fn hai_rows(&self) -> usize {
        match self {
            Scale::Tiny => 400,
            Scale::Small => 2_500,
            Scale::Full => 20_000,
        }
    }

    fn car_rows(&self) -> usize {
        match self {
            Scale::Tiny => 600,
            Scale::Small => 2_500,
            Scale::Full => 15_000,
        }
    }

    fn tpch_rows(&self) -> usize {
        match self {
            Scale::Tiny => 500,
            Scale::Small => 4_000,
            Scale::Full => 40_000,
        }
    }
}

/// The two evaluation datasets of the single-node experiments plus the
/// TPC-H-style dataset of the distributed experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense hospital-measures data (paper's HAI).
    Hai,
    /// Sparse used-vehicle data (paper's CAR).
    Car,
    /// Wide customer × line-item join (paper's TPC-H).
    Tpch,
}

impl Workload {
    /// Name used in table headers and CSV files.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Hai => "HAI",
            Workload::Car => "CAR",
            Workload::Tpch => "TPC-H",
        }
    }

    /// The AGP threshold τ used for this workload in the comparison
    /// experiments (the per-dataset optimum, analogous to the paper's τ=10
    /// for HAI and τ=1 for CAR; the synthetic stand-ins have smaller groups,
    /// so their optima are smaller too).
    pub fn default_tau(&self) -> usize {
        match self {
            Workload::Hai => 2,
            Workload::Car => 1,
            Workload::Tpch => 2,
        }
    }

    /// The MLNClean configuration used for this workload in the comparison
    /// experiments: the per-dataset optimal τ plus the AGP merge guard,
    /// which the synthetic data needs because (unlike the paper's real
    /// datasets) it has legitimately rare reason-part values at these scales.
    pub fn clean_config(&self) -> mlnclean::CleanConfig {
        mlnclean::CleanConfig::default()
            .with_tau(self.default_tau())
            .with_agp_distance_guard(0.15)
    }

    /// The rule set of Table 4 for this workload.
    pub fn rules(&self) -> RuleSet {
        match self {
            Workload::Hai => HaiGenerator::rules(),
            Workload::Car => CarGenerator::rules(),
            Workload::Tpch => TpchGenerator::rules(),
        }
    }

    /// Clean `dirty` with the exact streaming coordinator over `partitions`
    /// partitions, the table applied as one change set (fig15, table6).
    pub fn clean_distributed(&self, dirty: &Dataset, partitions: usize) -> Report {
        let (schema, rules) = (dirty.schema().clone(), self.rules());
        let mut session =
            DistributedStreamingSession::new(self.clean_config(), schema, rules, partitions, 1)
                .expect("rules match the schema");
        let rows = dirty.tuples().map(|t| t.owned_values()).collect();
        session
            .apply(ChangeSet::inserting(rows))
            .expect("rows match the schema");
        session.finish()
    }

    /// Generate a dirty dataset at the given error rate / replacement ratio.
    pub fn dirty(
        &self,
        scale: Scale,
        error_rate: f64,
        replacement_ratio: f64,
        seed: u64,
    ) -> DirtyDataset {
        match self {
            Workload::Hai => HaiGenerator::default().with_rows(scale.hai_rows()).dirty(
                error_rate,
                replacement_ratio,
                seed,
            ),
            Workload::Car => CarGenerator::default().with_rows(scale.car_rows()).dirty(
                error_rate,
                replacement_ratio,
                seed,
            ),
            Workload::Tpch => TpchGenerator::default().with_rows(scale.tpch_rows()).dirty(
                error_rate,
                replacement_ratio,
                seed,
            ),
        }
    }
}

/// A simple fixed-width text table that is also serializable to CSV.
#[derive(Debug, Clone, Default)]
pub struct ResultTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Start a table with a title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        ResultTable {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Render as an aligned text table (what the `experiments` binary prints).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// Format a float with three decimals (the precision the paper reports).
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a duration in milliseconds.
pub fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut t = ResultTable::new("demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        let text = t.to_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("333"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "a,bb");
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn workloads_have_valid_rules() {
        for w in [Workload::Hai, Workload::Car, Workload::Tpch] {
            let dirty = w.dirty(Scale::Tiny, 0.05, 0.5, 1);
            assert!(w.rules().is_valid_for(dirty.dirty.schema()), "{}", w.name());
            assert!(dirty.error_count() > 0);
        }
    }

    #[test]
    fn peak_rss_meter_is_consistent_with_its_probe() {
        let meter = PeakRss::probe();
        // On Linux both capabilities hold and a reading exists; elsewhere the
        // probe must say so instead of fabricating numbers.
        if meter.supported {
            let kib = PeakRss::read_kib().expect("supported meter reads");
            assert!(kib > 0);
            meter.reset();
            assert!(PeakRss::read_kib().is_some());
        } else {
            assert!(!meter.resettable);
            assert!(PeakRss::read_kib().is_none());
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Tiny.hai_rows() < Scale::Small.hai_rows());
        assert!(Scale::Small.hai_rows() < Scale::Full.hai_rows());
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("x"), None);
    }
}
