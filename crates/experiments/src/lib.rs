//! # marvel-experiments
//!
//! The paper-figure pipeline behind the per-table/figure reproduction
//! harnesses (`cargo bench -p marvel-experiments` regenerates every table
//! and figure of the paper's evaluation):
//!
//! * [`cpu_figures`] computes Figs. 4–13 ([`CPU_FIGURES`]);
//! * [`FigTable`] prints each figure's table and writes its CSV from the
//!   same cells;
//! * [`cpu_golden`] and [`dsa_golden`] build every golden run.
//!
//! Environment knobs:
//!
//! * `MARVEL_FAULTS` — faults per (structure × benchmark × ISA) cell
//!   (default 32 — sized for a single-core CI box; the paper uses 1000 ≈ 3% margin @ 95%).
//! * `MARVEL_BENCHES` — comma-separated benchmark subset.
//! * `MARVEL_WORKERS` — worker threads (default: all cores).
//!
//! Results are printed as the paper's rows/series and mirrored as CSV
//! under `results/` at the workspace root. CSV cells hold fractions, never
//! percents, and each CSV starts with one `#` line recording what produced
//! it: faults per cell, seed, benchmarks, margin and git revision.

use marvel_accel::FuConfig;
use marvel_core::{
    error_margin, run_campaign, weighted_avf, CampaignConfig, CampaignResult, DsaGolden, FaultKind,
    Golden, Target, CONFIDENCE, CPU_GOLDEN_BUDGET, DSA_GOLDEN_BUDGET,
};
use marvel_cpu::CoreConfig;
use marvel_ir::{assemble, Module};
use marvel_isa::Isa;
use marvel_soc::System;
use marvel_workloads::accel::DsaDesign;
use marvel_workloads::mibench;
use std::io::Write;

/// Campaign configuration from the environment.
pub fn config() -> CampaignConfig {
    let n_faults = std::env::var("MARVEL_FAULTS").ok().and_then(|v| v.parse().ok()).unwrap_or(32);
    let workers = std::env::var("MARVEL_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    CampaignConfig { n_faults, workers, ..Default::default() }
}

/// Benchmark subset from the environment (default: the full suite).
pub fn benches() -> Vec<&'static str> {
    match std::env::var("MARVEL_BENCHES") {
        Ok(s) => {
            mibench::NAMES.iter().copied().filter(|n| s.split(',').any(|x| x.trim() == *n)).collect()
        }
        Err(_) => mibench::NAMES.to_vec(),
    }
}

/// Golden run of `program` on `isa`, on the Table II core or with an
/// `int_prf`-entry integer PRF.
pub fn cpu_golden(program: &Module, isa: Isa, int_prf: Option<usize>) -> Golden {
    let bin = assemble(program, isa).unwrap_or_else(|e| panic!("assembling for {isa}: {e}"));
    let cfg = int_prf.map_or_else(|| CoreConfig::table2(isa), |n| CoreConfig::with_int_prf(isa, n));
    let mut sys = System::new(cfg);
    sys.load_binary(&bin);
    Golden::prepare(sys, CPU_GOLDEN_BUDGET).unwrap_or_else(|e| panic!("golden run on {isa}: {e}"))
}

/// Golden run of `design` built with functional units `fu`.
pub fn dsa_golden(design: &DsaDesign, fu: FuConfig) -> DsaGolden {
    DsaGolden::prepare((design.make)(fu), DSA_GOLDEN_BUDGET)
}

/// One of Figs. 4–13: a metric of one (target, fault kind) campaign per
/// benchmark × ISA.
#[derive(Debug, Clone, Copy)]
pub struct CpuFigure {
    /// Bench target name and `results/` CSV stem.
    pub file: &'static str,
    pub title: &'static str,
    pub target: Target,
    pub kind: FaultKind,
    /// The scalar the figure plots ([`CampaignResult::avf`] or
    /// [`CampaignResult::sdc_avf`]).
    pub metric: Metric,
}

/// A scalar read from a campaign's records.
pub type Metric = fn(&CampaignResult) -> f64;

const fn fig(
    file: &'static str,
    title: &'static str,
    target: Target,
    kind: FaultKind,
    metric: Metric,
) -> CpuFigure {
    CpuFigure { file, title, target, kind, metric }
}

/// Figs. 4–13. Figs. 9–11 are the SDC view of Figs. 4–6's campaigns, as
/// in the paper, where each run is classified once.
pub const CPU_FIGURES: [CpuFigure; 10] = {
    use FaultKind::{Permanent, Transient};
    const AVF: Metric = CampaignResult::avf;
    const SDC: Metric = CampaignResult::sdc_avf;
    [
        fig("fig04_rf_avf", "Fig. 4 (RF AVF)", Target::PrfInt, Transient, AVF),
        fig("fig05_l1i_avf", "Fig. 5 (L1I AVF)", Target::L1I, Transient, AVF),
        fig("fig06_l1d_avf", "Fig. 6 (L1D AVF)", Target::L1D, Transient, AVF),
        fig("fig07_lq_avf", "Fig. 7 (LQ AVF)", Target::LoadQueue, Transient, AVF),
        fig("fig08_sq_avf", "Fig. 8 (SQ AVF)", Target::StoreQueue, Transient, AVF),
        fig("fig09_rf_sdc", "Fig. 9 (RF SDC AVF)", Target::PrfInt, Transient, SDC),
        fig("fig10_l1i_sdc", "Fig. 10 (L1I SDC AVF)", Target::L1I, Transient, SDC),
        fig("fig11_l1d_sdc", "Fig. 11 (L1D SDC AVF)", Target::L1D, Transient, SDC),
        fig("fig12_l1i_perm", "Fig. 12 (L1I permanent SDC)", Target::L1I, Permanent, SDC),
        fig("fig13_l1d_perm", "Fig. 13 (L1D permanent SDC)", Target::L1D, Permanent, SDC),
    ]
};

/// Compute `figs` over [`benches`] × every ISA: one golden run (and the
/// ladder it freezes) per benchmark × ISA, and each distinct (target,
/// kind) campaign once, its records read by every figure that plots it.
pub fn cpu_figures(figs: &[CpuFigure]) -> Vec<FigTable> {
    let cc = config();
    let names = benches();
    let mut campaigns = Vec::new();
    for f in figs {
        if !campaigns.contains(&(f.target, f.kind)) {
            campaigns.push((f.target, f.kind));
        }
    }
    // (metric, golden cycles) per figure × ISA × benchmark.
    let mut cells = vec![vec![Vec::new(); Isa::ALL.len()]; figs.len()];
    for bench in &names {
        let program = mibench::build(bench);
        for (i, isa) in Isa::ALL.into_iter().enumerate() {
            let golden = cpu_golden(&program, isa, None);
            for &(target, kind) in &campaigns {
                let cc = CampaignConfig { kind, ..cc.clone() };
                let res = run_campaign(&golden, target, &cc);
                eprintln!(
                    "  [{bench}/{isa}] {} {kind:?}: avf={:.1}% sdc={:.1}%",
                    target.name(),
                    res.avf() * 100.0,
                    res.sdc_avf() * 100.0
                );
                for (f, fig) in figs.iter().enumerate() {
                    if (fig.target, fig.kind) == (target, kind) {
                        cells[f][i].push(((fig.metric)(&res), golden.exec_cycles as f64));
                    }
                }
            }
        }
    }
    let isas: Vec<_> = Isa::ALL.iter().map(|isa| (isa.name(), Unit::Frac)).collect();
    figs.iter()
        .zip(cells)
        .map(|(fig, cells)| {
            let mut t = FigTable::new(fig.file, fig.title, &names, &["benchmark"], &isas);
            for (b, bench) in names.iter().enumerate() {
                t.push(&[*bench], &cells.iter().map(|c| c[b].0).collect::<Vec<_>>());
            }
            t.push(&["wAVF"], &cells.iter().map(|c| weighted_avf(c)).collect::<Vec<_>>());
            t
        })
        .collect()
}

/// The harness for one of Figs. 4–13: reuse `results/<file>.csv` when
/// its `#` line is the one this run would write, else compute the
/// figure's own campaign.
pub fn cpu_figure_main(file: &str) {
    let fig = *CPU_FIGURES.iter().find(|f| f.file == file).expect("a Fig. 4-13 bench target");
    banner(fig.file, fig.title);
    let path = results_dir().join(format!("{file}.csv"));
    match std::fs::read_to_string(&path) {
        Ok(csv) if reusable(&csv, &Provenance::current(&benches()).header()) => {
            println!("[reusing {path:?}: same faults, seed, benchmarks and revision]");
            print!("{csv}");
        }
        _ => cpu_figures(&[fig])[0].print_and_save(),
    }
}

/// Whether a CSV was produced by the run whose `#` line is `header`.
fn reusable(csv: &str, header: &str) -> bool {
    csv.lines().next() == Some(header)
}

/// What produced a figure, written as the first line of its CSV. Equal
/// lines mean equal inputs, so a per-figure harness may reuse the CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Provenance {
    faults: usize,
    seed: u64,
    /// The benchmarks (or designs) the figure ran.
    benches: Vec<String>,
    /// The workspace's git revision, `unknown` without git.
    revision: String,
}

impl Provenance {
    /// This run's configuration ([`config`]) over `benches`.
    fn current(benches: &[&str]) -> Provenance {
        let cc = config();
        let revision = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        let benches = benches.iter().map(|b| b.to_string()).collect();
        Provenance { faults: cc.n_faults, seed: cc.seed, benches, revision }
    }

    /// The `#` line: faults per cell, seed, benchmarks, per-cell error
    /// margin at [`CONFIDENCE`] and revision.
    fn header(&self) -> String {
        format!(
            "# faults={} seed={:#x} benches={} margin={:.4} rev={}",
            self.faults,
            self.seed,
            self.benches.join(","),
            error_margin(self.faults.max(1), u64::MAX, CONFIDENCE),
            self.revision
        )
    }
}

/// How a value column prints and writes its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A rate: printed as a percent, written as a fraction.
    Frac,
    /// A whole number (runs, cycles).
    Count,
    /// A real number (area).
    Real,
    /// Scientific notation (operations per failure).
    Sci,
}

impl Unit {
    fn show(self, v: f64) -> String {
        match self {
            Unit::Frac => format!("{:.1}%", v * 100.0),
            Unit::Count => format!("{v:.0}"),
            Unit::Real => format!("{v:.1}"),
            Unit::Sci => format!("{v:.3e}"),
        }
    }

    fn csv(self, v: f64) -> String {
        match self {
            Unit::Frac => format!("{v:.5}"),
            Unit::Count => format!("{v:.0}"),
            Unit::Real => format!("{v:.2}"),
            Unit::Sci => format!("{v:.4e}"),
        }
    }
}

/// A figure's cells: label columns, typed value columns and one row per
/// series point. [`print_and_save`](Self::print_and_save) prints the
/// table and writes `results/<file>.csv`, both from the same cells; the
/// CSV's first line records what produced it.
pub struct FigTable {
    file: String,
    title: String,
    provenance: Provenance,
    labels: Vec<&'static str>,
    values: Vec<(&'static str, Unit)>,
    /// Label cells and value cells, one of each per column.
    rows: Vec<(Vec<String>, Vec<f64>)>,
    /// Lines printed under the table only.
    pub note: String,
}

impl FigTable {
    /// An empty table for a figure that ran `benches` (benchmarks or
    /// designs) under this run's [`config`].
    pub fn new(
        file: &str,
        title: &str,
        benches: &[&str],
        labels: &[&'static str],
        values: &[(&'static str, Unit)],
    ) -> FigTable {
        FigTable {
            file: file.to_string(),
            title: title.to_string(),
            provenance: Provenance::current(benches),
            labels: labels.to_vec(),
            values: values.to_vec(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Append a row: one cell per label column, then per value column.
    pub fn push(&mut self, labels: &[&str], values: &[f64]) {
        assert_eq!((labels.len(), values.len()), (self.labels.len(), self.values.len()), "row shape");
        self.rows.push((labels.iter().map(|l| l.to_string()).collect(), values.to_vec()));
    }

    /// Column names, then every row with its values formatted by `fmt`.
    fn grid(&self, fmt: fn(Unit, f64) -> String) -> Vec<Vec<String>> {
        let names = self.labels.iter().chain(self.values.iter().map(|(n, _)| n)).map(|n| n.to_string());
        let rows = self.rows.iter().map(|(labels, vals)| {
            let cells = vals.iter().zip(&self.values).map(|(&v, &(_, unit))| fmt(unit, v));
            labels.iter().cloned().chain(cells).collect()
        });
        std::iter::once(names.collect()).chain(rows).collect()
    }

    /// The printed table: title, provenance, cells (labels left-aligned,
    /// values right-aligned) and note.
    fn render(&self) -> String {
        let grid = self.grid(Unit::show);
        let widths: Vec<usize> =
            (0..grid[0].len()).map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(0) + 2).collect();
        let mut s = format!("== {} ==\n{}\n", self.title, self.provenance.header());
        for row in &grid {
            for (c, (cell, &w)) in row.iter().zip(&widths).enumerate() {
                if c < self.labels.len() {
                    s.push_str(&format!("{cell:<w$}"));
                } else {
                    s.push_str(&format!("{cell:>w$}"));
                }
            }
            s.push('\n');
        }
        s + &self.note
    }

    /// The CSV: the provenance line, then the cells.
    fn csv(&self) -> String {
        let mut s = self.provenance.header() + "\n";
        for row in self.grid(Unit::csv) {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }

    /// Write [`csv`](Self::csv) to `results/<file>.csv`.
    fn save_csv(&self) {
        let path = results_dir().join(format!("{}.csv", self.file));
        std::fs::write(&path, self.csv()).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        println!("[saved {path:?}]");
    }

    /// Print the table, then save the CSV.
    pub fn print_and_save(&self) {
        print!("{}", self.render());
        self.save_csv();
    }
}

/// Workspace-root `results/` directory.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Pretty-print a header for a harness.
pub fn banner(name: &str, what: &str) {
    println!("\n================================================================");
    println!("{name} — {what}");
    println!("faults/cell = {} (MARVEL_FAULTS to change; paper used 1000)", config().n_faults);
    println!("================================================================");
    let _ = std::io::stdout().flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let c = config();
        assert!(c.n_faults > 0);
        assert_eq!(c.kind, FaultKind::Transient);
    }

    #[test]
    fn benches_default_full_suite() {
        assert_eq!(benches().len(), 15);
    }

    #[test]
    fn figtable_renders_and_saves() {
        let isas: Vec<_> = Isa::ALL.iter().map(|isa| (isa.name(), Unit::Frac)).collect();
        let mut t = FigTable::new("_test", "test", &["x"], &["benchmark"], &isas);
        t.push(&["x"], &[0.01, 0.02, 0.03]);
        t.push(&["wAVF"], &[0.01, 0.02, 0.03]);
        let s = t.render();
        assert!(s.contains("wAVF"));
        t.save_csv();
        assert!(results_dir().join("_test.csv").exists());
        let _ = std::fs::remove_file(results_dir().join("_test.csv"));
    }

    #[test]
    fn table_and_csv_render_the_same_cells() {
        let mut t = FigTable::new("_unused", "test", &["x"], &["benchmark"], &[("a", Unit::Frac)]);
        t.push(&["x"], &[0.25]);
        t.push(&["wAVF"], &[0.125]);
        assert!(t.render().contains("25.0%") && t.render().contains("12.5%"));
        assert_eq!(
            t.csv(),
            format!("{}\nbenchmark,a\nx,0.25000\nwAVF,0.12500\n", t.provenance.header())
        );
    }

    #[test]
    fn csv_reused_only_under_an_equal_header() {
        let p = Provenance { faults: 4, seed: 7, benches: vec!["crc32".into()], revision: "abc".into() };
        let csv = format!("{}\nbenchmark,a\ncrc32,0.25000\n", p.header());
        assert!(reusable(&csv, &p.header()));
        let others = [
            Provenance { faults: 5, ..p.clone() },
            Provenance { seed: 8, ..p.clone() },
            Provenance { benches: vec!["crc32".into(), "qsort".into()], ..p.clone() },
            Provenance { revision: "def".into(), ..p.clone() },
        ];
        for q in others {
            assert!(!reusable(&csv, &q.header()), "{q:?}");
        }
        assert!(!reusable("benchmark,a\ncrc32,25.000\n", &p.header()), "a CSV without a header");
    }
}
