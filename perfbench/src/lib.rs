//! # marvel-perfbench
//!
//! The campaign benchmark: named workloads of fault-injection campaigns
//! on the shipped defaults, driven through the public calls a user's
//! campaign goes through, timed from outside, checked against the
//! oracle configuration. See `README.md` beside this crate for the
//! workloads, the metrics and what each should move.

pub mod campaign;
pub mod check;
pub mod spans;
pub mod workloads;

use campaign::{Campaign, SetupTimes};
use check::{audit, audit_sample, Audit, Fingerprint};
use marvel_core::TelemetryConfig;
use marvel_telemetry::{PhaseId, PhaseReport, Registry, SpanCollector};
use spans::SpanLog;

/// End-to-end metrics, reported with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 4] =
    [("runs_per_s", "runs/s"), ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")];

/// Drive-worker phases (marvel-spans), reported as their self time's
/// share of drive worker time (drive seconds × workers), with the layer
/// each belongs to. Shares cancel the host's speed drift, and a layer a
/// workload does not run reads 0 as a ratio rather than as a time.
const WORKER_PHASE_METRICS: [(PhaseId, &str); 11] = [
    (PhaseId::Inject, "core.Inject_frac"),
    (PhaseId::RungRestore, "core.RungRestore_frac"),
    (PhaseId::DirtyReset, "core.DirtyReset_frac"),
    (PhaseId::LaneFork, "core.LaneFork_frac"),
    (PhaseId::ConvergenceDiff, "core.ConvergenceDiff_frac"),
    (PhaseId::ExportRecord, "core.ExportRecord_frac"),
    (PhaseId::Schedule, "core.Schedule_frac"),
    (PhaseId::SimStepCpu, "cpu.SimStepCpu_frac"),
    (PhaseId::SimStepLane, "cpu.SimStepLane_frac"),
    (PhaseId::TraceReplay, "accel.TraceReplay_frac"),
    (PhaseId::SimStepDsa, "accel.SimStepDsa_frac"),
];

/// Per-layer metrics, reported from the traced passes: name and unit.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("ir.compile_s", "s"),
    ("core.golden_s", "s"),
    ("core.ladder_s", "s"),
    ("core.masks_s", "s"),
    ("core.drive_s", "s"),
    ("core.Inject_frac", "ratio"),
    ("core.RungRestore_frac", "ratio"),
    ("core.DirtyReset_frac", "ratio"),
    ("core.LaneFork_frac", "ratio"),
    ("core.ConvergenceDiff_frac", "ratio"),
    ("core.ExportRecord_frac", "ratio"),
    ("core.Schedule_frac", "ratio"),
    ("core.early_term_frac", "ratio"),
    ("core.prefix_skipped_frac", "ratio"),
    ("cpu.SimStepCpu_frac", "ratio"),
    ("cpu.SimStepLane_frac", "ratio"),
    ("cpu.lane_occupancy", "lanes"),
    ("cpu.lane_packed_frac", "ratio"),
    ("cpu.lane_fork_frac", "ratio"),
    ("cpu.sim_mcps", "Mcycles/s"),
    ("accel.TraceReplay_frac", "ratio"),
    ("accel.SimStepDsa_frac", "ratio"),
    ("accel.ScheduleBuild_frac", "ratio"),
    ("telemetry.trace_overhead_frac", "ratio"),
    ("telemetry.phase_coverage", "ratio"),
];

/// How to run one pass over a workload.
#[derive(Debug, Clone)]
pub struct PassOptions {
    /// Worker threads per campaign.
    pub workers: usize,
    /// Override of the per-campaign fault count.
    pub faults: Option<usize>,
    /// Enable marvel-spans and the metric registry, keep benchmark spans,
    /// and time fault-free simulation once per program.
    pub traced: bool,
    /// Oracle-audit this many seed-chosen runs per campaign (0 = none).
    pub audit_runs: usize,
}

/// Registry counts of a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    pub lane_passes: u64,
    pub lane_runs_packed: u64,
    pub lane_forks: u64,
    /// Residual prefix cycles simulated from the restored base to the
    /// injection cycle, and prefix cycles a rung restore skipped.
    pub prefix_cycles: u64,
    pub prefix_skipped: u64,
    /// Fault-free simulation: cycles and host seconds.
    pub sim_cycles: u64,
    pub sim_s: f64,
}

/// Everything one pass over a workload measured.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Setup times summed over the workload's campaigns.
    pub setup: SetupTimes,
    pub drive_s: f64,
    /// Drive seconds × worker threads each drive could keep busy.
    pub drive_worker_s: f64,
    /// Injection runs attempted (one per mask).
    pub runs: u64,
    pub fingerprint: Fingerprint,
    pub audit: Audit,
    /// Program phase report (traced passes).
    pub phases: Option<PhaseReport>,
    pub counts: LayerCounts,
    /// Effective engine config of the campaigns (all share one).
    pub config: String,
}

impl PassResult {
    /// Setup plus drive: what a user waits for this figure slice.
    pub fn wall_s(&self) -> f64 {
        self.setup.setup_s + self.drive_s
    }
}

fn hist_sum(snap: &marvel_telemetry::Snapshot, name: &str) -> u64 {
    snap.histograms.iter().find(|(n, _)| n == name).map_or(0, |(_, h)| h.sum)
}

fn counter(snap: &marvel_telemetry::Snapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// Run every campaign of `workload` once, back to back, each with
/// `seed`. Campaign ids in `log` start at `first_id`.
pub fn run_pass(
    workload: &str,
    seed: u64,
    opts: &PassOptions,
    log: &mut SpanLog,
    first_id: usize,
) -> Result<PassResult, String> {
    let defs = workloads::campaigns(workload, opts.faults)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let spans = if opts.traced { SpanCollector::enabled() } else { SpanCollector::disabled() };
    let mut r = PassResult::default();
    let mut timed_programs: Vec<&str> = Vec::new();
    let pass = log.enter("pass", None);
    for (i, def) in defs.iter().enumerate() {
        let id = first_id + i;
        let registry = if opts.traced { Registry::new() } else { Registry::disabled() };
        let tel = TelemetryConfig {
            registry: registry.clone(),
            spans: spans.clone(),
            ..TelemetryConfig::default()
        };
        let c = Campaign::prepare(&def.spec_text(seed, opts.workers), tel, log, id)?;
        let (records, drive_s) = c.drive(log, id);
        let s = &mut r.setup;
        s.compile_s += c.setup.compile_s;
        s.golden_s += c.setup.golden_s;
        s.ladder_s += c.setup.ladder_s;
        s.masks_s += c.setup.masks_s;
        s.setup_s += c.setup.setup_s;
        r.drive_s += drive_s;
        r.drive_worker_s += drive_s * c.workers_used() as f64;
        r.runs += c.masks.len() as u64;
        if r.config.is_empty() {
            r.config = format!(
                "ladder_rungs={} lane_width={} dsa_engine={:?} reset_mode={:?} convergence_exit={}",
                c.cc.ladder_rungs,
                c.cc.lane_width,
                c.cc.dsa_engine,
                c.cc.reset_mode,
                c.cc.convergence_exit
            );
        }
        if opts.traced {
            let snap = registry.snapshot();
            let k = &mut r.counts;
            k.lane_passes += counter(&snap, "campaign.lane_passes");
            k.lane_runs_packed += counter(&snap, "campaign.lane_runs_packed");
            k.lane_forks += counter(&snap, "campaign.lane_forks");
            k.prefix_cycles +=
                hist_sum(&snap, "campaign.prefix_cycles") + hist_sum(&snap, "dsa.prefix_cycles");
            k.prefix_skipped += hist_sum(&snap, "campaign.prefix_cycles_skipped")
                + hist_sum(&snap, "dsa.prefix_cycles_skipped");
            if !timed_programs.contains(&def.program.as_str()) {
                timed_programs.push(&def.program);
                let s = log.enter("fault_free_run", Some(id));
                if let Some((cycles, secs)) = c.fault_free_run() {
                    k.sim_cycles += cycles;
                    k.sim_s += secs;
                }
                log.exit(s);
            }
        }
        let sample = audit_sample(
            c.masks.len(),
            opts.audit_runs,
            seed ^ (id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let s = log.enter("audit", Some(id));
        let oracle = c.oracle_records(&sample);
        log.exit(s);
        r.audit.add(audit(&records, &sample, &oracle));
        r.fingerprint.add_campaign(c.golden_cycles, &records);
    }
    log.exit(pass);
    r.phases = opts.traced.then(|| spans.report());
    Ok(r)
}

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

fn named(table: &[(&'static str, &'static str)], values: Vec<(&'static str, f64)>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            (name, unit, v.unwrap_or_else(|| panic!("metric {name} has no value")))
        })
        .collect()
}

/// End-to-end metrics over untraced passes: medians across passes.
pub fn end_to_end(passes: &[&PassResult], peak_rss_mib: f64) -> Vec<Metric> {
    let each = |f: &dyn Fn(&PassResult) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    named(
        &END_TO_END,
        vec![
            ("runs_per_s", each(&|p| ratio(p.runs as f64, p.drive_s))),
            ("setup_s", each(&|p| p.setup.setup_s)),
            ("wall_s", each(&|p| p.wall_s())),
            ("peak_rss_mib", peak_rss_mib),
        ],
    )
}

/// Per-layer metrics: medians across traced passes, plus the tracing
/// overhead against the untraced passes of the same run.
pub fn per_layer(traced: &[&PassResult], untraced: &[&PassResult]) -> Vec<Metric> {
    let each = |f: &dyn Fn(&PassResult) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let self_s = |p: &PassResult, phase: PhaseId| {
        p.phases
            .as_ref()
            .and_then(|r| r.rows.iter().find(|row| row.phase == phase))
            .map_or(0, |row| row.self_us) as f64
            / 1e6
    };
    let mut values = vec![
        ("ir.compile_s", each(&|p| p.setup.compile_s)),
        ("core.golden_s", each(&|p| p.setup.golden_s)),
        ("core.ladder_s", each(&|p| p.setup.ladder_s)),
        ("core.masks_s", each(&|p| p.setup.masks_s)),
        ("core.drive_s", each(&|p| p.drive_s)),
        ("core.early_term_frac", each(&|p| ratio(p.fingerprint.early_terminated as f64, p.runs as f64))),
        (
            "core.prefix_skipped_frac",
            each(&|p| {
                let k = &p.counts;
                ratio(k.prefix_skipped as f64, (k.prefix_skipped + k.prefix_cycles) as f64)
            }),
        ),
        (
            "cpu.lane_occupancy",
            each(&|p| ratio(p.counts.lane_runs_packed as f64, p.counts.lane_passes as f64)),
        ),
        ("cpu.lane_packed_frac", each(&|p| ratio(p.counts.lane_runs_packed as f64, p.runs as f64))),
        (
            "cpu.lane_fork_frac",
            each(&|p| ratio(p.counts.lane_forks as f64, p.counts.lane_runs_packed as f64)),
        ),
        ("cpu.sim_mcps", each(&|p| ratio(p.counts.sim_cycles as f64, p.counts.sim_s) / 1e6)),
        (
            "telemetry.trace_overhead_frac",
            ratio(
                each(&|p| p.wall_s()),
                median(&untraced.iter().map(|p| p.wall_s()).collect::<Vec<_>>()),
            ) - 1.0,
        ),
        (
            "telemetry.phase_coverage",
            each(&|p| {
                ratio(WORKER_PHASE_METRICS.iter().map(|&(ph, _)| self_s(p, ph)).sum(), p.drive_worker_s)
            }),
        ),
        (
            "accel.ScheduleBuild_frac",
            each(&|p| ratio(self_s(p, PhaseId::ScheduleBuild), p.setup.setup_s)),
        ),
    ];
    for (phase, name) in WORKER_PHASE_METRICS {
        values.push((name, each(&|p| ratio(self_s(p, phase), p.drive_worker_s))));
    }
    named(&PER_LAYER, values)
}
