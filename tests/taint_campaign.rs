//! marvel-taint integration guards.
//!
//! 1. Determinism matrix: taint {off,on} × telemetry {off,on} must yield
//!    bit-identical classifications in both the CPU and DSA drivers —
//!    taint is strictly observational.
//! 2. Acceptance: a CPU campaign with taint enabled attributes SDC runs
//!    to a structure, carries a propagation timeline in the flight
//!    recorder, and exports schema-versioned CSV/JSONL tables.
//! 3. Pipeline trace: the golden/faulty Konata pair renders, and the
//!    faulty trace flags tainted commits.
//! 4. Overhead: enabling taint may cost (shadow copies move with every
//!    cache line), but must stay within a small constant factor.

use gem5_marvel::core::{
    attribution_by_structure, attribution_csv, attribution_jsonl, campaign_masks, run_campaign,
    run_dsa_campaign, run_one, trace_pipeline_pair, CampaignConfig, DsaGolden, FaultEffect, FaultMask,
    FaultModel, Golden, TelemetryConfig,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::telemetry::{check_snapshot_version, Registry};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;

fn golden(bench: &str, isa: Isa) -> Golden {
    let bin = assemble(&mibench::build(bench), isa).unwrap();
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

/// The four corners of the observability matrix.
fn matrix() -> [TelemetryConfig; 4] {
    let full = |taint| TelemetryConfig {
        registry: Registry::new(),
        progress_interval_ms: 0,
        flight_capacity: 64,
        taint,
        ..Default::default()
    };
    let bare = |taint| TelemetryConfig { taint, ..Default::default() };
    [bare(false), bare(true), full(false), full(true)]
}

#[test]
fn cpu_classifications_invariant_across_taint_matrix() {
    let g = golden("crc32", Isa::RiscV);
    let base = CampaignConfig {
        n_faults: 16,
        workers: 4,
        collect_hvf: true,
        ladder_rungs: 0,
        ..Default::default()
    };
    let reference = run_campaign(&g, Target::L1D, &base);
    let key = |r: &gem5_marvel::core::CampaignResult| -> Vec<_> {
        r.records.iter().map(|x| (x.effect, x.hvf, x.trap, x.cycles)).collect()
    };
    for (i, tel) in matrix().into_iter().enumerate() {
        let cc = CampaignConfig { telemetry: tel, ..base.clone() };
        let res = run_campaign(&g, Target::L1D, &cc);
        assert_eq!(key(&reference), key(&res), "matrix corner {i} perturbed CPU classifications");
    }
}

#[test]
fn dsa_classifications_invariant_across_taint_matrix() {
    let d = accel::designs().into_iter().find(|d| d.name == "FFT").expect("FFT design");
    let g = DsaGolden::prepare((d.make)(FuConfig::uniform(4)), 100_000_000);
    let target = d.components[0].target;
    let base = CampaignConfig { n_faults: 12, workers: 4, ladder_rungs: 0, ..Default::default() };
    let reference = run_dsa_campaign(&g, target, &base);
    let key = |r: &gem5_marvel::core::CampaignResult| -> Vec<_> {
        r.records.iter().map(|x| (x.effect, x.trap, x.cycles)).collect()
    };
    for (i, tel) in matrix().into_iter().enumerate() {
        let cc = CampaignConfig { telemetry: tel, ..base.clone() };
        let res = run_dsa_campaign(&g, target, &cc);
        assert_eq!(key(&reference), key(&res), "matrix corner {i} perturbed DSA classifications");
        if cc.telemetry.taint {
            // Every run carries an attribution when taint is on.
            assert!(res.records.iter().all(|r| r.attribution.is_some()));
        }
    }
}

#[test]
fn cpu_campaign_attributes_sdc_runs_with_timeline() {
    let g = golden("bitcount", Isa::RiscV);
    let cc = CampaignConfig {
        n_faults: 40,
        workers: 4,
        telemetry: TelemetryConfig {
            registry: Registry::disabled(),
            progress_interval_ms: 0,
            flight_capacity: 128,
            taint: true,
            ..Default::default()
        },
        ladder_rungs: 0,
        ..Default::default()
    };
    let res = run_campaign(&g, Target::PrfInt, &cc);

    // At least one SDC with an arch-reaching attribution + hop timeline.
    let sdc = res
        .records
        .iter()
        .find(|r| r.effect == FaultEffect::Sdc)
        .expect("seeded bitcount/PrfInt campaign must surface an SDC");
    let attr = sdc.attribution.as_ref().expect("taint campaign records attribution");
    assert!(attr.reached_arch, "SDC faults reach architectural state by definition");
    assert!(!attr.structure.is_empty());
    assert!(attr.hops > 0, "propagation involves at least one hop");
    let dump = sdc.forensics.as_ref().expect("flight recorder kept the SDC timeline");
    let text = dump.render();
    assert!(text.contains("taint_hop"), "timeline missing propagation hops:\n{text}");
    assert!(text.contains("taint_arch"), "timeline missing arch-reach event:\n{text}");

    // Campaign-level attribution table + schema-versioned exports.
    let map = attribution_by_structure(&res.records).expect("attribution table");
    assert!(map.values().map(|a| a.runs()).sum::<usize>() > 0);
    assert!(map.values().any(|a| a.sdc > 0));
    let csv = attribution_csv(&map);
    let jsonl = attribution_jsonl(&map);
    check_snapshot_version(&csv).expect("CSV export carries a valid schema header");
    check_snapshot_version(&jsonl).expect("JSONL export carries a valid schema header");
    assert_eq!(jsonl.lines().count(), map.len() + 1);
}

#[test]
fn pipeline_trace_pair_renders_kanata() {
    let g = golden("crc32", Isa::RiscV);
    let cc = CampaignConfig { n_faults: 8, ..Default::default() };
    let masks = campaign_masks(&g, Target::PrfInt, &cc);
    let (gtrace, ftrace) = trace_pipeline_pair(&g, &masks[0]);
    for (name, t) in [("golden", &gtrace), ("faulty", &ftrace)] {
        assert!(t.starts_with("Kanata\t0004"), "{name} trace lacks Kanata header");
        assert!(t.contains("\nR\t"), "{name} trace has no retirement lines");
        assert!(t.contains("\nI\t"), "{name} trace has no instruction lines");
    }
}

#[test]
fn taint_overhead_is_bounded() {
    let g = golden("crc32", Isa::RiscV);
    let mask = FaultMask {
        target: Target::L1D,
        bits: vec![4321],
        model: FaultModel::Transient { cycle: g.ckpt_cycle + g.exec_cycles / 2 },
    };
    let off = CampaignConfig { n_faults: 1, ..Default::default() };
    let on = CampaignConfig {
        n_faults: 1,
        telemetry: TelemetryConfig { taint: true, ..Default::default() },
        ..Default::default()
    };
    let median = |cc: &CampaignConfig| -> f64 {
        let mut t: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let rec = run_one(&g, &mask, cc);
                assert!(rec.cycles > 0);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        t.sort_by(|a, b| a.partial_cmp(b).unwrap());
        t[t.len() / 2]
    };
    run_one(&g, &mask, &off);
    run_one(&g, &mask, &on);
    let (t_off, t_on) = (median(&off), median(&on));
    // Shadow planes really do move bytes (every cache line fill copies
    // its taint line), so the target is ~1.3x; the asserted bound is 2x
    // so CI scheduler noise cannot flake the guard while a structural
    // regression (per-bit loops, allocation per access) still trips it.
    let ratio = t_on / t_off.max(1e-12);
    assert!(
        ratio < 2.0,
        "taint-on injection run took {ratio:.2}x the taint-off time \
         (off {t_off:.4}s, on {t_on:.4}s)"
    );
}
