//! Campaign accounting invariants: classification counts partition the
//! fault population, and results are bit-identical regardless of the
//! worker-pool size — parallelism must be a pure speed knob.

use gem5_marvel::core::{
    run_campaign, run_dsa_campaign, CampaignConfig, DsaGolden, FaultEffect, Golden, ResetMode, RunRecord,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;

fn golden(bench: &str, isa: Isa) -> Golden {
    let bin = assemble(&mibench::build(bench), isa).unwrap();
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

/// The per-run fields that must not depend on scheduling. (`forensics`
/// and `attribution` are compared implicitly: both are `None` here since
/// telemetry is off.)
fn fingerprint(records: &[RunRecord]) -> Vec<(FaultEffect, Option<&'static str>, bool, u64)> {
    records.iter().map(|x| (x.effect, x.trap, x.early_terminated, x.cycles)).collect()
}

#[test]
fn classification_counts_sum_to_total() {
    let g = golden("bitcount", Isa::Arm);
    let cc = CampaignConfig {
        n_faults: 40,
        collect_hvf: true,
        workers: 4,
        ladder_rungs: 0,
        ..Default::default()
    };
    for target in [Target::PrfInt, Target::L1D, Target::Rob] {
        let res = run_campaign(&g, target, &cc);
        let masked = res.records.iter().filter(|r| r.effect == FaultEffect::Masked).count();
        let sdc = res.records.iter().filter(|r| r.effect == FaultEffect::Sdc).count();
        let crash = res.records.iter().filter(|r| r.effect == FaultEffect::Crash).count();
        assert_eq!(masked + sdc + crash, res.n(), "{target:?}: effects must partition runs");
        assert_eq!(res.n(), 40, "{target:?}: every requested fault must be accounted for");
        // The rates must be consistent with the same partition.
        let total = res.avf() + masked as f64 / res.n() as f64;
        assert!((total - 1.0).abs() < 1e-9, "{target:?}");
        assert!((res.avf() - (res.sdc_avf() + res.crash_avf())).abs() < 1e-9, "{target:?}");
    }
}

#[test]
fn cpu_campaign_identical_across_worker_counts() {
    let g = golden("crc32", Isa::RiscV);
    for target in [Target::PrfInt, Target::L1D] {
        let mut runs = Vec::new();
        // 0 = all available cores; 1 = fully serial; 2 = minimal pool.
        for workers in [1usize, 2, 0] {
            let cc = CampaignConfig {
                n_faults: 30,
                collect_hvf: true,
                workers,
                ladder_rungs: 0,
                ..Default::default()
            };
            runs.push(fingerprint(&run_campaign(&g, target, &cc).records));
        }
        assert_eq!(runs[0], runs[1], "{target:?}: workers=1 vs workers=2");
        assert_eq!(runs[0], runs[2], "{target:?}: workers=1 vs workers=all");
    }
}

#[test]
fn dsa_campaign_identical_across_worker_counts() {
    let d = accel::design("FFT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    let target = d.components[0].target;
    let mut runs = Vec::new();
    for workers in [1usize, 2, 0] {
        let cc = CampaignConfig { n_faults: 24, workers, ladder_rungs: 0, ..Default::default() };
        runs.push(fingerprint(&run_dsa_campaign(&g, target, &cc).records));
    }
    assert_eq!(runs[0], runs[1], "workers=1 vs workers=2");
    assert_eq!(runs[0], runs[2], "workers=1 vs workers=all");
}

#[test]
fn reset_mode_is_a_pure_speed_knob() {
    // The zero-copy dirty reset must be invisible in the results: for any
    // worker count, the record stream matches the clone-per-run oracle.
    let g = golden("crc32", Isa::RiscV);
    for target in [Target::PrfInt, Target::L1D, Target::Rob] {
        let fp = |mode, workers| {
            let cc = CampaignConfig {
                n_faults: 30,
                collect_hvf: true,
                workers,
                reset_mode: mode,
                ladder_rungs: 0,
                ..Default::default()
            };
            fingerprint(&run_campaign(&g, target, &cc).records)
        };
        let oracle = fp(ResetMode::Clone, 1);
        for workers in [1usize, 2, 0] {
            assert_eq!(oracle, fp(ResetMode::Dirty, workers), "{target:?} workers={workers}");
        }
    }
}

#[test]
fn dsa_reset_mode_is_a_pure_speed_knob() {
    let d = accel::design("FFT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    let target = d.components[0].target;
    let fp = |mode, workers| {
        let cc = CampaignConfig {
            n_faults: 24,
            workers,
            reset_mode: mode,
            ladder_rungs: 0,
            ..Default::default()
        };
        fingerprint(&run_dsa_campaign(&g, target, &cc).records)
    };
    let oracle = fp(ResetMode::Clone, 1);
    for workers in [1usize, 2, 0] {
        assert_eq!(oracle, fp(ResetMode::Dirty, workers), "workers={workers}");
    }
}

#[test]
fn ref_prepped_campaign_identical_across_worker_counts() {
    // Same determinism guarantee when the golden run was prepared by the
    // reference-model fast-forward path.
    let bin = assemble(&mibench::build("crc32"), Isa::Arm).unwrap();
    let mk = || {
        let mut sys = System::new(CoreConfig::table2(Isa::Arm));
        sys.load_binary(&bin);
        sys
    };
    let g = Golden::prepare_fast(mk(), 80_000_000).unwrap();
    assert!(g.ref_prepped);
    let mut runs = Vec::new();
    for workers in [1usize, 2, 0] {
        let cc = CampaignConfig { n_faults: 24, workers, ladder_rungs: 0, ..Default::default() };
        runs.push(fingerprint(&run_campaign(&g, Target::PrfInt, &cc).records));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}
