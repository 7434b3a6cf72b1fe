//! Cross-crate integration tests exercising the whole stack through the
//! facade crate: compile → SoC → checkpoint → inject → classify.

use gem5_marvel::core::{
    run_campaign, run_dsa_campaign, run_one, CampaignConfig, DsaGolden, FaultEffect, FaultKind,
    FaultMask, FaultModel, Golden, HvfEffect,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::{assemble, interp};
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

#[test]
fn golden_output_matches_interpreter() {
    for isa in Isa::ALL {
        let g = golden("crc32", isa);
        let want = interp::run(&mibench::build("crc32"), 100_000_000).unwrap();
        assert_eq!(g.output, want.output, "{isa}");
    }
}

#[test]
fn classification_partitions_runs() {
    let g = golden("qsort", Isa::Arm);
    let cc = CampaignConfig {
        n_faults: 30,
        collect_hvf: true,
        workers: 4,
        ladder_rungs: 0,
        ..Default::default()
    };
    for target in [Target::PrfInt, Target::L1D, Target::StoreQueue] {
        let res = run_campaign(&g, target, &cc);
        assert_eq!(res.n(), 30, "{target:?}");
        let total = res.avf()
            + res.records.iter().filter(|r| r.effect == FaultEffect::Masked).count() as f64 / 30.0;
        assert!((total - 1.0).abs() < 1e-9, "{target:?}");
        // HVF >= AVF invariant.
        assert!(res.hvf().unwrap() + 1e-9 >= res.avf(), "{target:?}");
    }
}

#[test]
fn hvf_corruption_implied_by_any_unmasked_effect() {
    let g = golden("bitcount", Isa::RiscV);
    let cc = CampaignConfig {
        n_faults: 40,
        collect_hvf: true,
        workers: 4,
        ladder_rungs: 0,
        ..Default::default()
    };
    let res = run_campaign(&g, Target::L1D, &cc);
    for r in &res.records {
        if r.effect != FaultEffect::Masked {
            assert_eq!(r.hvf, Some(HvfEffect::Corruption));
        }
    }
}

#[test]
fn directed_single_fault_is_reproducible() {
    let g = golden("sha", Isa::X86);
    let cc = CampaignConfig { n_faults: 1, collect_hvf: true, ..Default::default() };
    let mask = FaultMask {
        target: Target::L1D,
        bits: vec![4321],
        model: FaultModel::Transient { cycle: g.ckpt_cycle + g.exec_cycles / 2 },
    };
    let a = run_one(&g, &mask, &cc);
    let b = run_one(&g, &mask, &cc);
    assert_eq!(a.effect, b.effect);
    assert_eq!(a.hvf, b.hvf);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn permanent_faults_bias_toward_unmasked_vs_transient() {
    // A stuck-at bit present for the whole run can only be *more* harmful
    // on average than a single flip of the same bit.
    let g = golden("crc32", Isa::RiscV);
    let t = CampaignConfig { n_faults: 60, workers: 4, ladder_rungs: 0, ..Default::default() };
    let p = CampaignConfig {
        n_faults: 60,
        kind: FaultKind::Permanent,
        workers: 4,
        ladder_rungs: 0,
        ..Default::default()
    };
    let rt = run_campaign(&g, Target::L1D, &t);
    let rp = run_campaign(&g, Target::L1D, &p);
    assert!(rp.avf() + 0.10 >= rt.avf(), "permanent {} vs transient {}", rp.avf(), rt.avf());
}

#[test]
fn dsa_and_cpu_frameworks_share_classification() {
    let d = accel::design("MERGESORT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    let cc = CampaignConfig { n_faults: 30, workers: 4, ladder_rungs: 0, ..Default::default() };
    let main_res = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &cc);
    let temp_res = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 1 }, &cc);
    assert_eq!(main_res.records.len(), 30);
    // TEMP is overwritten every pass: it must not be more vulnerable than
    // MAIN (the paper's MERGESORT observation).
    assert!(temp_res.avf() <= main_res.avf() + 0.15);
}

#[test]
fn early_termination_changes_speed_not_results() {
    let g = golden("dijkstra", Isa::Arm);
    let on = CampaignConfig {
        n_faults: 40,
        workers: 4,
        early_termination: true,
        ladder_rungs: 0,
        ..Default::default()
    };
    let off = CampaignConfig {
        n_faults: 40,
        workers: 4,
        early_termination: false,
        ladder_rungs: 0,
        ..Default::default()
    };
    let r_on = run_campaign(&g, Target::PrfInt, &on);
    let r_off = run_campaign(&g, Target::PrfInt, &off);
    assert!((r_on.avf() - r_off.avf()).abs() < 1e-9, "early termination must not change AVF");
    assert!(r_on.early_termination_rate() > 0.0);
    assert_eq!(r_off.early_termination_rate(), 0.0);
}

#[test]
fn rename_map_and_rob_targets_injectable() {
    let g = golden("basicmath", Isa::RiscV);
    let cc = CampaignConfig { n_faults: 15, workers: 4, ladder_rungs: 0, ..Default::default() };
    for t in [Target::RenameMap, Target::Rob, Target::L2, Target::PrfFp] {
        let res = run_campaign(&g, t, &cc);
        assert_eq!(res.n(), 15, "{t:?}");
    }
}

#[test]
fn multi_bit_adjacent_faults_at_least_as_harmful() {
    use gem5_marvel::core::MaskGenerator;
    let g = golden("crc32", Isa::Arm);
    let cc = CampaignConfig { n_faults: 40, workers: 4, ladder_rungs: 0, ..Default::default() };
    let bit_len = g.ckpt.bit_len(Target::L1D);
    let mut gen1 = MaskGenerator::new(99);
    let singles = gen1.single_bit(Target::L1D, bit_len, FaultKind::Transient, g.injection_window(), 40);
    let mut gen2 = MaskGenerator::new(99);
    let bursts =
        gen2.adjacent_multi_bit(Target::L1D, bit_len, 4, FaultKind::Transient, g.injection_window(), 40);
    let rs = gem5_marvel::core::run_masks(&g, &singles, &cc);
    let rb = gem5_marvel::core::run_masks(&g, &bursts, &cc);
    let avf = |rs: &[gem5_marvel::core::RunRecord]| {
        rs.iter().filter(|r| r.effect != FaultEffect::Masked).count() as f64 / rs.len() as f64
    };
    assert!(avf(&rb) + 0.125 >= avf(&rs), "4-bit bursts should not be less harmful");
}
