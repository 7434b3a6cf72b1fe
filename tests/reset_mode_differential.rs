//! Differential oracle for the zero-copy campaign engine: the dirty-reset
//! run lifecycle must produce byte-identical campaign exports — summary
//! CSV rows and the marvel-taint attribution tables (CSV + JSONL) — to
//! the clone-per-run path, at every worker count, on all three ISAs.

use gem5_marvel::core::{
    attribution_by_structure, attribution_csv, attribution_jsonl, csv_row, run_campaign,
    run_dsa_campaign, CampaignConfig, DsaGolden, Golden, ResetMode, TelemetryConfig, CSV_HEADER,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;

fn config(mode: ResetMode, workers: usize) -> CampaignConfig {
    CampaignConfig {
        n_faults: 20,
        collect_hvf: true,
        workers,
        reset_mode: mode,
        telemetry: TelemetryConfig { taint: true, ..Default::default() },
        ladder_rungs: 0,
        ..Default::default()
    }
}

/// Render the full export surface of one campaign: summary CSV plus the
/// attribution CSV + JSONL tables.
fn export(label: &str, golden: &Golden, target: Target, cc: &CampaignConfig) -> String {
    let res = run_campaign(golden, target, cc);
    let mut out = String::from(CSV_HEADER);
    out.push_str(&csv_row(label, &res));
    if let Some(map) = attribution_by_structure(&res.records) {
        out.push_str(&attribution_csv(&map));
        out.push_str(&attribution_jsonl(&map));
    }
    out
}

#[test]
fn cpu_exports_byte_identical_across_modes_and_workers() {
    for isa in Isa::ALL {
        let bin = assemble(&mibench::build("crc32"), isa).unwrap();
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        let g = Golden::prepare(sys, 80_000_000).unwrap();
        for target in [Target::PrfInt, Target::L1D] {
            let oracle = export("diff", &g, target, &config(ResetMode::Clone, 1));
            for workers in [1usize, 2, 8] {
                for mode in [ResetMode::Clone, ResetMode::Dirty] {
                    let got = export("diff", &g, target, &config(mode, workers));
                    assert_eq!(oracle, got, "{isa:?} {target:?} {mode:?} workers={workers}");
                }
            }
        }
    }
}

#[test]
fn dsa_exports_byte_identical_across_modes_and_workers() {
    let d = accel::design("FFT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    let target = d.components[0].target;
    let export = |mode, workers| {
        let res = run_dsa_campaign(&g, target, &config(mode, workers));
        let mut out: String =
            res.records.iter().map(|r| format!("{:?},{:?},{}\n", r.effect, r.trap, r.cycles)).collect();
        if let Some(map) = attribution_by_structure(&res.records) {
            out.push_str(&attribution_csv(&map));
            out.push_str(&attribution_jsonl(&map));
        }
        out
    };
    let oracle = export(ResetMode::Clone, 1);
    for workers in [1usize, 2, 8] {
        for mode in [ResetMode::Clone, ResetMode::Dirty] {
            assert_eq!(oracle, export(mode, workers), "{mode:?} workers={workers}");
        }
    }
}
