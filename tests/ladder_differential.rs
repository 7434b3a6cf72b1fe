//! Differential oracle for checkpoint-ladder prefix elimination and the
//! dirty-diff convergence exit: campaigns run with any combination of
//! ladder rungs and convergence exit must produce byte-identical exports —
//! summary CSV rows and the marvel-taint attribution tables (CSV + JSONL)
//! — to the full-prefix oracle (`ladder_rungs: 0`), at every worker
//! count, on all three ISAs, and on the DSA path.

use gem5_marvel::core::{
    attribution_by_structure, attribution_csv, attribution_jsonl, csv_row, run_campaign,
    run_dsa_campaign, run_dsa_masks, CampaignConfig, DsaGolden, FaultKind, Golden, MaskGenerator,
    RunRecord, TelemetryConfig, CSV_HEADER, DSA_GOLDEN_BUDGET,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;

fn config(ladder_rungs: usize, convergence_exit: bool, workers: usize) -> CampaignConfig {
    CampaignConfig {
        n_faults: 20,
        collect_hvf: true,
        workers,
        ladder_rungs,
        convergence_exit,
        telemetry: TelemetryConfig { taint: true, ..Default::default() },
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
fn cpu_exports_byte_identical_with_ladder_and_convergence() {
    for isa in Isa::ALL {
        let bin = assemble(&mibench::build("crc32"), isa).unwrap();
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        let g = Golden::prepare(sys, 80_000_000).unwrap();
        for target in [Target::PrfInt, Target::L1D] {
            let oracle = export("ladder", &g, target, &config(0, false, 1));
            let shipped = CampaignConfig::default().ladder_rungs;
            for workers in [1usize, 2, 8] {
                for (rungs, conv) in [(8usize, false), (8, true), (shipped, false), (shipped, true)] {
                    let got = export("ladder", &g, target, &config(rungs, conv, workers));
                    assert_eq!(
                        oracle, got,
                        "{isa:?} {target:?} rungs={rungs} conv={conv} workers={workers}"
                    );
                }
            }
        }
    }
}

/// A DSA record as the oracle can reproduce it (a ladderless run never
/// converges, so `converged` is left out).
fn dsa_row(r: &RunRecord) -> String {
    format!("{:?},{:?},{},{}\n", r.effect, r.trap, r.cycles, r.early_terminated)
}

#[test]
fn dsa_exports_byte_identical_with_ladder_and_convergence() {
    let d = accel::design("FFT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    let target = d.components[0].target;
    let export = |rungs, conv, workers| {
        let res = run_dsa_campaign(&g, target, &config(rungs, conv, workers));
        let mut out: String = res.records.iter().map(dsa_row).collect();
        if let Some(map) = attribution_by_structure(&res.records) {
            out.push_str(&attribution_csv(&map));
            out.push_str(&attribution_jsonl(&map));
        }
        out
    };
    let oracle = export(0, false, 1);
    for workers in [1usize, 2, 8] {
        for (rungs, conv) in [(8usize, false), (8, true)] {
            assert_eq!(
                oracle,
                export(rungs, conv, workers),
                "rungs={rungs} conv={conv} workers={workers}"
            );
        }
    }
}

/// A DSA worker that moves to a rung it did not write. One worker takes
/// every run, on the shipped ladder and exit, and SPMV's VAL transients
/// land in the last two ninths of the run: the worker's first run starts
/// from a late rung, and none of its own writes covers the SPM bytes the
/// golden run wrote before that rung. (The FFT cell above cannot see
/// this: its first run starts at the checkpoint, and each of its runs
/// writes past the next rung.) Runs that end by early termination would
/// not see it either, since that decision reads only the fault's fate.
#[test]
fn dsa_worker_moves_to_a_rung_it_did_not_write() {
    let d = accel::design("SPMV");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), DSA_GOLDEN_BUDGET);
    let target = d.components[0].target;
    let n = 32;
    let masks = MaskGenerator::new(0x5EED).single_bit(
        target,
        g.harness.bit_len(target),
        FaultKind::Transient,
        g.cycles * 7 / 9..g.cycles,
        n,
    );
    let rows = |cc: &CampaignConfig| -> String {
        run_dsa_masks(&g, target, &masks, cc).records.iter().map(dsa_row).collect()
    };
    let shipped = CampaignConfig { n_faults: n, workers: 1, ..Default::default() };
    let oracle = CampaignConfig { ladder_rungs: 0, ..shipped.clone() };
    assert_eq!(rows(&oracle), rows(&shipped));
}
