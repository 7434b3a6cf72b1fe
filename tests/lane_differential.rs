//! Differential oracle for the lane-packed campaign engine: campaigns run
//! with any lane width must produce records byte-identical to the scalar
//! oracle (`lane_width: 0`) — effect, HVF, trap tag, cycle count,
//! early-termination and convergence flags, record for record — across
//! targets, worker counts, reset modes, ladder/convergence configurations
//! and early-termination settings.

use gem5_marvel::core::{
    run_campaign, run_masks, CampaignConfig, FaultMask, FaultModel, Golden, ResetMode,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::workloads::mibench;

fn golden_for(isa: Isa) -> Golden {
    let bin = assemble(&mibench::build("crc32"), isa).unwrap();
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

#[derive(Clone, Copy)]
struct Cfg {
    lane_width: usize,
    workers: usize,
    reset: ResetMode,
    rungs: usize,
    conv: bool,
    et: bool,
    hvf: bool,
}

fn config(c: Cfg) -> CampaignConfig {
    CampaignConfig {
        n_faults: 40,
        collect_hvf: c.hvf,
        workers: c.workers,
        early_termination: c.et,
        reset_mode: c.reset,
        ladder_rungs: c.rungs,
        convergence_exit: c.conv,
        lane_width: c.lane_width,
        ..Default::default()
    }
}

/// Render every record field that reaches an export but `converged`
/// (classification, HVF, trap tag, cycles, early-termination flag), and
/// return which runs took the convergence exit apart: whether a run
/// converges depends on the ladder and the exit setting, so that flag
/// compares only between campaigns that share them.
fn export(golden: &Golden, target: Target, c: Cfg) -> (String, Vec<bool>) {
    let records = run_campaign(golden, target, &config(c)).records;
    let fields = records
        .iter()
        .map(|r| {
            format!("{:?},{:?},{:?},{},{}\n", r.effect, r.hvf, r.trap, r.cycles, r.early_terminated)
        })
        .collect();
    (fields, records.iter().map(|r| r.converged).collect())
}

const LANE_TARGETS: [Target; 6] =
    [Target::PrfInt, Target::PrfFp, Target::Rob, Target::L1D, Target::L1I, Target::L2];

#[test]
fn lane_records_byte_identical_to_scalar_oracle() {
    let g = golden_for(Isa::RiscV);
    for target in LANE_TARGETS {
        let scalar = |rungs, conv| {
            let c = Cfg {
                lane_width: 0,
                workers: 1,
                reset: ResetMode::Dirty,
                rungs,
                conv,
                et: true,
                hvf: true,
            };
            export(&g, target, c)
        };
        // Every field against the ladder-less scalar oracle; `converged`
        // against the scalar engine at the run's own ladder and exit.
        let oracle = scalar(0, false);
        let ladder_oracle = scalar(6, true);
        for lane_width in [64usize, 8] {
            for (workers, reset, rungs, conv, exits) in [
                (1usize, ResetMode::Clone, 0usize, false, &oracle.1),
                (4, ResetMode::Dirty, 6, true, &ladder_oracle.1),
            ] {
                let (fields, converged) = export(
                    &g,
                    target,
                    Cfg { lane_width, workers, reset, rungs, conv, et: true, hvf: true },
                );
                let cell = format!(
                    "{target:?} width={lane_width} workers={workers} \
                     reset={reset:?} rungs={rungs} conv={conv}"
                );
                assert_eq!(oracle.0, fields, "{cell}");
                assert_eq!(exits, &converged, "{cell}: convergence exits");
            }
        }
    }
}

/// Without early termination (and without HVF collection) every run goes
/// the distance — lanes retire only at rung convergence or halt, the
/// paths the main matrix exercises least.
#[test]
fn lane_records_match_oracle_without_early_termination() {
    let g = golden_for(Isa::Arm);
    for target in [Target::PrfInt, Target::Rob, Target::L1I] {
        for (et, hvf) in [(false, false), (false, true), (true, false)] {
            let base = Cfg {
                lane_width: 0,
                workers: 1,
                reset: ResetMode::Dirty,
                rungs: 6,
                conv: true,
                et,
                hvf,
            };
            let oracle = export(&g, target, base);
            let got = export(&g, target, Cfg { lane_width: 64, workers: 2, ..base });
            assert_eq!(oracle, got, "{target:?} et={et} hvf={hvf}");
        }
    }
}

/// Maximal pack density: 64 single-bit transients on the same cycle form
/// one full-width pass. Directed variant of the random campaigns above —
/// every lane shares the injection cycle, so arming, fate polls and rung
/// crossings all coincide.
#[test]
fn dense_same_cycle_pack_matches_scalar_oracle() {
    let g = golden_for(Isa::RiscV);
    for target in [Target::PrfInt, Target::Rob, Target::L1D] {
        let bit_len = g.ckpt.bit_len(target);
        let mid = g.ckpt_cycle + g.exec_cycles / 2;
        let masks: Vec<FaultMask> = (0..64u64)
            .map(|i| FaultMask {
                target,
                bits: vec![(i * 977) % bit_len],
                model: FaultModel::Transient { cycle: mid },
            })
            .collect();
        let run = |lane_width, workers| {
            let cc = CampaignConfig {
                collect_hvf: true,
                workers,
                ladder_rungs: 6,
                convergence_exit: true,
                lane_width,
                ..Default::default()
            };
            run_masks(&g, &masks, &cc)
                .iter()
                .map(|r| {
                    format!(
                        "{:?},{:?},{:?},{},{},{}\n",
                        r.effect, r.hvf, r.trap, r.cycles, r.early_terminated, r.converged
                    )
                })
                .collect::<String>()
        };
        let oracle = run(0, 1);
        for (width, workers) in [(64usize, 1usize), (64, 4), (16, 2)] {
            assert_eq!(oracle, run(width, workers), "{target:?} width={width} workers={workers}");
        }
    }
}
