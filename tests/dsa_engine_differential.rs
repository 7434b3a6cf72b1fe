//! Differential oracle for the event-driven DSA engine: campaigns driven
//! by the static-schedule/golden-replay engine must produce byte-identical
//! exports — per-run effect/trap/cycles/early-termination/convergence plus
//! the marvel-taint attribution tables — to the tick-every-cycle oracle,
//! across fault models (transient/permanent), targets (SPM, RegBank, MMR),
//! worker counts, reset modes and ladder/convergence configurations.

use gem5_marvel::core::{
    attribution_by_structure, attribution_csv, attribution_jsonl, run_dsa_campaign, run_dsa_masks,
    CampaignConfig, CampaignResult, DsaEngine, DsaGolden, DsaOutcome, FaultEffect, FaultKind, FaultMask,
    FaultModel, ResetMode, TelemetryConfig,
};
use gem5_marvel::soc::Target;
use gem5_marvel::workloads::accel;
use marvel_accel::air::{CdfgBuilder, MemRef};
use marvel_accel::{Accelerator, DmaDir, DmaJob, FuConfig, Sram, SramKind};
use marvel_core::DsaHarness;
use marvel_isa::AluOp;

fn config(
    kind: FaultKind,
    engine: DsaEngine,
    reset: ResetMode,
    rungs: usize,
    conv: bool,
    workers: usize,
) -> CampaignConfig {
    CampaignConfig {
        n_faults: 12,
        kind,
        workers,
        reset_mode: reset,
        ladder_rungs: rungs,
        convergence_exit: conv,
        dsa_engine: engine,
        telemetry: TelemetryConfig { taint: true, ..Default::default() },
        ..Default::default()
    }
}

/// Render the full export surface of one campaign: one line per run
/// (classification, trap tag, cycle count, early-termination and
/// convergence flags) plus the attribution CSV + JSONL tables.
fn export(res: &CampaignResult) -> String {
    let mut out: String = res
        .records
        .iter()
        .map(|r| {
            format!("{:?},{:?},{},{},{}\n", r.effect, r.trap, r.cycles, r.early_terminated, r.converged)
        })
        .collect();
    if let Some(map) = attribution_by_structure(&res.records) {
        out.push_str(&attribution_csv(&map));
        out.push_str(&attribution_jsonl(&map));
    }
    out
}

#[test]
fn event_engine_exports_byte_identical_across_matrix() {
    let cases = [
        ("FFT", Target::Spm { accel: 0, mem: 0 }),
        ("BFS", Target::RegBank { accel: 0, mem: 0 }),
        ("BFS", Target::Mmr { accel: 0 }),
    ];
    for (design, target) in cases {
        let d = accel::design(design);
        let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
        assert!(g.harness.accel.replay_armed(), "{design} must be schedulable");
        for kind in [FaultKind::Transient, FaultKind::Permanent] {
            let oracle = export(&run_dsa_campaign(
                &g,
                target,
                &config(kind, DsaEngine::Cycle, ResetMode::Clone, 0, false, 1),
            ));
            for workers in [1usize, 2, 8] {
                for reset in [ResetMode::Clone, ResetMode::Dirty] {
                    for (rungs, conv) in [(0usize, false), (6, true)] {
                        let got = export(&run_dsa_campaign(
                            &g,
                            target,
                            &config(kind, DsaEngine::Event, reset, rungs, conv, workers),
                        ));
                        assert_eq!(
                            oracle, got,
                            "{design} {target:?} {kind:?} workers={workers} \
                             reset={reset:?} rungs={rungs} conv={conv}"
                        );
                    }
                }
            }
        }
    }
}

/// Non-taint campaigns must also export identically: the event engine
/// enables the shadow planes internally (replay memoization needs them),
/// which must not leak attribution into records the cycle oracle leaves
/// bare.
#[test]
fn event_engine_without_taint_matches_cycle_oracle() {
    let d = accel::design("FFT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    let target = Target::Spm { accel: 0, mem: 1 };
    let plain = |engine| {
        let cc = CampaignConfig {
            n_faults: 16,
            workers: 2,
            dsa_engine: engine,
            ladder_rungs: 0,
            ..Default::default()
        };
        let res = run_dsa_campaign(&g, target, &cc);
        assert!(
            res.records.iter().all(|r| r.attribution.is_none()),
            "non-taint campaigns must not carry attribution ({engine:?})"
        );
        export(&res)
    };
    assert_eq!(plain(DsaEngine::Cycle), plain(DsaEngine::Event));
}

/// Elementwise OUT[i] = IN[i] * 3: IN (Spm 0) is the only memory any load
/// manifest touches, OUT (Spm 1) is store-only. A fault in OUT is
/// therefore provably disjoint from every load in the design.
fn triple_harness(n: u64) -> DsaHarness {
    let bytes = (n * 8) as usize;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let body = g.block(1);
    let done = g.block(0);
    g.select(entry);
    let z = g.konst(0);
    g.jump(body, &[z]);
    g.select(body);
    let i = g.arg(0);
    let eight = g.konst(8);
    let off = g.alu(AluOp::Mul, i, eight);
    let v = g.load(MemRef::Spm(0), 8, off);
    let three = g.konst(3);
    let prod = g.alu(AluOp::Mul, v, three);
    g.store(MemRef::Spm(1), 8, off, prod);
    let one = g.konst(1);
    let i2 = g.alu(AluOp::Add, i, one);
    let nn = g.konst(n);
    let more = g.alu(AluOp::Sltu, i2, nn);
    g.branch(more, body, &[i2], done, &[]);
    g.select(done);
    g.finish();
    let accel = Accelerator::new(
        "triple",
        g.build().unwrap(),
        FuConfig::default(),
        vec![Sram::new("IN", SramKind::Spm, bytes, 2), Sram::new("OUT", SramKind::Spm, bytes, 2)],
        vec![],
        0,
    );
    let mut ram = vec![0u8; bytes * 2];
    for (k, b) in ram.iter_mut().take(bytes).enumerate() {
        *b = (k as u8).wrapping_mul(13).wrapping_add(7);
    }
    DsaHarness::new(
        accel,
        ram,
        vec![DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: bytes }],
        vec![DmaJob { dir: DmaDir::ToRam, ram_off: bytes, mem: MemRef::Spm(1), mem_off: 0, len: bytes }],
        vec![],
        bytes..bytes * 2,
    )
}

/// `DsaHarness::run` and campaign runs share one run loop and one arm
/// order (start handshake, then the permanent mask), so every MMR bit
/// stuck at either value classifies the same both ways, to the cycle.
/// CTRL's start bit stuck at 0 is the case that once differed: the
/// handshake overwrote the stuck bit in `run` (Masked) but not in a
/// campaign (Crash at the watchdog).
#[test]
fn harness_run_matches_campaign_on_every_stuck_mmr_bit() {
    let g = DsaGolden::prepare(triple_harness(8), 1_000_000);
    let target = Target::Mmr { accel: 0 };
    let masks: Vec<FaultMask> = (0..g.harness.bit_len(target))
        .flat_map(|bit| {
            [false, true].map(|value| FaultMask {
                target,
                bits: vec![bit],
                model: FaultModel::Permanent { value },
            })
        })
        .collect();
    assert_eq!(masks.len(), 256);
    let cc = CampaignConfig {
        workers: 2,
        ladder_rungs: 0,
        dsa_engine: DsaEngine::Cycle,
        ..Default::default()
    };
    let campaign = run_dsa_masks(&g, target, &masks, &cc);
    let watchdog = g.watchdog();
    for (mask, rec) in masks.iter().zip(&campaign.records) {
        let run = match g.harness.clone().run(Some(mask), watchdog) {
            DsaOutcome::Done { output, cycles } if output == g.output => (FaultEffect::Masked, cycles),
            DsaOutcome::Done { cycles, .. } => (FaultEffect::Sdc, cycles),
            DsaOutcome::Error { cycles } => (FaultEffect::Crash, cycles),
            DsaOutcome::Timeout => (FaultEffect::Crash, watchdog),
        };
        assert_eq!(run, (rec.effect, rec.cycles), "{mask:?}");
    }
}

/// Stuck-at shadow taint whose byte range is provably disjoint from every
/// load manifest must not defeat the whole-block warp: the warp's
/// per-load taint check is byte-precise, so a permanent fault in a
/// store-only memory leaves every block warpable (stores still go through
/// the ordinary write path, which reasserts the stuck bit and its shadow
/// taint). Pins both the warp coverage — via the `warp_blocks` stat —
/// and campaign-level byte-identity against the cycle oracle.
#[test]
fn warp_tolerates_load_disjoint_stuck_taint() {
    let g = DsaGolden::prepare(triple_harness(64), 1_000_000);
    assert!(g.harness.accel.replay_armed(), "triple must be schedulable");
    let out_spm = Target::Spm { accel: 0, mem: 1 };

    // Warp coverage oracle: the fault-free event run warps everything.
    let warp_full = {
        let mut h = g.harness.clone();
        assert!(h.accel.set_engine_event());
        h.accel.enable_taint("IN");
        h.run(None, 1_000_000);
        h.accel.stats.warp_blocks
    };
    assert!(warp_full > 60, "fault-free replay must warp the whole run, got {warp_full}");

    // Stuck-at in the store-only OUT memory: taint never meets a load
    // manifest, so warp coverage must not regress.
    let mut h = g.harness.clone();
    assert!(h.accel.set_engine_event());
    h.accel.enable_taint("OUT");
    let mask = FaultMask {
        target: out_spm,
        bits: vec![5 * 64 + 3],
        model: FaultModel::Permanent { value: true },
    };
    h.run(Some(&mask), 1_000_000);
    assert_eq!(
        h.accel.stats.warp_blocks, warp_full,
        "load-disjoint stuck taint must not abort any block warp"
    );

    // And the campaign export surface stays byte-identical to the cycle
    // oracle for stuck-at faults on the store-only memory.
    let oracle = export(&run_dsa_campaign(
        &g,
        out_spm,
        &config(FaultKind::Permanent, DsaEngine::Cycle, ResetMode::Clone, 0, false, 1),
    ));
    for reset in [ResetMode::Clone, ResetMode::Dirty] {
        for (rungs, conv) in [(0usize, false), (6, true)] {
            let got = export(&run_dsa_campaign(
                &g,
                out_spm,
                &config(FaultKind::Permanent, DsaEngine::Event, reset, rungs, conv, 2),
            ));
            assert_eq!(oracle, got, "stuck-at OUT campaign reset={reset:?} rungs={rungs} conv={conv}");
        }
    }
}

/// Regression for the convergence-exit bugfix: with the event engine's
/// lazy retirement, a fault injected on a cycle strictly between two
/// schedule events must not let `state_eq` declare a masked run while
/// fire events are still pending. Sweep a dense band of injection cycles
/// mid-compute (guaranteeing many between-event landings) and require
/// the laddered convergence-exit campaign to match the full-run cycle
/// oracle record for record.
#[test]
fn convergence_exit_is_exact_between_fire_events() {
    let d = accel::design("FFT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    let target = Target::Spm { accel: 0, mem: 0 };
    let bit_len = g.harness.accel.spms[0].bit_len();
    let mid = g.cycles / 2;
    let masks: Vec<FaultMask> = (0..48u64)
        .map(|i| FaultMask {
            target,
            bits: vec![(i * 977) % bit_len],
            model: FaultModel::Transient { cycle: mid + i },
        })
        .collect();
    let oracle = export(&run_dsa_masks(
        &g,
        target,
        &masks,
        &config(FaultKind::Transient, DsaEngine::Cycle, ResetMode::Clone, 0, false, 1),
    ));
    for engine in [DsaEngine::Cycle, DsaEngine::Event] {
        let got = export(&run_dsa_masks(
            &g,
            target,
            &masks,
            &config(FaultKind::Transient, engine, ResetMode::Dirty, 8, true, 2),
        ));
        assert_eq!(oracle, got, "laddered convergence exit diverged on {engine:?}");
    }
}
