//! A CPU ladder rung is a compact snapshot of the golden run — the
//! system without RAM or cache lines, plus the pages and sets written
//! since the checkpoint — that workers restore and compare laid over the
//! checkpoint. On crc32/RISC-V's shipped ladder, a worker system that ran
//! a faulty transient from rung i and is then restored to rung j (above,
//! below and equal to i, and the checkpoint) must equal a clone of the
//! checkpoint stepped fault-free to rung j's cycle, and
//! `System::state_diff` must give the same answer against the
//! compact rung as against that stepped system.

use gem5_marvel::core::{build_campaign_ladder, CampaignConfig, Golden, Ladder};
use gem5_marvel::cpu::{Bus, CoreConfig};
use gem5_marvel::ir::assemble;
use gem5_marvel::ir::memmap::RAM_BASE;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{RungView, SysSnapshot, System, Target};
use gem5_marvel::workloads::mibench;

fn crc32_golden() -> Golden {
    let bin = assemble(&mibench::build("crc32"), Isa::RiscV).unwrap();
    let mut sys = System::new(CoreConfig::table2(Isa::RiscV));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

/// Full functional equality of two systems at the same cycle: RAM, the
/// console and the cycle directly; the core through its convergence
/// compare from `stepped`, which tracks no writes and so sweeps every
/// register of both PRFs, every set of every cache (lines, tags, PLRU)
/// and the whole pipeline.
fn assert_same(restored: &System, stepped: &System, what: &str) {
    assert_eq!(restored.cycle, stepped.cycle, "{what}: cycle");
    assert!(restored.bus.ram == stepped.bus.ram, "{what}: RAM");
    assert_eq!(restored.bus.console, stepped.bus.console, "{what}: console");
    assert!(
        stepped.core.state_diff(&restored.core, restored.core.rung_lines(None)).is_none(),
        "{what}: registers, caches or pipeline"
    );
}

/// The rung at index `k` of `ladder` (`None`: the checkpoint).
fn rung(ladder: &Ladder, k: Option<usize>) -> Option<&SysSnapshot> {
    k.map(|k| ladder.rung(k))
}

#[test]
fn compact_rungs_restore_and_compare_like_the_fault_free_run() {
    let g = crc32_golden();
    let ckpt = &g.ckpt;
    let cc = CampaignConfig::default();
    let ladder = build_campaign_ladder(&g, &cc).expect("a transient campaign has a ladder");
    assert_eq!(ladder.len(), cc.ladder_rungs);
    let cycles = ladder.cycles();
    let at = |k: Option<usize>| k.map_or(g.ckpt_cycle, |k| cycles[k]);

    // Each move: run a faulty transient from rung i, then restore rung j.
    let moves = [
        (Some(3), Some(20)),
        (Some(20), Some(7)),
        (Some(7), Some(7)),
        (Some(7), None),
        (None, Some(30)),
    ];
    // The fault-free run stepped to every rung a move restores.
    let mut want: Vec<(Option<usize>, System)> = Vec::new();
    let mut stepped = ckpt.clone();
    let mut targets: Vec<Option<usize>> = moves.iter().map(|&(_, j)| j).collect();
    targets.sort();
    targets.dedup();
    for &j in &targets {
        while stepped.cycle < at(j) {
            stepped.tick();
        }
        want.push((j, stepped.clone()));
    }
    let want_at = |j: Option<usize>| &want.iter().find(|(k, _)| *k == j).expect("stepped").1;

    let mut w = ckpt.clone();
    w.enable_dirty_tracking();
    let mut laid: Option<usize> = None;
    for (i, j) in moves {
        let what = format!("rung {i:?} -> rung {j:?}");
        w.reset_from(RungView::new(ckpt, rung(&ladder, i)), rung(&ladder, laid));
        assert_eq!(w.cycle, at(i), "{what}: restored cycle");
        // A faulty transient: flipped PRF and L1D bits, and a corrupt
        // line written back to a RAM page.
        w.flip(Target::PrfInt, 9 * 64 + 5);
        w.flip(Target::L1D, 70_001);
        for _ in 0..5_000 {
            w.tick();
        }
        assert!(w.bus.write_line(RAM_BASE + 40 * 4096, &[0x5A; 64]));
        w.reset_from(RungView::new(ckpt, rung(&ladder, j)), rung(&ladder, i));
        laid = j;
        assert_same(&w, want_at(j), &what);
    }

    // The convergence compare, against rung j compact and against the
    // fault-free run stepped there, on a worker that restored rung j - 1
    // and ran fault-free up to rung j, so its journals hold the segment.
    let j = 20;
    let (view, full) =
        (RungView::new(ckpt, rung(&ladder, Some(j))), RungView::new(want_at(Some(j)), None));
    w.reset_from(RungView::new(ckpt, rung(&ladder, Some(j - 1))), rung(&ladder, laid));
    while w.cycle < cycles[j] {
        w.tick();
    }
    let agree = |s: &System, expect: bool, what: &str| {
        let (mut a, mut b) = (s.clone(), s.clone());
        assert_eq!(a.state_diff(view).is_none(), expect, "{what}: against the compact rung");
        assert_eq!(b.state_diff(full).is_none(), expect, "{what}: against the stepped system");
    };
    agree(&w, true, "a matching state");
    // A set the rung holds: a line filled since the checkpoint.
    let l2 = &want_at(Some(j)).core.l2;
    let line_bits = 64 * 8;
    let bit = (0..l2.bit_len() / line_bits)
        .map(|line| line * line_bits + 3)
        .find(|&b| l2.bit_in_valid_line(b) && !ckpt.core.l2.bit_in_valid_line(b))
        .expect("the golden run fills L2 lines after its checkpoint");
    let mut s = w.clone();
    s.flip(Target::L2, bit);
    agree(&s, false, "a state that differs at a set the rung holds");
    // A page only the checkpoint holds: crc32 writes no RAM after its
    // checkpoint, so its rungs copy no page.
    let mut s = w.clone();
    assert!(s.bus.write_line(RAM_BASE + 40 * 4096, &[0xA5; 64]));
    agree(&s, false, "a state that differs at a page only the checkpoint holds");
}
