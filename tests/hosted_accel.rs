//! One accelerator host interface under both of its callers: the
//! standalone DSA harness, which starts the offload from a script, and a
//! SoC whose host CPU programs the accelerator over MMRs and waits for its
//! interrupt. Both must agree on the offload's output and compute time,
//! fault-free and with the same SPM bit flipped mid-compute. SoC
//! campaigns (`run_campaign`) into the hosted accelerator's SPM and MMRs
//! must give the same records with and without the checkpoint ladder, in
//! either reset mode, on one worker or two.

use gem5_marvel::accel::air::{CdfgBuilder, MemRef};
use gem5_marvel::accel::{Accelerator, DmaDir, DmaJob, FuConfig, Sram, SramKind};
use gem5_marvel::core::{
    run_campaign, CampaignConfig, DsaHarness, DsaOutcome, FaultMask, FaultModel, Golden, ResetMode,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::memmap::{ACCEL_MMR_BASE, IRQ_FLAG_ADDR, RAM_BASE};
use gem5_marvel::ir::{assemble, FuncBuilder, Module};
use gem5_marvel::isa::{AluOp, Cond, Isa, MemWidth};
use gem5_marvel::soc::{DmaPlanEntry, HostedAccel, RunOutcome, System, Target};

const INPUT: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// OUT[i] = IN[i] + 100 for 8 u64 values.
fn accel_add100() -> Accelerator {
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
    let hundred = g.konst(100);
    let v2 = g.alu(AluOp::Add, v, hundred);
    g.store(MemRef::Spm(1), 8, off, v2);
    let one = g.konst(1);
    let i2 = g.alu(AluOp::Add, i, one);
    let n = g.konst(8);
    let more = g.alu(AluOp::Sltu, i2, n);
    g.branch(more, body, &[i2], done, &[]);
    g.select(done);
    g.finish();
    Accelerator::new(
        "add100",
        g.build().unwrap(),
        FuConfig::default(),
        vec![Sram::new("IN", SramKind::Spm, 64, 2), Sram::new("OUT", SramKind::Spm, 64, 2)],
        vec![],
        0,
    )
}

/// `add100` on its own: INPUT at RAM offset 0, the result at 64.
fn harness() -> DsaHarness {
    let mut ram = vec![0u8; 128];
    for (w, x) in ram.chunks_mut(8).zip(INPUT) {
        w.copy_from_slice(&x.to_le_bytes());
    }
    DsaHarness::new(
        accel_add100(),
        ram,
        vec![DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 64 }],
        vec![DmaJob { dir: DmaDir::ToRam, ram_off: 64, mem: MemRef::Spm(1), mem_off: 0, len: 64 }],
        vec![],
        64..128,
    )
}

/// The SoC of the soc crate's tests: `add100` hosted on a RISC-V core
/// whose program checkpoints, writes the input and output buffer
/// addresses to MMR data registers 0 and 1, starts the accelerator, waits
/// for the interrupt and prints the low byte of each result. Also returns
/// the output buffer's offset in RAM.
fn soc() -> (System, usize) {
    let mut m = Module::new();
    let input = m.global_u64("in", &INPUT);
    let output = m.global_zeroed("out", 64, 8);
    let f = m.declare("main", 0);
    let mut b = FuncBuilder::new(0);
    b.checkpoint();
    let mmr = b.li(ACCEL_MMR_BASE as i64);
    let inp = b.addr_of(input);
    let outp = b.addr_of(output);
    b.store(MemWidth::D, inp, mmr, 16);
    b.store(MemWidth::D, outp, mmr, 24);
    b.store(MemWidth::D, 1, mmr, 0);
    let flag = b.li(IRQ_FLAG_ADDR as i64);
    let wait = b.new_label();
    b.bind(wait);
    let fv = b.load(MemWidth::D, false, flag, 0);
    b.br(Cond::Eq, fv, 0, wait);
    let i = b.li(0);
    let top = b.new_label();
    b.bind(top);
    let v = b.load_idx(MemWidth::D, false, outp, i);
    b.out_byte(v);
    let i2 = b.bin(AluOp::Add, i, 1);
    b.assign(i, i2);
    b.br(Cond::Lt, i, 8, top);
    b.halt();
    m.define(f, b.build());

    let isa = Isa::RiscV;
    let mut sys = System::new(CoreConfig::table2(isa));
    let plan = |dir, addr_arg, mem| DmaPlanEntry { dir, addr_arg, mem, mem_off: 0, len: 64 };
    sys.add_accel(HostedAccel::new(
        accel_add100(),
        vec![plan(DmaDir::ToSram, 0, MemRef::Spm(0))],
        vec![plan(DmaDir::ToRam, 1, MemRef::Spm(1))],
        vec![],
    ));
    let bin = assemble(&m, isa).unwrap();
    sys.load_binary(&bin);
    (sys, (bin.global_addrs[output] - RAM_BASE) as usize)
}

/// Run the SoC to its halt; the result buffer the accelerator's DMA-out
/// wrote, and the accelerator's compute cycles.
fn finish(mut sys: System, out: usize) -> (Vec<u8>, u64) {
    assert!(matches!(sys.run(3_000_000), RunOutcome::Halted { .. }));
    (sys.bus.ram[out..out + 64].to_vec(), sys.bus.accels[0].accel.stats.compute_cycles)
}

#[test]
fn standalone_and_hosted_offloads_agree() {
    let mut h = harness();
    let DsaOutcome::Done { output, .. } = h.run(None, 100_000) else { panic!("fault-free run failed") };
    let (sys, out) = soc();
    assert_eq!(finish(sys.clone(), out), (output.clone(), h.accel.stats.compute_cycles));
    assert_eq!(output[..8], 101u64.to_le_bytes());

    // IN[7] bit 3 (8 → 0) flipped once compute has run 5 cycles: both
    // sides count the host interface's cycles from the start handshake,
    // so the flip lands at the same point of the offload.
    let target = Target::Spm { accel: 0, mem: 0 };
    let bit = 7 * 64 + 3;
    let mut faulty = sys;
    while faulty.bus.accels[0].accel.stats.compute_cycles < 5 {
        faulty.tick();
    }
    let cycle = faulty.bus.accels[0].host.cycle() + 1;
    faulty.flip(target, bit);
    let (hosted, _) = finish(faulty, out);
    let mask = FaultMask { target, bits: vec![bit], model: FaultModel::Transient { cycle } };
    let DsaOutcome::Done { output: standalone, .. } = harness().run(Some(&mask), 100_000) else {
        panic!("faulty standalone run failed")
    };
    assert_eq!(hosted, standalone);
    assert_eq!(standalone[56..], 100u64.to_le_bytes(), "OUT[7] = 0 + 100");
}

#[test]
fn hosted_accelerator_campaigns_match_their_ladderless_oracle() {
    let g = Golden::prepare(soc().0, 3_000_000).unwrap();
    for target in [Target::Spm { accel: 0, mem: 0 }, Target::Mmr { accel: 0 }] {
        let records = |ladder_rungs, reset_mode, workers| {
            let cc =
                CampaignConfig { n_faults: 32, workers, reset_mode, ladder_rungs, ..Default::default() };
            let res = run_campaign(&g, target, &cc);
            res.records
                .iter()
                .map(|r| {
                    format!(
                        "{:?} {:?} {:?} {} {}",
                        r.effect, r.hvf, r.trap, r.cycles, r.early_terminated
                    )
                })
                .collect::<Vec<_>>()
        };
        let oracle = records(0, ResetMode::Clone, 1);
        assert_eq!(oracle.len(), 32);
        for rungs in [0, 8, CampaignConfig::default().ladder_rungs] {
            for mode in [ResetMode::Clone, ResetMode::Dirty] {
                for workers in [1, 2] {
                    assert_eq!(
                        records(rungs, mode, workers),
                        oracle,
                        "{target:?} {rungs} {mode:?} {workers}"
                    );
                }
            }
        }
    }
}
