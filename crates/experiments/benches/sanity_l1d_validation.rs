//! Listing 1 sanity check: the L1 data cache validation program.
//!
//! The program fills a cache-sized, line-aligned array with zeros (ten
//! warm-up passes), executes the checkpoint marker, idles in a nop loop
//! (the injection window), executes the switch-cpu marker, then sums the
//! array — a non-zero sum means the injected fault landed and survived.
//! With faults directed uniformly at the resident array lines during the
//! idle window, the measured AVF must be ~100%, validating the injector's
//! coverage of the whole L1D.

use marvel_core::{run_masks, CampaignConfig, FaultEffect, FaultMask, FaultModel};
use marvel_experiments::{banner, cpu_golden, results_dir};
use marvel_ir::{FuncBuilder, Module};
use marvel_isa::{AluOp, Cond, Isa, MemWidth};
use marvel_soc::Target;

/// Words in the test array: exactly the 32 KiB L1D.
const CSIZE: i64 = 4096;

fn validation_program() -> Module {
    let mut m = Module::new();
    let arr = m.global_zeroed("myArrSec", (CSIZE * 8) as usize, 64);
    let f = m.declare("main", 0);
    let mut b = FuncBuilder::new(0);
    let base = b.addr_of(arr);
    // Ten zero-fill passes to warm every way (lines 13–15 of Listing 1).
    for _ in 0..10 {
        let i = b.li(0);
        let top = b.new_label();
        b.bind(top);
        b.store_idx(MemWidth::D, 0i64, base, i);
        let i2 = b.bin(AluOp::Add, i, 1);
        b.assign(i, i2);
        b.br(Cond::Lt, i, CSIZE, top);
    }
    b.checkpoint(); // start injection here
    let j = b.li(0);
    let top = b.new_label();
    b.bind(top);
    b.nop();
    b.nop();
    let j2 = b.bin(AluOp::Add, j, 1);
    b.assign(j, j2);
    b.br(Cond::Lt, j, 5000, top);
    b.switch_cpu(); // end injection here
    let sum = b.li(0);
    let i = b.li(0);
    let top2 = b.new_label();
    b.bind(top2);
    let v = b.load_idx(MemWidth::D, false, base, i);
    let s = b.bin(AluOp::Add, sum, v);
    b.assign(sum, s);
    let i2 = b.bin(AluOp::Add, i, 1);
    b.assign(i, i2);
    b.br(Cond::Lt, i, CSIZE, top2);
    for k in 0..8i64 {
        let byte = b.bin(AluOp::Srl, sum, k * 8);
        b.out_byte(byte);
    }
    b.halt();
    m.define(f, b.build());
    m
}

fn main() {
    banner("Sanity", "Listing 1 — L1D injector validation (expected AVF ≈ 100%)");
    let n_faults: usize =
        std::env::var("MARVEL_FAULTS").ok().and_then(|v| v.parse().ok()).unwrap_or(300);
    let mut out = String::new();
    for isa in Isa::ALL {
        let golden = cpu_golden(&validation_program(), isa, None);
        let switch = golden.switch_cycle.expect("program has a switch marker");
        // Uniform faults over the whole L1D during the idle window.
        let bit_len = golden.ckpt.bit_len(Target::L1D);
        let mut rng = marvel_workloads::util::Lcg::new(0x11D);
        let lo = golden.ckpt_cycle + 10;
        let hi = switch.max(lo + 1);
        let masks: Vec<FaultMask> = (0..n_faults)
            .map(|_| FaultMask {
                target: Target::L1D,
                bits: vec![rng.below(bit_len)],
                model: FaultModel::Transient { cycle: lo + rng.below(hi - lo) },
            })
            .collect();
        let cc = CampaignConfig { n_faults, ..Default::default() };
        let records = run_masks(&golden, &masks, &cc);
        let unmasked = records.iter().filter(|r| r.effect != FaultEffect::Masked).count() as f64;
        let avf = unmasked / records.len() as f64;
        out.push_str(&format!("{:<8} measured L1D AVF = {:>5.1}%\n", isa.name(), avf * 100.0));
        assert!(avf > 0.90, "{isa}: validation AVF {avf:.3} below 90% — injector coverage broken");
    }
    print!("{out}");
    out.push_str("expected: ~100% (every resident array bit is read by the checksum)\n");
    std::fs::write(results_dir().join("sanity_l1d_validation.txt"), out).unwrap();
    println!("PASS: L1D fault-injection coverage validated");
}
