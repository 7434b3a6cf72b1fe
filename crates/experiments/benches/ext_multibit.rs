//! Extension experiment (beyond the paper's shown single-bit results):
//! multi-bit adjacent-burst faults in the L1D — the spatial MBU scenario
//! the paper's framework supports (Section IV-A1) but does not plot.

use marvel_core::{run_masks, FaultEffect, FaultKind, MaskGenerator};
use marvel_experiments::{banner, config, cpu_golden, FigTable, Unit::Frac};
use marvel_isa::Isa;
use marvel_soc::Target;
use marvel_workloads::mibench;

fn main() {
    banner("Extension", "multi-bit adjacent bursts in the L1D (qsort, RISC-V)");
    let cc = config();
    let golden = cpu_golden(&mibench::build("qsort"), Isa::RiscV, None);
    let bit_len = golden.ckpt.bit_len(Target::L1D);
    let values = [("avf", Frac), ("sdc", Frac), ("crash", Frac)];
    let mut t = FigTable::new("ext_multibit", "Extension (L1D bursts)", &["qsort"], &["burst"], &values);
    for burst in [1u64, 2, 4, 8, 16] {
        let mut gen = MaskGenerator::new(cc.seed ^ burst);
        let masks = gen.adjacent_multi_bit(
            Target::L1D,
            bit_len,
            burst,
            FaultKind::Transient,
            golden.injection_window(),
            cc.n_faults,
        );
        let records = run_masks(&golden, &masks, &cc);
        let n = records.len() as f64;
        let share = |e| records.iter().filter(|r| r.effect == e).count() as f64 / n;
        let (sdc, crash) = (share(FaultEffect::Sdc), share(FaultEffect::Crash));
        t.push(&[burst.to_string().as_str()], &[sdc + crash, sdc, crash]);
        eprintln!("  [burst={burst}] done");
    }
    t.note = "expected: AVF non-decreasing with burst size (more corrupted bits\nper event, same spatial locality).\n".into();
    t.print_and_save();
}
