//! Fig. 17: GEMM accelerator design-space exploration — AVF of the
//! MATRIX1 input SPM, performance, and area across five functional-unit
//! configurations.

use marvel_accel::FuConfig;
use marvel_core::run_dsa_campaign;
use marvel_experiments::{banner, config, dsa_golden, FigTable, Unit};
use marvel_soc::Target;
use marvel_workloads::accel::design;

fn main() {
    banner("Fig. 17", "GEMM DSE: MATRIX1 AVF / performance / area vs parallel FUs");
    let cc = config();
    let d = design("GEMM");
    let values = [("avf", Unit::Frac), ("cycles", Unit::Count), ("area", Unit::Real)];
    let mut t = FigTable::new("fig17_gemm_dse", "Fig. 17", &[d.name], &["fus"], &values);
    for n in [16usize, 8, 4, 2, 1] {
        let golden = dsa_golden(&d, FuConfig::uniform(n));
        let avf = run_dsa_campaign(&golden, Target::Spm { accel: 0, mem: 0 }, &cc).avf();
        t.push(&[n.to_string().as_str()], &[avf, golden.cycles as f64, golden.harness.accel.area()]);
        eprintln!("  [fu={n}] avf={:.1}% cycles={}", avf * 100.0, golden.cycles);
    }
    t.print_and_save();
}
