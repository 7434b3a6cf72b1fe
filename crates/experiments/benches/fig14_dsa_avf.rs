//! Fig. 14: AVF breakdown (SDC vs Crash) for all eight accelerator
//! designs, per Table IV injection component.

use marvel_accel::FuConfig;
use marvel_core::run_dsa_campaign;
use marvel_experiments::{banner, config, dsa_golden, FigTable, Unit::Frac};
use marvel_workloads::accel::designs;

fn main() {
    banner("Fig. 14", "DSA AVF breakdown (SDC + Crash) per injection component");
    let cc = config();
    let designs = designs();
    let names: Vec<_> = designs.iter().map(|d| d.name).collect();
    let values = [("sdc", Frac), ("crash", Frac), ("avf", Frac)];
    let mut t = FigTable::new("fig14_dsa_avf", "Fig. 14", &names, &["design", "component"], &values);
    for d in &designs {
        let golden = dsa_golden(d, FuConfig::default());
        for c in &d.components {
            let res = run_dsa_campaign(&golden, c.target, &cc);
            t.push(&[d.name, c.name], &[res.sdc_avf(), res.crash_avf(), res.avf()]);
            eprintln!("  [{}] {} done", d.name, c.name);
        }
    }
    t.print_and_save();
}
