//! Fig. 15: physical-register-file AVF sensitivity to PRF size
//! (96/128/192 registers, RISC-V).

use marvel_core::{run_campaign, weighted_avf};
use marvel_experiments::{banner, benches, config, cpu_golden, FigTable, Unit::Frac};
use marvel_isa::Isa;
use marvel_soc::Target;
use marvel_workloads::mibench;

fn main() {
    banner("Fig. 15", "RF AVF vs number of physical registers (RISC-V)");
    let cc = config();
    let names = benches();
    let sizes = [96usize, 128, 192];
    let values = [("prf96", Frac), ("prf128", Frac), ("prf192", Frac)];
    let mut t = FigTable::new("fig15_prf_sensitivity", "Fig. 15", &names, &["benchmark"], &values);
    let mut per_size: Vec<Vec<(f64, f64)>> = vec![Vec::new(); sizes.len()];
    for &bench in &names {
        let program = mibench::build(bench);
        let mut avfs = Vec::new();
        for (k, &n) in sizes.iter().enumerate() {
            let golden = cpu_golden(&program, Isa::RiscV, Some(n));
            let avf = run_campaign(&golden, Target::PrfInt, &cc).avf();
            avfs.push(avf);
            per_size[k].push((avf, golden.exec_cycles as f64));
            eprintln!("  [{bench}/prf{n}] avf={:.1}%", avf * 100.0);
        }
        t.push(&[bench], &avfs);
    }
    t.note = "wAVF:".to_string();
    for ((name, _), items) in values.iter().zip(&per_size) {
        t.note += &format!(" {name}={:.1}%", weighted_avf(items) * 100.0);
    }
    t.note.push('\n');
    t.print_and_save();
}
