//! Fig. 16: performance-aware comparison — AVF breakdown (left) and
//! Operations-per-Failure (right) for GEMM/BFS/FFT/KNN on a standalone
//! RISC-V CPU vs the corresponding accelerator designs.
//!
//! The CPU side aggregates the AVF over its two dominant structures
//! (integer RF and L1D); the DSA side aggregates over its Table IV
//! components. Both platforms are assumed to run at the same clock, so
//! cycle counts stand in for time.

use marvel_accel::FuConfig;
use marvel_core::{opf, run_campaign, run_dsa_campaign, CampaignResult};
use marvel_experiments::{banner, config, cpu_golden, dsa_golden, FigTable, Unit};
use marvel_isa::Isa;
use marvel_soc::Target;
use marvel_workloads::{accel, cpu_ports, mibench};

const CLOCK_HZ: f64 = 2.0e9;

/// Append the platform's row: SDC and crash averaged over `results`.
fn push(t: &mut FigTable, platform: &str, results: &[CampaignResult], cycles: u64, ops: f64) {
    let n = results.len() as f64;
    let sdc = results.iter().map(|r| r.sdc_avf() / n).sum::<f64>();
    let crash = results.iter().map(|r| r.crash_avf() / n).sum::<f64>();
    let o = opf(ops, cycles as f64 / CLOCK_HZ, sdc + crash);
    t.push(&[platform], &[sdc, crash, sdc + crash, cycles as f64, o]);
    eprintln!("  [{platform}] done ({cycles} cycles)");
}

fn main() {
    banner("Fig. 16", "CPU vs DSA: AVF breakdown and Operations-per-Failure");
    let cc = config();
    let kernels = [
        ("GEMM", cpu_ports::gemm_cpu(), "gemm", "GEMM", "gemm_dsa"),
        ("BFS", cpu_ports::bfs_cpu(), "bfs", "BFS", "bfs"),
        ("FFT", mibench::build("fft"), "fft", "FFT", "fft_dsa"),
        ("KNN", cpu_ports::knn_cpu(), "knn", "MD_KNN", "knn"),
    ];
    let names: Vec<_> = kernels.iter().map(|k| k.0).collect();
    let values = [
        ("sdc", Unit::Frac),
        ("crash", Unit::Frac),
        ("avf", Unit::Frac),
        ("cycles", Unit::Count),
        ("opf", Unit::Sci),
    ];
    let mut t = FigTable::new("fig16_cpu_vs_dsa_opf", "Fig. 16", &names, &["platform"], &values);
    for (label, program, cpu_ops, design, dsa_ops) in &kernels {
        let golden = cpu_golden(program, Isa::RiscV, None);
        let results = [Target::PrfInt, Target::L1D].map(|target| run_campaign(&golden, target, &cc));
        let ops = cpu_ports::ops_per_run(cpu_ops);
        push(&mut t, &format!("{label}-CPU"), &results, golden.exec_cycles, ops);
        let d = accel::design(design);
        let golden = dsa_golden(&d, FuConfig::default());
        let results: Vec<_> =
            d.components.iter().map(|c| run_dsa_campaign(&golden, c.target, &cc)).collect();
        push(&mut t, &format!("{label}-DSA"), &results, golden.cycles, cpu_ports::ops_per_run(dsa_ops));
    }
    t.print_and_save();
}
