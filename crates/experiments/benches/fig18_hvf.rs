//! Fig. 18: Hardware Vulnerability Factor (HVF) vs AVF for the physical
//! register file and the L1 data cache over six benchmarks — HVF and AVF
//! measured on the *same* runs, with the fault-propagation matrix that
//! correlates them: masked in hardware, or reached commit and then
//! SW-masked, SDC or crash.

use marvel_core::{run_campaign, CampaignConfig, PropagationMatrix};
use marvel_experiments::{banner, config, cpu_golden, FigTable, Unit};
use marvel_isa::Isa;
use marvel_soc::Target;
use marvel_workloads::mibench;

const BENCHES: [&str; 6] = ["qsort", "sha", "crc32", "dijkstra", "fft", "stringsearch"];

fn main() {
    banner("Fig. 18", "HVF vs AVF (physical register file + L1D, same runs)");
    let cc = CampaignConfig { collect_hvf: true, ..config() };
    let values = [
        ("hvf", Unit::Frac),
        ("avf", Unit::Frac),
        ("hw_masked", Unit::Count),
        ("corrupt_sw_masked", Unit::Count),
        ("corrupt_sdc", Unit::Count),
        ("corrupt_crash", Unit::Count),
    ];
    let mut t = FigTable::new("fig18_hvf", "Fig. 18", &BENCHES, &["benchmark", "target"], &values);
    for bench in BENCHES {
        let golden = cpu_golden(&mibench::build(bench), Isa::RiscV, None);
        for (tname, target) in [("RF", Target::PrfInt), ("L1D", Target::L1D)] {
            let res = run_campaign(&golden, target, &cc);
            let hvf = res.hvf().expect("campaign collected HVF");
            let avf = res.avf();
            assert!(
                hvf + 1e-9 >= avf,
                "{bench}/{tname}: HVF ({hvf}) must be >= AVF ({avf}) by definition"
            );
            let m = PropagationMatrix::from_records(&res.records).expect("campaign collected HVF");
            let counts =
                [m.hw_masked, m.corrupt_sw_masked, m.corrupt_sdc, m.corrupt_crash].map(|c| c as f64);
            t.push(&[bench, tname], &[&[hvf, avf][..], &counts[..]].concat());
            eprintln!("  [{bench}/{tname}] hvf={:.1}% avf={:.1}%", hvf * 100.0, avf * 100.0);
        }
    }
    t.print_and_save();
}
