//! Golden-prep equivalence: `Golden::prepare_fast` (reference-model
//! fast-forward to the checkpoint + architectural-state transplant) must
//! be interchangeable with the cycle-level `Golden::prepare` for
//! everything a campaign *architecturally* depends on. Microarchitectural
//! timing (exec_cycles, checkpoint cycle) legitimately differs; the
//! golden output, the committed-instruction trace and the classification
//! of faults in structures the program never exercises must not.

use gem5_marvel::core::{run_campaign, CampaignConfig, FaultEffect, Golden};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::workloads::mibench;

const BENCHES: [&str; 2] = ["crc32", "bitcount"];

fn prep_pair(bench: &str, isa: Isa) -> (Golden, Golden) {
    let bin = assemble(&mibench::build(bench), isa).unwrap();
    let mk = || {
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        sys
    };
    let slow = Golden::prepare(mk(), 80_000_000).unwrap();
    let fast = Golden::prepare_fast(mk(), 80_000_000).unwrap();
    (slow, fast)
}

#[test]
fn fast_forward_reproduces_architectural_golden_run() {
    for bench in BENCHES {
        for isa in Isa::ALL {
            let (slow, fast) = prep_pair(bench, isa);
            assert!(!slow.ref_prepped && fast.ref_prepped, "{bench}/{isa}");
            assert_eq!(fast.output, slow.output, "{bench}/{isa}: golden output");
            assert_eq!(fast.trace, slow.trace, "{bench}/{isa}: commit trace");
            assert!(fast.exec_cycles > 0, "{bench}/{isa}");
        }
    }
}

#[test]
fn unexercised_structure_classifications_match_across_preps() {
    // The FP register file is never read by the integer-only workloads,
    // so every fault injected into it must classify as Masked no matter
    // how the golden checkpoint was produced. This is the strongest
    // per-mask equivalence that is microarchitecture-independent: for
    // timing-sensitive targets the *sampled bit/cycle pairs themselves*
    // differ between preps (the injection window lengths differ).
    let cc = CampaignConfig { n_faults: 16, workers: 2, ladder_rungs: 0, ..Default::default() };
    for isa in Isa::ALL {
        let (slow, fast) = prep_pair("crc32", isa);
        for g in [&slow, &fast] {
            let res = run_campaign(g, Target::PrfFp, &cc);
            assert_eq!(res.n(), 16, "{isa}");
            assert!(
                res.records.iter().all(|r| r.effect == FaultEffect::Masked),
                "{isa} (ref_prepped={}): FP faults must all mask",
                g.ref_prepped
            );
        }
    }
}
