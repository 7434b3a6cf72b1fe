//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! * checkpoint-clone restore vs full re-execution of the warm-up phase,
//! * early-termination optimisation on vs off (the paper's campaign
//!   speed-up feature).

use criterion::{criterion_group, criterion_main, Criterion};
use marvel_bench::golden;
use marvel_core::{run_campaign, CampaignConfig, Golden};
use marvel_cpu::CoreConfig;
use marvel_ir::assemble;
use marvel_isa::Isa;
use marvel_soc::{SysEvent, System};

/// Checkpoint restore: clone vs re-running warm-up from reset.
fn checkpoint_vs_rerun(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_vs_rerun");
    g.sample_size(10);
    let gold = golden("bitcount", Isa::Arm);
    g.bench_function("clone_restore", |b| {
        b.iter(|| {
            let sys = gold.ckpt.clone();
            sys.cycle
        })
    });
    let bin = assemble(&marvel_workloads::mibench::build("bitcount"), Isa::Arm).unwrap();
    g.bench_function("rerun_warmup", |b| {
        b.iter(|| {
            let mut sys = System::new(CoreConfig::table2(Isa::Arm));
            sys.load_binary(&bin);
            loop {
                match sys.tick() {
                    SysEvent::Checkpoint => break sys.cycle,
                    SysEvent::Halted | SysEvent::Trapped(_) => unreachable!(),
                    _ => {}
                }
            }
        })
    });
    g.finish();
}

/// Early termination on vs off over a small PRF campaign.
fn early_termination(c: &mut Criterion) {
    let mut g = c.benchmark_group("early_termination");
    g.sample_size(10);
    let gold: Golden = golden("qsort", Isa::RiscV);
    for (label, et) in [("on", true), ("off", false)] {
        let cc = CampaignConfig {
            n_faults: 8,
            workers: 1,
            early_termination: et,
            ladder_rungs: 0,
            ..Default::default()
        };
        g.bench_function(label, |b| {
            b.iter(|| run_campaign(&gold, marvel_soc::Target::PrfInt, &cc).avf())
        });
    }
    g.finish();
}

criterion_group!(benches, checkpoint_vs_rerun, early_termination);
criterion_main!(benches);
