// The vendored proptest! macro expands by token-munching; three sizeable
// test bodies in one block need more headroom than the default 128.
#![recursion_limit = "1024"]

//! Schedule fuzzer for the event-driven accelerator engine: random CDFG
//! designs (node counts, FU mixes, memory-port contention, DMA timings)
//! must produce a static schedule whose stepper agrees with the naive
//! tick-every-cycle loop *cycle for cycle* on golden runs — same state,
//! same compute-cycle count, same memory bytes at every single cycle,
//! not just at the end — and whose state at a cycle does not depend on
//! the stops the caller made on the way there.

use marvel_accel::air::{CdfgBuilder, MemRef};
use marvel_accel::{AccelState, Accelerator, DmaDir, DmaJob, FuConfig, Sram, SramKind};
use marvel_core::{DsaGolden, DsaHarness};
use marvel_isa::AluOp;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Elements processed per loop iteration (the contention knob: `width`
/// loads race for the IN ports and `width` stores for the OUT ports
/// every iteration).
const MAX_WIDTH: usize = 4;

/// Build a random elementwise accelerator: for each of `n` iterations,
/// `width` parallel chains each load IN[k], combine it with a TAB
/// regbank value through a randomly chosen int/fp op tree, and store to
/// OUT[k]. Port counts, FU counts, chain width and op mix all come from
/// the seed, so schedules range from fully parallel to one-port serial.
fn gen_accel(seed: u64) -> (Accelerator, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..8usize);
    let width = rng.gen_range(1..=MAX_WIDTH);
    let elems = n * width;
    let fu = FuConfig {
        int_alu: rng.gen_range(1..4),
        fp_add: rng.gen_range(1..3),
        fp_mul: rng.gen_range(1..3),
    };
    let in_ports = rng.gen_range(1..4);
    let out_ports = rng.gen_range(1..3);
    let tab_ports = rng.gen_range(1..3);
    let chain_fp: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.4)).collect();
    let chain_reload: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.3)).collect();

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
    let w = g.konst(width as u64);
    let iw = g.alu(AluOp::Mul, i, w);
    let base = g.alu(AluOp::Mul, iw, eight);
    for (c, (&fp, &reload)) in chain_fp.iter().zip(&chain_reload).enumerate() {
        let coff = g.konst(c as u64 * 8);
        let addr = g.alu(AluOp::Add, base, coff);
        let v = g.load(MemRef::Spm(0), 8, addr);
        let t = g.load(MemRef::RegBank(0), 8, coff);
        let x = if fp {
            // float path: exercises FpAdd/FpMul contention and the
            // conversion ops.
            let fv = g.itof(v);
            let ft = g.itof(t);
            let prod = g.fmul(fv, ft);
            let sum = g.fadd(prod, fv);
            g.ftoi(sum)
        } else {
            let prod = g.alu(AluOp::Mul, v, t);
            g.alu(AluOp::Xor, prod, v)
        };
        let x = if reload {
            // Load back the previous iteration's OUT slot: mixes loads
            // among the stores on OUT, exercising the RAW/WAR
            // memory-ordering scan.
            let prev = g.load(MemRef::Spm(1), 8, coff);
            g.alu(AluOp::Add, x, prev)
        } else {
            x
        };
        g.store(MemRef::Spm(1), 8, addr, x);
    }
    let one = g.konst(1);
    let i2 = g.alu(AluOp::Add, i, one);
    let nn = g.konst(n as u64);
    let more = g.alu(AluOp::Sltu, i2, nn);
    g.branch(more, body, &[i2], done, &[]);
    g.select(done);
    g.finish();
    let accel = Accelerator::new(
        "fuzz",
        g.build().unwrap(),
        fu,
        vec![
            Sram::new("IN", SramKind::Spm, (elems * 8).max(8), in_ports),
            Sram::new("OUT", SramKind::Spm, (elems * 8).max(8), out_ports),
        ],
        vec![Sram::new("TAB", SramKind::RegBank, MAX_WIDTH * 8, tab_ports)],
        0,
    );
    (accel, n, width)
}

fn fill(a: &mut Accelerator, seed: u64, elems: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1);
    for k in 0..elems {
        a.spms[0].write(k as u64 * 8, 8, rng.gen_range(0..=u32::MAX as u64)).unwrap();
    }
    for k in 0..MAX_WIDTH {
        a.regbanks[0].write(k as u64 * 8, 8, rng.gen_range(1..1000u64)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Single-cycle lockstep: advancing the event engine one cycle at a
    // time must match `tick()` at *every* cycle — same state, same
    // compute-cycle count, same SPM/RegBank bytes.
    #[test]
    fn event_stepper_matches_tick_loop_cycle_for_cycle(seed in any::<u64>()) {
        let (mut cyc, n, width) = gen_accel(seed);
        fill(&mut cyc, seed, n * width);
        let mut evt = cyc.clone();
        prop_assert!(evt.prepare_event_engine(), "fuzzed design must be schedulable");
        prop_assert!(evt.set_engine_event());
        cyc.start(&[]);
        evt.start(&[]);
        for cycle in 0..2_000_000u64 {
            let sa = cyc.tick();
            let (sb, used) = evt.advance(1);
            prop_assert_eq!(used, 1, "event engine must consume the cycle");
            prop_assert_eq!(sa, sb, "state diverged at cycle {}", cycle);
            prop_assert_eq!(cyc.stats.compute_cycles, evt.stats.compute_cycles);
            prop_assert_eq!(cyc.spms[1].bytes(), evt.spms[1].bytes(), "OUT diverged at cycle {}", cycle);
            if sa == AccelState::Done {
                prop_assert_eq!(cyc.spms[0].bytes(), evt.spms[0].bytes());
                prop_assert_eq!(cyc.regbanks[0].bytes(), evt.regbanks[0].bytes());
                prop_assert_eq!(cyc.stats.nodes_executed, evt.stats.nodes_executed);
                prop_assert_eq!(cyc.stats.mem_reads, evt.stats.mem_reads);
                prop_assert_eq!(cyc.stats.mem_writes, evt.stats.mem_writes);
                prop_assert_eq!(cyc.stats.blocks_executed, evt.stats.blocks_executed);
                return Ok(());
            }
        }
        panic!("accelerator did not finish");
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Stop-pattern independence: chunked `advance()` with random chunk
    // sizes must land in exactly the same final state as the tick loop.
    #[test]
    fn random_advance_chunks_match_tick_loop(seed in any::<u64>()) {
        let (mut cyc, n, width) = gen_accel(seed);
        fill(&mut cyc, seed, n * width);
        let mut evt = cyc.clone();
        prop_assert!(evt.prepare_event_engine());
        prop_assert!(evt.set_engine_event());
        cyc.start(&[]);
        evt.start(&[]);
        let mut cycles = 0u64;
        loop {
            match cyc.tick() {
                AccelState::Done => break,
                AccelState::Error(e) => panic!("cycle engine error: {e}"),
                _ => cycles += 1,
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4);
        let mut left = cycles + 1;
        while left > 0 {
            let chunk = rng.gen_range(1..=left.min(64));
            let (_, used) = evt.advance(chunk);
            prop_assert_eq!(used, chunk);
            left -= chunk;
        }
        prop_assert_eq!(evt.state(), AccelState::Done);
        prop_assert_eq!(cyc.stats.compute_cycles, evt.stats.compute_cycles);
        prop_assert_eq!(cyc.spms[1].bytes(), evt.spms[1].bytes());
        prop_assert_eq!(cyc.stats.nodes_executed, evt.stats.nodes_executed);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Stop-pattern independence mid-block: at every stop, an event-engine
    // run advanced in random chunks of 1-64 cycles is in exactly the state
    // (pending completions and schedule cursor included) of one advanced
    // a cycle at a time to the same cycle. A ladder rung is frozen at one
    // stop pattern and a campaign run reaches its cycle through another,
    // so the convergence exit relies on this.
    #[test]
    fn chunked_advance_state_matches_single_steps_at_every_stop(seed in any::<u64>()) {
        let (mut single, n, width) = gen_accel(seed);
        fill(&mut single, seed, n * width);
        prop_assert!(single.prepare_event_engine());
        prop_assert!(single.set_engine_event());
        single.start(&[]);
        let mut chunked = single.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57);
        for _ in 0..2_000_000u64 {
            let (state, used) = chunked.advance(rng.gen_range(1..=64u64));
            for _ in 0..used {
                prop_assert_eq!(single.advance(1).1, 1);
            }
            prop_assert!(chunked.state_eq(&single), "state differs at cycle {}", chunked.cycle());
            prop_assert_eq!(chunked.stats.compute_cycles, single.stats.compute_cycles);
            match state {
                AccelState::Done => return Ok(()),
                AccelState::Error(e) => panic!("event engine error: {e}"),
                _ => {}
            }
        }
        panic!("accelerator did not finish");
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Full harness with randomized DMA plans: split the DMA-in into a
    // random number of jobs (shifting when compute starts) and check the
    // golden-prep self-check plus end-to-end outcome equality between
    // the engines.
    #[test]
    fn harness_with_random_dma_timing_matches(seed in any::<u64>()) {
        let (accel, n, width) = gen_accel(seed);
        let elems = n * width;
        let in_bytes = (elems * 8).max(8);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDA);
        let mut ram = vec![0u8; in_bytes * 2 + 64];
        for b in ram.iter_mut().take(in_bytes) {
            *b = rng.gen_range(0..=255u64) as u8;
        }
        // Random DMA-in split: 1..4 jobs covering IN back-to-back.
        let mut jobs_in = Vec::new();
        let mut off = 0usize;
        while off < in_bytes {
            let rem = in_bytes - off;
            let len = if rem <= 8 { rem } else { rng.gen_range(8..=rem) };
            jobs_in.push(DmaJob { dir: DmaDir::ToSram, ram_off: off, mem: MemRef::Spm(0), mem_off: off, len });
            off += len;
        }
        let jobs_out = vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: in_bytes,
            mem: MemRef::Spm(1),
            mem_off: 0,
            len: in_bytes,
        }];
        let mut harness = DsaHarness::new(accel, ram, jobs_in, jobs_out, vec![], in_bytes..in_bytes * 2);
        for k in 0..MAX_WIDTH {
            harness.accel.regbanks[0].write(k as u64 * 8, 8, rng.gen_range(1..1000u64)).unwrap();
        }
        // prepare() itself runs the cycle oracle, then the event engine,
        // and asserts cycle counts and outputs are identical.
        let g = DsaGolden::prepare(harness, 10_000_000);
        prop_assert!(g.harness.accel.replay_armed(), "fuzzed design must arm replay");
    }
}
