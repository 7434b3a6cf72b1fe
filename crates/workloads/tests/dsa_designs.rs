//! Golden-run validation of the eight MachSuite-style DSA designs, with
//! result checks against Rust reference computations where cheap.

use marvel_accel::FuConfig;
use marvel_core::{DsaGolden, DsaOutcome};
use marvel_telemetry::{Registry, Scope};
use marvel_workloads::accel::{design, designs};
use marvel_workloads::util::Lcg;

const WATCHDOG: u64 = 20_000_000;

#[test]
fn all_designs_complete_fault_free() {
    for d in designs() {
        let h = (d.make)(FuConfig::default());
        let mut run = h.clone();
        match run.run(None, WATCHDOG) {
            DsaOutcome::Done { output, cycles } => {
                assert!(!output.is_empty(), "{}: empty output", d.name);
                assert!(output.iter().any(|&b| b != 0), "{}: all-zero output", d.name);
                assert!(cycles > 100, "{}: suspiciously fast ({cycles})", d.name);
                eprintln!("{:<12} {:>9} cycles, {:>6} output bytes", d.name, cycles, output.len());
            }
            o => panic!("{}: fault-free run failed: {o:?}", d.name),
        }
    }
}

/// The `dsa.golden_accel.*` counters golden prep keeps are the ones a
/// fresh fault-free run of the pristine harness (cycle engine) yields.
#[test]
fn golden_counters_match_a_fresh_cycle_run() {
    for d in designs() {
        let g = DsaGolden::prepare((d.make)(FuConfig::default()), WATCHDOG);
        let kept = Registry::new();
        g.publish_metrics(&kept);
        let fresh = Registry::new();
        let mut h = g.harness.clone();
        assert!(matches!(h.run(None, g.watchdog()), DsaOutcome::Done { .. }), "{}", d.name);
        h.accel.publish_metrics(&fresh, &Scope::new("dsa").child("golden_accel"));
        let (kept, fresh) = (kept.snapshot().counters, fresh.snapshot().counters);
        assert!(kept.iter().any(|(n, _)| n == "dsa.golden_accel.cycles"), "{}", d.name);
        assert_eq!(kept, fresh, "{}", d.name);
    }
}

#[test]
fn designs_are_deterministic() {
    for name in ["GEMM", "BFS", "MERGESORT"] {
        let d = design(name);
        let g1 = DsaGolden::prepare((d.make)(FuConfig::default()), WATCHDOG);
        let g2 = DsaGolden::prepare((d.make)(FuConfig::default()), WATCHDOG);
        assert_eq!(g1.output, g2.output, "{name}");
        assert_eq!(g1.cycles, g2.cycles, "{name}");
    }
}

#[test]
fn mergesort_sorts() {
    let d = design("MERGESORT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), WATCHDOG);
    let vals: Vec<u64> = g.output.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(vals.len(), 1024);
    for w in vals.windows(2) {
        assert!(w[0] <= w[1], "not sorted: {} > {}", w[0], w[1]);
    }
    // Same multiset as the input.
    let mut rng = Lcg::new(0x3365);
    let mut expect: Vec<u64> = (0..1024).map(|_| rng.below(1 << 32)).collect();
    expect.sort_unstable();
    assert_eq!(vals, expect);
}

#[test]
fn gemm_matches_reference() {
    let d = design("GEMM");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), WATCHDOG);
    // Recompute C = A*B in Rust.
    let mut rng = Lcg::new(0x6E33);
    let n = 64usize;
    let a: Vec<f64> = (0..n * n).map(|_| (rng.below(2000) as f64 - 1000.0) / 1000.0).collect();
    let b: Vec<f64> = (0..n * n).map(|_| (rng.below(2000) as f64 - 1000.0) / 1000.0).collect();
    let got: Vec<f64> =
        g.output.chunks(8).map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))).collect();
    for i in (0..n).step_by(17) {
        for j in (0..n).step_by(13) {
            // The accelerator reduces in tree order; compare with a
            // tolerance.
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            let diff = (got[i * n + j] - acc).abs();
            assert!(diff < 1e-9, "C[{i}][{j}]: {} vs {}", got[i * n + j], acc);
        }
    }
}

#[test]
fn bfs_levels_reachable() {
    let d = design("BFS");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), WATCHDOG);
    let levels: Vec<u64> =
        g.output.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(levels.len(), 256);
    assert_eq!(levels[0], 0);
    // Ring edges guarantee full reachability within 12 horizons for most
    // nodes; all levels must be set or INF.
    let reached = levels.iter().filter(|&&l| l < 999).count();
    assert!(reached > 128, "only {reached} nodes reached");
}

#[test]
fn fewer_fus_slow_gemm_down() {
    let d = design("GEMM");
    let fast = DsaGolden::prepare((d.make)(FuConfig::uniform(16)), WATCHDOG);
    let slow = DsaGolden::prepare((d.make)(FuConfig::uniform(1)), WATCHDOG);
    assert!(
        slow.cycles > fast.cycles + fast.cycles / 4,
        "FU sweep must change runtime: {} vs {}",
        slow.cycles,
        fast.cycles
    );
    assert_eq!(slow.output, fast.output, "results must not depend on FU count");
}
