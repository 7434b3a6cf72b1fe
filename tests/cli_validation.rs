//! `marvel campaign` and `marvel dsa` reject bad input before any
//! campaign runs: an unknown flag (including the removed oracle
//! selectors), an unparsable count and an unknown fault kind each exit
//! non-zero with an error naming the flag, and nothing reaches golden
//! prep.

use std::process::Command;

#[test]
fn bad_flags_fail_before_any_campaign_runs() {
    for (args, flag) in [
        (&["campaign", "crc32", "--lane-width", "0"][..], "--lane-width"),
        (&["campaign", "crc32", "--reset-mode", "clone"][..], "--reset-mode"),
        (&["dsa", "fft", "--dsa-engine", "cycle"][..], "--dsa-engine"),
        (&["campaign", "crc32", "--convergence-exit"][..], "--convergence-exit"),
        (&["dsa", "fft", "--convergence-exit"][..], "--convergence-exit"),
        (&["campaign", "crc32", "--ladder-rungs", "0"][..], "--ladder-rungs"),
        (&["dsa", "fft", "--ladder-rungs", "0"][..], "--ladder-rungs"),
        (&["campaign", "crc32", "--faults", "abc"][..], "--faults"),
        (&["campaign", "crc32", "--kind", "bogus"][..], "--kind"),
        (&["campaign", "crc32", "--seed", "0xc0ffee"][..], "--seed"),
        (&["campaign", "crc32", "--progress", "soon"][..], "--progress"),
        (&["dsa", "fft", "--fus", "four"][..], "--fus"),
        (&["disasm", "crc32", "--limit", "all"][..], "--limit"),
        (&["campaign", "crc32", "--faults"][..], "--faults"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_marvel")).args(args).output().expect("run marvel");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "marvel {args:?} succeeded:\n{stderr}");
        assert!(stderr.contains(flag), "marvel {args:?}: error does not name {flag}:\n{stderr}");
        assert!(
            !stderr.contains("preparing golden run"),
            "marvel {args:?} started a campaign:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "marvel {args:?} printed a report");
    }
}
