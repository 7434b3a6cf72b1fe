//! Fuzzing `read_journal`, the service's other outside input: a journal
//! written through `Journal` is truncated or has one byte replaced.
//! `read_journal` must never panic. A truncated journal is rejected or
//! yields exactly the records whose lines survived whole: a torn tail
//! drops a record, it never alters one. When a corrupted journal is
//! accepted, every record on an untouched line equals the original. The
//! touched line itself may still parse as a valid but different record
//! (a changed digit in `cycles`, say): the format has no per-line
//! checksum to catch that.

use gem5_marvel::core::{FaultEffect, HvfEffect, RunRecord};
use gem5_marvel::serve::{read_journal, Journal};
use gem5_marvel::telemetry::Attribution;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

const CAMPAIGN: &str = "fuzz";
const DIGEST: &str = "00c0ffee00c0ffee";
const RUNS: usize = 12;

/// JSON-significant bytes: corruptions built from these reach deeper
/// into the parser than uniformly random bytes do.
const STRUCTURAL: &[u8] = b"{}[]\":,\\ -.0123456789eEtrufalsn";

fn record(effect: FaultEffect, cycles: u64) -> RunRecord {
    RunRecord {
        effect,
        hvf: None,
        trap: None,
        early_terminated: false,
        converged: false,
        cycles,
        forensics: None,
        attribution: None,
    }
}

/// Records covering every journaled field, by run index (out of order,
/// with gaps, as a multi-worker campaign appends them).
fn records() -> Vec<(usize, RunRecord)> {
    let early = RunRecord { early_terminated: true, ..record(FaultEffect::Masked, 1_024) };
    let converged = RunRecord { converged: true, ..record(FaultEffect::Masked, 812_345) };
    let hvf = RunRecord { hvf: Some(HvfEffect::Corruption), ..record(FaultEffect::Sdc, 90_001) };
    let crash = RunRecord {
        trap: Some("watchdog"),
        hvf: Some(HvfEffect::Masked),
        ..record(FaultEffect::Crash, 2_437_035)
    };
    let attributed = RunRecord {
        attribution: Some(Attribution {
            reached_arch: true,
            structure: "rob".into(),
            cycle: 77,
            hops: 3,
        }),
        ..record(FaultEffect::Sdc, 5_000)
    };
    vec![(3, early), (0, converged), (7, hvf), (11, crash), (5, attributed)]
}

/// The journal text `Journal` writes for [`records`]: header, the open
/// watermark, one line per record and the closing watermark. Also the
/// byte range of every line, without its newline. Written once per test
/// process.
fn journal() -> &'static (String, Vec<Range<usize>>) {
    static JOURNAL: OnceLock<(String, Vec<Range<usize>>)> = OnceLock::new();
    JOURNAL.get_or_init(write_journal)
}

fn write_journal() -> (String, Vec<Range<usize>>) {
    let dir = std::env::temp_dir().join(format!("marvel-journal-fuzz-{}", std::process::id()));
    let path = dir.join("journal.jsonl");
    std::fs::remove_file(&path).ok();
    let (mut j, slots) = Journal::open(&path, CAMPAIGN, DIGEST, RUNS).unwrap();
    assert!(slots.iter().all(Option::is_none));
    for (idx, rec) in records() {
        j.append(idx, &rec).unwrap();
    }
    j.flush().unwrap();
    drop(j);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let mut lines = Vec::new();
    let mut start = 0;
    for line in text.split_inclusive('\n') {
        lines.push(start..start + line.trim_end_matches('\n').len());
        start += line.len();
    }
    assert_eq!(lines.len(), records().len() + 3, "unexpected journal layout:\n{text}");
    (text, lines)
}

/// The record slots a journal text should yield: the originals whose
/// line index is in `lines` (line 0 is the header, line 1 the open
/// watermark, record k sits on line k + 2).
fn expected(lines: impl Fn(usize) -> bool) -> Vec<Option<String>> {
    let mut slots = vec![None; RUNS];
    for (k, (idx, rec)) in records().into_iter().enumerate() {
        if lines(k + 2) {
            slots[idx] = Some(format!("{rec:?}"));
        }
    }
    slots
}

/// `read_journal`, with a panic turned into a test failure naming the text.
fn read(text: &str) -> Result<Vec<Option<String>>, String> {
    std::panic::catch_unwind(|| read_journal(text, CAMPAIGN, DIGEST, RUNS))
        .unwrap_or_else(|_| panic!("read_journal panicked on {text:?}"))
        .map(|slots| slots.iter().map(|s| s.as_ref().map(|r| format!("{r:?}"))).collect())
}

#[test]
fn intact_journal_yields_every_record() {
    assert_eq!(read(&journal().0), Ok(expected(|_| true)));
}

#[test]
fn every_truncation_drops_only_the_torn_record() {
    let (text, lines) = journal();
    for n in 0..=text.len() {
        let got = read(&text[..n]);
        if n < lines[0].end {
            assert!(got.is_err(), "a journal cut inside its header was accepted: {:?}", &text[..n]);
        } else {
            assert_eq!(got, Ok(expected(|l| lines[l].end <= n)), "cut at byte {n}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn one_byte_corruptions_never_panic_or_alter_untouched_records(
        at in any::<usize>(),
        random in any::<u8>(),
        structural in 0usize..STRUCTURAL.len(),
        use_random in any::<bool>(),
    ) {
        let (text, lines) = journal();
        let mut bytes = text.clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = if use_random { random } else { STRUCTURAL[structural] };
        // The line holding `at`, or ended by it. A byte written over a
        // newline joins the next line to this one; the check below still
        // wants that next line's record, so the joined line must be
        // rejected unless the next line is the closing watermark.
        let touched = lines.iter().position(|l| at <= l.end).expect("the text ends in a newline");
        if let Ok(slots) = read(&String::from_utf8_lossy(&bytes)) {
            let want = expected(|l| l != touched);
            for (idx, (got, want)) in slots.iter().zip(&want).enumerate() {
                if want.is_some() {
                    prop_assert_eq!(got, want, "idx {} changed by a byte at {}", idx, at);
                }
            }
            let extra = slots.iter().zip(&want).filter(|(g, w)| g.is_some() && w.is_none()).count();
            prop_assert!(extra <= 1, "one touched line yielded {} records", extra);
        }
    }
}
