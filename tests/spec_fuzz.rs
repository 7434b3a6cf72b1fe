//! Fuzzing `CampaignSpec::parse`, the service's outside input: valid spec
//! texts (schema v1 to v4, CPU and DSA, compact and spaced) are
//! truncated or corrupted at one byte. `parse` must never panic, and every
//! spec it accepts must survive the canonical round trip
//! `parse(render(s)) == s` — so an accepted spec always has one digest.

use gem5_marvel::serve::CampaignSpec;
use proptest::prelude::*;

/// Valid spec texts the fuzzer mutates.
const CORPUS: &[&str] = &[
    r#"{"type":"campaign_spec","schema_version":1,"id":"fft-spm",
 "workload":{"kind":"dsa","design":"FFT","component":"REAL","fus":4},
 "target":"prf","faults":1000,"fault_kind":"transient","seed":7,
 "workers":0,"reset_mode":"dirty","ladder_rungs":8,
 "convergence_exit":false,"hvf":false,"taint":false,"fast_prep":false}"#,
    r#"{"type":"campaign_spec","schema_version":1,"id":"jr-cpu","reset_mode":"clone",
 "workload":{"kind":"cpu","bench":"crc32","isa":"riscv"},"target":"l1d","faults":24,"seed":5}"#,
    r#"{"type":"campaign_spec","schema_version":2,"id":"c1","workload":{"kind":"cpu","bench":"qsort","isa":"x86"},"target":"rob","faults":5,"fault_kind":"permanent-stuck1","seed":18446744073709551615,"workers":2,"ladder_rungs":0,"convergence_exit":true,"hvf":true,"taint":true,"fast_prep":true}"#,
    r#"{ "type" : "campaign_spec", "schema_version" : 2, "id" : "g.e_m-m",
        "workload" : { "kind" : "dsa", "design" : "gemm", "fus" : 64 },
        "faults" : 3, "fault_kind" : "permanent" }"#,
    r#"{"type":"campaign_spec","schema_version":2,"id":"u","workload":{"kind":"cpu","bench":"sha","isa":"arm"},"target":"prf-fp"}"#,
    r#"{"type":"campaign_spec","schema_version":3,"id":"v3","workload":{"kind":"dsa","design":"FFT","fus":2},"faults":9,"ladder_rungs":0,"taint":true}"#,
    r#"{"type":"campaign_spec","schema_version":4,"id":"v4","workload":{"kind":"cpu","bench":"crc32"},"target":"lq","faults":7,"workers":1,"hvf":true}"#,
];

/// JSON-significant bytes: corruptions built from these reach deeper
/// into the parser than uniformly random bytes do.
const STRUCTURAL: &[u8] = b"{}[]\":,\\ -.0123456789eEtrufalsn";

/// Parse `text`; if it is accepted, check the canonical round trip. A
/// panic anywhere fails the test with the offending text.
fn check(text: &str) -> bool {
    let outcome = std::panic::catch_unwind(|| {
        CampaignSpec::parse(text).map(|spec| {
            let back = CampaignSpec::parse(&spec.render());
            assert_eq!(back.as_ref(), Ok(&spec), "render does not round-trip");
        })
    });
    match outcome {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("CampaignSpec::parse panicked on {text:?}"),
    }
}

#[test]
fn corpus_specs_parse() {
    for text in CORPUS {
        assert!(check(text), "corpus spec rejected: {text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn truncated_or_corrupted_specs_never_panic_and_round_trip(
        pick in 0usize..CORPUS.len(),
        op in 0u8..4,
        at in any::<usize>(),
        random in any::<u8>(),
        structural in 0usize..STRUCTURAL.len(),
    ) {
        let mut bytes = CORPUS[pick].as_bytes().to_vec();
        let at = at % bytes.len();
        match op {
            0 => bytes.truncate(at),
            1 => bytes[at] = random,
            2 => bytes[at] = STRUCTURAL[structural],
            _ => {
                bytes.remove(at);
            }
        }
        check(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn every_truncation_is_safe() {
    for text in CORPUS {
        let accepted =
            (0..text.len()).filter(|&n| text.is_char_boundary(n) && check(&text[..n])).count();
        // A strict prefix of a JSON object is never a complete object.
        assert_eq!(accepted, 0, "a truncation of {text} was accepted");
    }
}
