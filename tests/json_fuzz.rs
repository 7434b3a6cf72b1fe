//! Fuzzing `marvel_serve::json::parse`, the reader behind every spec,
//! journal and protocol line `marvel serve` accepts: arbitrary bytes and
//! runs of JSON-structural bytes must come back as a value or an error,
//! never a panic or an abort. Deep nesting, which once overflowed the
//! recursive reader's stack and killed the process, is rejected at
//! `MAX_DEPTH` with the byte offset of the first level too deep.

use gem5_marvel::serve::json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;

/// JSON-significant bytes: inputs built from these reach deeper into the
/// reader than uniformly random bytes do.
const STRUCTURAL: &[u8] = b"{}[]\":,\\ -.0123456789eEtrufalsnu";

/// Parse `text` on a thread with the default stack, failing the test with
/// the offending text if the reader panics.
fn parse_on_thread(text: String) -> Result<(), String> {
    let shown: String = text.chars().take(80).collect();
    std::thread::spawn(move || parse(&text).map(drop))
        .join()
        .unwrap_or_else(|_| panic!("json::parse panicked on {shown:?}…"))
}

#[test]
fn deep_nesting_is_rejected_with_its_offset() {
    for depth in [10_000usize, 1_000_000] {
        for open in ["[", r#"{"a":"#] {
            let err = parse_on_thread(open.repeat(depth)).expect_err("over-deep input must not parse");
            let at =
                format!("nesting deeper than {MAX_DEPTH} levels at byte {}", MAX_DEPTH * open.len());
            assert!(err.contains(&at), "depth {depth} of {open:?}: {err}");
        }
    }
    let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert_eq!(parse_on_thread(deepest), Ok(()), "MAX_DEPTH levels still parse");
}

/// A string of about 1 MiB, mixing 1- to 4-byte characters with escapes,
/// parses back to itself. The reader once re-validated the rest of the
/// input for every byte of a string, which took minutes on this one.
#[test]
fn megabyte_string_parses_back_equal() {
    let pieces = [
        ("a", "a"),
        ("é", "é"),
        ("€", "€"),
        ("😀", "😀"),
        ("\n", "\\n"),
        ("\"", "\\\""),
        ("\\", "\\\\"),
        ("é", "\\u00e9"),
        ("😀", "\\ud83d\\ude00"),
    ];
    let (mut want, mut text) = (String::new(), String::from('"'));
    let mut k = 0u64;
    while text.len() < 1 << 20 {
        k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let (raw, escaped) = pieces[(k >> 33) as usize % pieces.len()];
        want.push_str(raw);
        text.push_str(escaped);
    }
    text.push('"');
    assert_eq!(parse(&text), Ok(Json::Str(want)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_on_thread(String::from_utf8_lossy(&bytes).into_owned());
    }

    #[test]
    fn structural_bytes_never_panic(
        picks in proptest::collection::vec(0usize..STRUCTURAL.len(), 0..1024),
    ) {
        let text: String = picks.iter().map(|&i| STRUCTURAL[i] as char).collect();
        let _ = parse_on_thread(text);
    }
}
