//! The run journal: an append-only JSONL file that makes campaigns
//! survive kills. Every completed [`RunRecord`] is appended as one line;
//! every `flush_every` records a watermark line is written and the file
//! is fsync'd, bounding loss to the unsynced tail. Because records are
//! per-mask deterministic (independent of worker count, reset mode,
//! ladder and interruption point), a resumed campaign re-derives the
//! mask list from the spec, skips the journaled indices, and the merged
//! record set is bit-identical to an uninterrupted run.
//!
//! Format (schema-versioned like the telemetry exports):
//!
//! ```text
//! {"type":"journal","schema_version":1,"campaign":"id","spec_digest":"16hex","runs":N}
//! {"type":"run","idx":3,"effect":"Sdc","cycles":812345,"early":false,"converged":false}
//! {"type":"watermark","done":32}
//! ...
//! ```
//!
//! Resume tolerates exactly one torn line at the tail (a kill mid-write);
//! any earlier corruption, a header mismatch (campaign id, spec digest,
//! run count, schema version) or a duplicate/out-of-range index fails
//! loudly — a journal must never be silently reinterpreted.

use crate::json::{parse, Json};
use marvel_core::{FaultEffect, HvfEffect, RunRecord};
use marvel_telemetry::{json_string, Attribution, Histogram, PhaseId, SpanCollector};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Version of the journal format. Independent of the spec schema: a
/// journal names its spec only by digest, and a digest changes with the
/// spec's rendering, so a journal written under an older spec schema is
/// refused at the digest check instead.
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// Records between fsync'd watermarks. Small enough that a SIGKILL loses
/// at most a batch of cheap re-runnable injections, large enough that
/// the fsync cost disappears under the simulation cost.
pub const FLUSH_EVERY: usize = 32;

/// Trap tags are `&'static str` in [`RunRecord`]; re-intern known tags on
/// journal read-back so resumed records compare identical to fresh ones.
fn intern_trap(tag: &str) -> &'static str {
    for known in [
        "illegal-instruction",
        "mem-fault",
        "misaligned",
        "div-by-zero",
        "fetch-fault",
        "watchdog",
        "accel-error",
        "dma-error",
    ] {
        if tag == known {
            return known;
        }
    }
    // Unknown tag (journal from a newer build): leak it. Journals are
    // read once per resume, so this cannot accumulate.
    Box::leak(tag.to_string().into_boxed_str())
}

fn effect_name(e: FaultEffect) -> &'static str {
    match e {
        FaultEffect::Masked => "Masked",
        FaultEffect::Sdc => "Sdc",
        FaultEffect::Crash => "Crash",
    }
}

fn parse_effect(s: &str) -> Result<FaultEffect, String> {
    match s {
        "Masked" => Ok(FaultEffect::Masked),
        "Sdc" => Ok(FaultEffect::Sdc),
        "Crash" => Ok(FaultEffect::Crash),
        other => Err(format!("unknown effect {other:?}")),
    }
}

/// Encode one record as a journal/export line. Forensics timelines are
/// deliberately not journaled (they are debugging artifacts, large, and
/// only retained for SDC/Crash runs) — the resume invariant covers the
/// classification surface: effect, HVF, trap, flags, cycles, attribution.
pub fn encode_record(idx: usize, rec: &RunRecord) -> String {
    let mut line = format!(
        "{{\"type\":\"run\",\"idx\":{idx},\"effect\":\"{}\",\"cycles\":{},\"early\":{},\"converged\":{}",
        effect_name(rec.effect),
        rec.cycles,
        rec.early_terminated,
        rec.converged
    );
    if let Some(h) = rec.hvf {
        line.push_str(&format!(
            ",\"hvf\":\"{}\"",
            match h {
                HvfEffect::Masked => "Masked",
                HvfEffect::Corruption => "Corruption",
            }
        ));
    }
    if let Some(t) = rec.trap {
        line.push_str(&format!(",\"trap\":{}", json_string(t)));
    }
    if let Some(a) = &rec.attribution {
        line.push_str(&format!(
            ",\"attr\":{{\"arch\":{},\"structure\":{},\"cycle\":{},\"hops\":{}}}",
            a.reached_arch,
            json_string(&a.structure),
            a.cycle,
            a.hops
        ));
    }
    line.push('}');
    line
}

/// Decode one `"type":"run"` line back into its index and record.
pub fn decode_record(v: &Json) -> Result<(usize, RunRecord), String> {
    let idx = v.get("idx").and_then(Json::as_usize).ok_or("run line has no idx")?;
    let effect = parse_effect(v.get("effect").and_then(Json::as_str).ok_or("run line has no effect")?)?;
    let cycles = v.get("cycles").and_then(Json::as_u64).ok_or("run line has no cycles")?;
    let early_terminated = v.get("early").and_then(Json::as_bool).unwrap_or(false);
    let converged = v.get("converged").and_then(Json::as_bool).unwrap_or(false);
    let hvf = match v.get("hvf").and_then(Json::as_str) {
        None => None,
        Some("Masked") => Some(HvfEffect::Masked),
        Some("Corruption") => Some(HvfEffect::Corruption),
        Some(other) => return Err(format!("unknown hvf {other:?}")),
    };
    let trap = v.get("trap").and_then(Json::as_str).map(intern_trap);
    let attribution = match v.get("attr") {
        None => None,
        Some(a) => Some(Attribution {
            reached_arch: a.get("arch").and_then(Json::as_bool).ok_or("attr has no arch")?,
            structure: a
                .get("structure")
                .and_then(Json::as_str)
                .ok_or("attr has no structure")?
                .to_string(),
            cycle: a.get("cycle").and_then(Json::as_u64).ok_or("attr has no cycle")?,
            hops: a.get("hops").and_then(Json::as_usize).ok_or("attr has no hops")?,
        }),
    };
    Ok((
        idx,
        RunRecord {
            effect,
            hvf,
            trap,
            early_terminated,
            converged,
            cycles,
            forensics: None,
            attribution,
        },
    ))
}

fn header_line(campaign: &str, digest: &str, runs: usize) -> String {
    format!(
        "{{\"type\":\"journal\",\"schema_version\":{JOURNAL_SCHEMA_VERSION},\"campaign\":{},\"spec_digest\":{},\"runs\":{runs}}}",
        json_string(campaign),
        json_string(digest)
    )
}

/// Parse journal text, validating the header against the expected
/// identity. Returns one slot per run index (Some = journaled). The last
/// line may be torn (kill mid-write) and is then ignored; everything
/// before it must parse.
pub fn read_journal(
    text: &str,
    campaign: &str,
    digest: &str,
    runs: usize,
) -> Result<Vec<Option<RunRecord>>, String> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return Err("journal is empty (no header)".into());
    }
    let header = parse(lines[0]).map_err(|e| format!("journal header unreadable: {e}"))?;
    if header.get("type").and_then(Json::as_str) != Some("journal") {
        return Err("journal first line is not a journal header".into());
    }
    let version =
        header.get("schema_version").and_then(Json::as_u64).ok_or("journal has no schema_version")?;
    if version != u64::from(JOURNAL_SCHEMA_VERSION) {
        return Err(format!(
            "unknown journal schema_version {version} (this reader understands {JOURNAL_SCHEMA_VERSION})"
        ));
    }
    let jc = header.get("campaign").and_then(Json::as_str).unwrap_or("");
    if jc != campaign {
        return Err(format!("journal belongs to campaign {jc:?}, expected {campaign:?}"));
    }
    let jd = header.get("spec_digest").and_then(Json::as_str).unwrap_or("");
    if jd != digest {
        return Err(format!(
            "journal spec digest {jd} does not match the submitted spec ({digest}); \
             refusing to resume a different campaign definition"
        ));
    }
    let jr = header.get("runs").and_then(Json::as_usize).unwrap_or(0);
    if jr != runs {
        return Err(format!("journal expects {jr} runs, spec derives {runs}"));
    }
    let mut slots: Vec<Option<RunRecord>> = vec![None; runs];
    for (n, line) in lines.iter().enumerate().skip(1) {
        let last = n == lines.len() - 1;
        let v = match parse(line) {
            Ok(v) => v,
            // Torn tail from a kill mid-write: drop it. The run it held
            // simply re-executes, deterministically.
            Err(_) if last => break,
            Err(e) => return Err(format!("journal line {} corrupt: {e}", n + 1)),
        };
        match v.get("type").and_then(Json::as_str) {
            Some("run") => {
                let (idx, rec) = match decode_record(&v) {
                    Ok(r) => r,
                    Err(_) if last => break,
                    Err(e) => return Err(format!("journal line {}: {e}", n + 1)),
                };
                if idx >= runs {
                    return Err(format!("journal line {}: idx {idx} out of range", n + 1));
                }
                if slots[idx].is_some() {
                    return Err(format!("journal line {}: duplicate idx {idx}", n + 1));
                }
                slots[idx] = Some(rec);
            }
            Some("watermark") => {}
            Some(other) => return Err(format!("journal line {}: unknown type {other:?}", n + 1)),
            None if last => break,
            None => return Err(format!("journal line {} has no type", n + 1)),
        }
    }
    Ok(slots)
}

/// Append-side handle on a campaign journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Run lines written across the journal's whole life (including
    /// recovered ones).
    done: usize,
    /// Lines appended since the last fsync'd watermark.
    unsynced: usize,
    /// Span collector for `JournalAppend`/`JournalFsync` phase attribution
    /// (disabled by default; wired by the service per campaign).
    spans: SpanCollector,
    /// Per-fsync latency histogram (`journal.fsync_ns` on the campaign
    /// registry) — the durability half of "where do campaign cycles go".
    fsync_hist: Option<Arc<Histogram>>,
}

impl Journal {
    /// Create (or resume) the journal at `path` for the given campaign
    /// identity. If the file exists, its records are recovered and the
    /// file is compacted — rewritten as header + recovered records +
    /// watermark — so a torn tail never corrupts subsequent appends.
    /// Returns the handle plus one slot per run index.
    #[allow(clippy::type_complexity)]
    pub fn open(
        path: &Path,
        campaign: &str,
        digest: &str,
        runs: usize,
    ) -> Result<(Journal, Vec<Option<RunRecord>>), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        let recovered = match std::fs::read_to_string(path) {
            Ok(text) => read_journal(&text, campaign, digest, runs)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => vec![None; runs],
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        };
        // Compact rewrite via a temp file + atomic rename: the journal on
        // disk is never observable in a half-rewritten state.
        let tmp = path.with_extension("jsonl.tmp");
        let mut body = header_line(campaign, digest, runs);
        body.push('\n');
        let mut done = 0;
        for (idx, slot) in recovered.iter().enumerate() {
            if let Some(rec) = slot {
                body.push_str(&encode_record(idx, rec));
                body.push('\n');
                done += 1;
            }
        }
        body.push_str(&format!("{{\"type\":\"watermark\",\"done\":{done}}}\n"));
        {
            let mut f = File::create(&tmp).map_err(|e| e.to_string())?;
            f.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
            f.sync_data().map_err(|e| e.to_string())?;
        }
        std::fs::rename(&tmp, path).map_err(|e| e.to_string())?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                done,
                unsynced: 0,
                spans: SpanCollector::disabled(),
                fsync_hist: None,
            },
            recovered,
        ))
    }

    /// Attach phase spans and an fsync-latency histogram. Purely
    /// observational: appends and flushes behave identically either way.
    pub fn set_profiling(&mut self, spans: SpanCollector, fsync_hist: Option<Arc<Histogram>>) {
        self.spans = spans;
        self.fsync_hist = fsync_hist;
    }

    /// Append one completed run. Every [`FLUSH_EVERY`] appends, a
    /// watermark is written and the file is fsync'd.
    pub fn append(&mut self, idx: usize, rec: &RunRecord) -> Result<(), String> {
        let spans = self.spans.clone();
        spans
            .time(PhaseId::JournalAppend, || {
                let mut line = encode_record(idx, rec);
                line.push('\n');
                self.file.write_all(line.as_bytes())
            })
            .map_err(|e| self.io_err(e))?;
        self.done += 1;
        self.unsynced += 1;
        if self.unsynced >= FLUSH_EVERY {
            self.flush()?;
        }
        Ok(())
    }

    /// Write a watermark and fsync. Idempotent; called on batch
    /// boundaries, graceful shutdown and campaign completion.
    pub fn flush(&mut self) -> Result<(), String> {
        let spans = self.spans.clone();
        spans
            .time(PhaseId::JournalFsync, || {
                let line = format!("{{\"type\":\"watermark\",\"done\":{}}}\n", self.done);
                self.file.write_all(line.as_bytes())?;
                let t0 = Instant::now();
                self.file.sync_data()?;
                if let Some(h) = &self.fsync_hist {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
                Ok::<(), std::io::Error>(())
            })
            .map_err(|e| self.io_err(e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Run lines in the journal (recovered + appended).
    pub fn done(&self) -> usize {
        self.done
    }

    fn io_err(&self, e: std::io::Error) -> String {
        format!("journal {} write failed: {e}", self.path.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(effect: FaultEffect, cycles: u64) -> RunRecord {
        RunRecord {
            effect,
            hvf: None,
            trap: (effect == FaultEffect::Crash).then_some("watchdog"),
            early_terminated: false,
            converged: false,
            cycles,
            forensics: None,
            attribution: None,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("marvel-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn record_roundtrip_including_optionals() {
        let mut r = rec(FaultEffect::Crash, 12345);
        r.hvf = Some(HvfEffect::Corruption);
        r.attribution =
            Some(Attribution { reached_arch: true, structure: "rob".into(), cycle: 99, hops: 3 });
        let line = encode_record(7, &r);
        let (idx, back) = decode_record(&parse(&line).unwrap()).unwrap();
        assert_eq!(idx, 7);
        assert_eq!(back.effect, r.effect);
        assert_eq!(back.hvf, r.hvf);
        assert_eq!(back.trap, r.trap);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.attribution, r.attribution);
    }

    #[test]
    fn create_append_resume() {
        let path = tmpdir("car").join("j.jsonl");
        std::fs::remove_file(&path).ok();
        let (mut j, slots) = Journal::open(&path, "c1", "feedface00000000", 4).unwrap();
        assert!(slots.iter().all(Option::is_none));
        j.append(2, &rec(FaultEffect::Sdc, 10)).unwrap();
        j.append(0, &rec(FaultEffect::Masked, 20)).unwrap();
        j.flush().unwrap();
        drop(j);
        let (j2, slots) = Journal::open(&path, "c1", "feedface00000000", 4).unwrap();
        assert_eq!(j2.done(), 2);
        assert!(slots[0].is_some() && slots[2].is_some());
        assert!(slots[1].is_none() && slots[3].is_none());
        assert_eq!(slots[2].as_ref().unwrap().effect, FaultEffect::Sdc);
    }

    #[test]
    fn torn_tail_is_dropped_mid_corruption_is_fatal() {
        let path = tmpdir("torn").join("j.jsonl");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path, "c", "00000000000000aa", 8).unwrap();
        j.append(0, &rec(FaultEffect::Masked, 5)).unwrap();
        j.flush().unwrap();
        drop(j);
        // Simulate a kill mid-append: half a JSON line at the tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"run\",\"idx\":1,\"eff");
        std::fs::write(&path, &text).unwrap();
        let (j2, slots) = Journal::open(&path, "c", "00000000000000aa", 8).unwrap();
        assert_eq!(j2.done(), 1);
        assert!(slots[0].is_some() && slots[1].is_none());
        drop(j2);
        // Corruption before the tail must fail loudly.
        let good = std::fs::read_to_string(&path).unwrap();
        let broken = good.replacen("\"type\":\"run\"", "\"type\":\"rum\"", 1);
        std::fs::write(&path, &broken).unwrap();
        assert!(Journal::open(&path, "c", "00000000000000aa", 8).is_err());
    }

    #[test]
    fn identity_mismatches_fail_loudly() {
        let path = tmpdir("ident").join("j.jsonl");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path, "c1", "1111111111111111", 4).unwrap();
        drop(j);
        let wrong_digest = Journal::open(&path, "c1", "2222222222222222", 4);
        assert!(wrong_digest.unwrap_err().contains("digest"));
        let wrong_runs = Journal::open(&path, "c1", "1111111111111111", 5);
        assert!(wrong_runs.unwrap_err().contains("runs"));
        let wrong_id = Journal::open(&path, "c2", "1111111111111111", 4);
        assert!(wrong_id.unwrap_err().contains("campaign"));
        // Future schema version.
        let text = std::fs::read_to_string(&path).unwrap().replacen(
            "\"schema_version\":1",
            "\"schema_version\":9",
            1,
        );
        std::fs::write(&path, &text).unwrap();
        assert!(Journal::open(&path, "c1", "1111111111111111", 4)
            .unwrap_err()
            .contains("schema_version 9"));
    }

    #[test]
    fn profiling_attributes_appends_and_fsyncs() {
        let path = tmpdir("prof").join("j.jsonl");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path, "c", "00000000000000bb", 64).unwrap();
        let spans = SpanCollector::enabled();
        let hist = Arc::new(Histogram::new());
        j.set_profiling(spans.clone(), Some(hist.clone()));
        for i in 0..40 {
            j.append(i, &rec(FaultEffect::Masked, 1)).unwrap();
        }
        j.flush().unwrap();
        let rep = spans.report();
        assert_eq!(rep.calls(PhaseId::JournalAppend), 40);
        // 40 appends cross one FLUSH_EVERY watermark, plus the explicit flush.
        assert_eq!(rep.calls(PhaseId::JournalFsync), 2);
        assert_eq!(hist.snapshot().count, 2);
    }
}
