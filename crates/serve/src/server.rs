//! The campaign service: a long-running process that accepts versioned
//! [`CampaignSpec`]s (over a line-delimited TCP protocol or dropped into
//! a spool directory), schedules them fairly across an in-process worker
//! pool by sharding each campaign's run-index range, journals every
//! completed run with fsync'd watermarks, and rebuilds exports from the
//! journal — so a SIGKILLed service resumes every in-flight campaign
//! instead of restarting it.
//!
//! Layout under the artifact root (default `results/`):
//!
//! ```text
//! results/
//!   _serve/addr            actual listen address (host:port), for clients
//!   _serve/spool/*.json    drop-in spec submissions (polled)
//!   <campaign-id>/
//!     spec.json            canonical spec (identity; enables restart recovery)
//!     journal.jsonl        run journal (see crate::journal)
//!     records.csv|jsonl    per-run exports, written at completion
//!     summary.csv          campaign summary row
//!     attribution.*        taint attribution tables (when collected)
//!     DONE                 completion marker
//! ```
//!
//! Wire protocol — one request line, one (or for WATCH, many) response
//! lines, all JSON:
//!
//! ```text
//! PING                      → {"ok":true,"type":"pong"}
//! SUBMIT {spec json}        → {"ok":true,"id":...,"digest":...} | {"ok":false,"error":...}
//! STATUS [id]               → status object (or list of them)
//! METRICS <id>              → one-line registry snapshot + per-phase wall-time totals
//! METRICS <id> prom         → multi-line Prometheus text exposition (read to EOF)
//! PROFILE [id]              → one-line phase profile (campaign, or the service
//!                             scheduler itself when no id is given)
//! WATCH <id>                → progress lines until the campaign settles
//! ```

use crate::client::write_addr_file;
use crate::exports::write_exports;
use crate::journal::Journal;
use crate::signals::install_shutdown_handler;
use crate::spec::{CampaignSpec, Prepared};
use marvel_core::{error_margin, FaultEffect, RunRecord, TelemetryConfig};
use marvel_telemetry::{
    json_string, render_phase_object, render_prometheus, render_snapshot_line, PhaseId, PhaseReport,
    ProgressMeter, Registry, SpanCollector, TRACE_SCHEMA_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Service configuration (the `marvel serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Artifact root; every campaign gets `root/<id>/`.
    pub root: PathBuf,
    /// Listen address; port 0 picks a free port (written to the addr file).
    pub addr: String,
    /// Worker threads (0 = all cores).
    pub workers: usize,
    /// Runs per scheduling shard. Small shards interleave campaigns more
    /// fairly; large shards amortise per-shard reset cost.
    pub shard: usize,
    /// Spool/scheduler poll interval.
    pub poll_ms: u64,
    /// Exit once at least one campaign is known and all are settled
    /// (Done/Failed). Used by restart-recovery harnesses and CI.
    pub once: bool,
    /// Per-run sleep in the record sink — a test hook (set via
    /// `MARVEL_SERVE_THROTTLE_MS`) that slows campaigns down enough to
    /// kill the service mid-flight deterministically.
    pub throttle_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            root: PathBuf::from("results"),
            addr: "127.0.0.1:0".into(),
            workers: 0,
            shard: 32,
            poll_ms: 50,
            once: false,
            throttle_ms: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Preparing,
    Running,
    Done,
    Failed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Preparing => "preparing",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }

    fn settled(self) -> bool {
        matches!(self, Phase::Done | Phase::Failed)
    }
}

/// Mutable half of a campaign, behind its own lock so shards of different
/// campaigns never contend.
struct CampState {
    phase: Phase,
    error: Option<String>,
    prepared: Option<Arc<Prepared>>,
    journal: Option<Journal>,
    /// Per-index completion (journaled) flags and record cache (exports
    /// are rebuilt from this at completion, in index order).
    done_flags: Vec<bool>,
    records: Vec<Option<RunRecord>>,
    done: usize,
    sdc: u64,
    crash: u64,
    early: u64,
    /// Pending run indices not yet handed to a shard, in index order
    /// (shards are index ranges of this list).
    pending: Vec<usize>,
    /// Next position in `pending` to shard out.
    cursor: usize,
    /// Indices currently claimed by in-flight shards.
    in_flight: usize,
    meter: Option<ProgressMeter>,
}

struct Campaign {
    spec: CampaignSpec,
    digest: String,
    dir: PathBuf,
    total: usize,
    registry: Registry,
    /// Per-campaign phase spans (golden prep, sim steps, journal I/O …);
    /// always on — the per-run cost is two clock reads per phase.
    spans: SpanCollector,
    state: Mutex<CampState>,
}

impl Campaign {
    fn new(spec: CampaignSpec, dir: PathBuf, phase: Phase) -> Campaign {
        let total = spec.n_faults;
        let digest = spec.digest();
        Campaign {
            spec,
            digest,
            dir,
            total,
            registry: Registry::new(),
            spans: SpanCollector::enabled(),
            state: Mutex::new(CampState {
                phase,
                error: None,
                prepared: None,
                journal: None,
                done_flags: vec![false; total],
                records: vec![None; total],
                done: if phase == Phase::Done { total } else { 0 },
                sdc: 0,
                crash: 0,
                early: 0,
                pending: Vec::new(),
                cursor: 0,
                in_flight: 0,
                meter: None,
            }),
        }
    }

    /// The campaign's telemetry: its registry and spans, no progress
    /// line and no flight recorder (the spec's taint switch rides
    /// `CampaignSpec::to_config`).
    fn telemetry(&self) -> TelemetryConfig {
        TelemetryConfig {
            registry: self.registry.clone(),
            spans: self.spans.clone(),
            ..TelemetryConfig::default()
        }
    }

    fn status_line(&self) -> String {
        let st = self.state.lock().unwrap();
        format!(
            "{{\"type\":\"status\",\"id\":{},\"phase\":\"{}\",\"done\":{},\"total\":{},\"sdc\":{},\"crash\":{},\"early\":{},\"digest\":{},\"detail\":{}{}}}",
            json_string(&self.spec.id),
            st.phase.name(),
            st.done,
            self.total,
            st.sdc,
            st.crash,
            st.early,
            json_string(&self.digest),
            json_string(&self.spec.describe()),
            match &st.error {
                Some(e) => format!(",\"error\":{}", json_string(e)),
                None => String::new(),
            }
        )
    }

    fn progress_line(&self) -> String {
        let st = self.state.lock().unwrap();
        match (&st.meter, &st.prepared) {
            (Some(m), Some(p)) => {
                let margin = error_margin(st.done.max(1), p.population(), 0.95);
                m.json_line(st.done as u64, st.sdc, st.crash, st.early, margin)
            }
            _ => {
                drop(st);
                self.status_line()
            }
        }
    }
}

/// One-line phase profile for the `PROFILE` verb: wall clock, attributed
/// self time and the per-phase breakdown, schema-versioned like every
/// other protocol line.
fn profile_line(id: &str, rep: &PhaseReport) -> String {
    format!(
        "{{\"type\":\"profile\",\"schema_version\":{TRACE_SCHEMA_VERSION},\"id\":{},\"wall_us\":{},\"attributed_us\":{},\"phases\":{}}}",
        json_string(id),
        rep.wall_us,
        rep.self_total_us(),
        render_phase_object(rep)
    )
}

/// One claimable unit of work.
enum Unit {
    /// Golden prep + ladder + masks + journal recovery.
    Prep(Arc<Campaign>),
    /// Drive these run indices and journal the records.
    Shard(Arc<Campaign>, Vec<usize>),
}

struct Server {
    cfg: ServeConfig,
    campaigns: Mutex<Vec<Arc<Campaign>>>,
    /// Round-robin cursor for fair scheduling across campaigns.
    rr: AtomicUsize,
    /// Graceful-shutdown flag (SIGINT/SIGTERM); doubles as the campaign
    /// drivers' cancel hook.
    shutdown: &'static AtomicBool,
    /// Internal stop for worker threads (set on shutdown or once-exit).
    stop: AtomicBool,
    /// Service-level spans: scheduler idle time (a campaign's collector
    /// cannot own it — idle belongs to no campaign). `PROFILE` with no id
    /// reads this.
    spans: SpanCollector,
}

impl Server {
    fn find(&self, id: &str) -> Option<Arc<Campaign>> {
        self.campaigns.lock().unwrap().iter().find(|c| c.spec.id == id).cloned()
    }

    /// Register a submitted spec. Idempotent for an identical (id,
    /// digest) pair — resubmitting a known campaign (or one recovered
    /// from disk) acks instead of erroring, so clients can blindly
    /// re-submit after a service restart.
    fn submit(&self, text: &str) -> Result<String, String> {
        let spec = CampaignSpec::parse(text)?;
        let digest = spec.digest();
        if let Some(existing) = self.find(&spec.id) {
            if existing.digest != digest {
                return Err(format!(
                    "campaign id {:?} already exists with a different spec \
                     (digest {} vs submitted {digest})",
                    spec.id, existing.digest
                ));
            }
            return Ok(format!(
                "{{\"ok\":true,\"id\":{},\"digest\":{},\"known\":true}}",
                json_string(&spec.id),
                json_string(&digest)
            ));
        }
        let dir = self.cfg.root.join(&spec.id);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("spec.json"), format!("{}\n", spec.render()))
            .map_err(|e| e.to_string())?;
        let id = spec.id.clone();
        let campaign = Arc::new(Campaign::new(spec, dir, Phase::Queued));
        self.campaigns.lock().unwrap().push(campaign);
        Ok(format!(
            "{{\"ok\":true,\"id\":{},\"digest\":{},\"known\":false}}",
            json_string(&id),
            json_string(&digest)
        ))
    }

    /// Recover campaigns from `root/*/spec.json` at startup. Completed
    /// campaigns (DONE marker) register as Done; everything else queues
    /// and resumes from its journal during prep.
    fn recover_from_disk(&self) {
        let Ok(entries) = std::fs::read_dir(&self.cfg.root) else { return };
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.join("spec.json").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let Ok(text) = std::fs::read_to_string(dir.join("spec.json")) else { continue };
            match CampaignSpec::parse(text.trim()) {
                Ok(spec) => {
                    if self.find(&spec.id).is_some() {
                        continue;
                    }
                    let phase = if dir.join("DONE").is_file() { Phase::Done } else { Phase::Queued };
                    eprintln!(
                        "serve: recovered campaign {} from {} ({})",
                        spec.id,
                        dir.display(),
                        phase.name()
                    );
                    self.campaigns.lock().unwrap().push(Arc::new(Campaign::new(spec, dir, phase)));
                }
                Err(e) => eprintln!("serve: ignoring {}: {e}", dir.display()),
            }
        }
    }

    /// Poll the spool directory for dropped spec files. Accepted files
    /// are renamed to `<name>.accepted`; rejected ones to `<name>.rejected`
    /// with the error alongside.
    fn scan_spool(&self) {
        let spool = self.cfg.root.join("_serve").join("spool");
        let Ok(entries) = std::fs::read_dir(&spool) else { return };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for path in files {
            let Ok(text) = std::fs::read_to_string(&path) else { continue };
            match self.submit(text.trim()) {
                Ok(_) => {
                    eprintln!("serve: accepted spooled spec {}", path.display());
                    std::fs::rename(&path, path.with_extension("json.accepted")).ok();
                }
                Err(e) => {
                    eprintln!("serve: rejected spooled spec {}: {e}", path.display());
                    std::fs::write(path.with_extension("json.error"), format!("{e}\n")).ok();
                    std::fs::rename(&path, path.with_extension("json.rejected")).ok();
                }
            }
        }
    }

    /// Claim the next unit of work, round-robin across campaigns so two
    /// concurrent campaigns both make progress regardless of submission
    /// order.
    fn claim(&self) -> Option<Unit> {
        let campaigns = self.campaigns.lock().unwrap();
        if campaigns.is_empty() {
            return None;
        }
        let n = campaigns.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        for off in 0..n {
            let c = &campaigns[(start + off) % n];
            let mut st = c.state.lock().unwrap();
            match st.phase {
                Phase::Queued => {
                    st.phase = Phase::Preparing;
                    return Some(Unit::Prep(c.clone()));
                }
                Phase::Running if st.cursor < st.pending.len() => {
                    let end = (st.cursor + self.cfg.shard).min(st.pending.len());
                    let idxs = st.pending[st.cursor..end].to_vec();
                    st.cursor = end;
                    st.in_flight += idxs.len();
                    return Some(Unit::Shard(c.clone(), idxs));
                }
                _ => {}
            }
        }
        None
    }

    /// Execute the prep unit: golden + ladder + masks, journal recovery,
    /// transition to Running (or straight to Done when the recovered
    /// journal is already complete).
    fn run_prep(&self, c: &Arc<Campaign>) {
        let cc = c.spec.to_config(c.telemetry());
        let prepared = match Prepared::new(&c.spec, &cc) {
            Ok(p) => Arc::new(p),
            Err(e) => return self.fail(c, format!("golden prep failed: {e}")),
        };
        let journal_path = c.dir.join("journal.jsonl");
        let (mut journal, recovered) = match Journal::open(&journal_path, &c.spec.id, &c.digest, c.total)
        {
            Ok(r) => r,
            Err(e) => return self.fail(c, format!("journal: {e}")),
        };
        journal.set_profiling(c.spans.clone(), c.registry.histogram("journal.fsync_ns"));
        let mut st = c.state.lock().unwrap();
        st.done = 0;
        st.sdc = 0;
        st.crash = 0;
        st.early = 0;
        for (i, slot) in recovered.into_iter().enumerate() {
            if let Some(rec) = slot {
                st.done_flags[i] = true;
                st.done += 1;
                match rec.effect {
                    FaultEffect::Sdc => st.sdc += 1,
                    FaultEffect::Crash => st.crash += 1,
                    FaultEffect::Masked => {}
                }
                if rec.early_terminated {
                    st.early += 1;
                }
                st.records[i] = Some(rec);
            }
        }
        // Seed the meter with the journaled prefix so the live rate and
        // ETA reflect only runs executed by *this* process — a resumed
        // campaign must not report the recovered records as throughput.
        st.meter = Some(ProgressMeter::resumed(&c.spec.id, c.total as u64, st.done as u64));
        st.pending = (0..c.total).filter(|&i| !st.done_flags[i]).collect();
        st.cursor = 0;
        st.prepared = Some(prepared);
        st.journal = Some(journal);
        st.phase = Phase::Running;
        eprintln!(
            "serve: campaign {} running ({} journaled, {} pending)",
            c.spec.id,
            st.done,
            st.pending.len()
        );
        if st.done == c.total {
            self.finalize(c, st);
        }
    }

    /// Execute one shard: drive the indices through the campaign engine
    /// with this worker as the (single) pool thread, journaling each
    /// record as it lands.
    fn run_shard(&self, c: &Arc<Campaign>, idxs: &[usize]) {
        let (prepared, mut cc) = {
            let st = c.state.lock().unwrap();
            (st.prepared.clone().expect("shard claimed before prep"), c.spec.to_config(c.telemetry()))
        };
        cc.workers = 1;
        let mut skip = vec![true; c.total];
        for &i in idxs {
            skip[i] = false;
        }
        let throttle = self.cfg.throttle_ms;
        let sink = |i: usize, rec: RunRecord| {
            {
                let mut st = c.state.lock().unwrap();
                if let Some(j) = st.journal.as_mut() {
                    if let Err(e) = j.append(i, &rec) {
                        eprintln!("serve: campaign {}: {e}", c.spec.id);
                    }
                }
                st.done_flags[i] = true;
                st.done += 1;
                match rec.effect {
                    FaultEffect::Sdc => st.sdc += 1,
                    FaultEffect::Crash => st.crash += 1,
                    FaultEffect::Masked => {}
                }
                if rec.early_terminated {
                    st.early += 1;
                }
                st.records[i] = Some(rec);
            }
            if throttle > 0 {
                std::thread::sleep(Duration::from_millis(throttle));
            }
        };
        prepared.drive(&cc, &skip, Some(self.shutdown), &sink);
        let mut st = c.state.lock().unwrap();
        st.in_flight -= idxs.len();
        if st.phase == Phase::Running && st.done == c.total {
            self.finalize(c, st);
        }
    }

    /// Completion: rebuild exports from the full record set (index
    /// order), drop the DONE marker, flush the journal one last time.
    fn finalize(&self, c: &Arc<Campaign>, mut st: std::sync::MutexGuard<'_, CampState>) {
        let records: Vec<RunRecord> =
            st.records.iter().map(|r| r.clone().expect("finalize with missing record")).collect();
        let prepared = st.prepared.clone().expect("finalize before prep");
        if let Some(j) = st.journal.as_mut() {
            if let Err(e) = j.flush() {
                eprintln!("serve: campaign {}: {e}", c.spec.id);
            }
        }
        match write_exports(&c.dir, &c.spec, &prepared, &records) {
            Ok(files) => {
                std::fs::write(c.dir.join("DONE"), "done\n").ok();
                st.phase = Phase::Done;
                eprintln!(
                    "serve: campaign {} done ({} runs; {} exported to {})",
                    c.spec.id,
                    records.len(),
                    files.join(", "),
                    c.dir.display()
                );
            }
            Err(e) => {
                st.error = Some(e.clone());
                st.phase = Phase::Failed;
                eprintln!("serve: campaign {} export failed: {e}", c.spec.id);
            }
        }
    }

    fn fail(&self, c: &Arc<Campaign>, msg: String) {
        eprintln!("serve: campaign {} failed: {msg}", c.spec.id);
        let mut st = c.state.lock().unwrap();
        st.error = Some(msg);
        st.phase = Phase::Failed;
    }

    fn all_settled(&self) -> bool {
        let campaigns = self.campaigns.lock().unwrap();
        !campaigns.is_empty() && campaigns.iter().all(|c| c.state.lock().unwrap().phase.settled())
    }

    fn worker_loop(&self) {
        loop {
            if self.stop.load(Ordering::Relaxed) || self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match self.claim() {
                Some(Unit::Prep(c)) => self.run_prep(&c),
                Some(Unit::Shard(c, idxs)) => self.run_shard(&c, &idxs),
                None => self.spans.time(PhaseId::Idle, || {
                    std::thread::sleep(Duration::from_millis(self.cfg.poll_ms.clamp(10, 500)))
                }),
            }
        }
    }

    /// Flush every open journal (graceful-shutdown path: completed runs
    /// must be durable before the process exits).
    fn flush_all_journals(&self) {
        for c in self.campaigns.lock().unwrap().iter() {
            let mut st = c.state.lock().unwrap();
            if let Some(j) = st.journal.as_mut() {
                j.flush().ok();
            }
        }
    }

    fn handle_request(&self, line: &str, out: &mut dyn Write) -> std::io::Result<()> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb {
            "PING" => writeln!(out, "{{\"ok\":true,\"type\":\"pong\"}}"),
            "SUBMIT" => match self.submit(rest) {
                Ok(ack) => writeln!(out, "{ack}"),
                Err(e) => writeln!(out, "{{\"ok\":false,\"error\":{}}}", json_string(&e)),
            },
            "STATUS" => {
                if rest.is_empty() {
                    let lines: Vec<String> =
                        self.campaigns.lock().unwrap().iter().map(|c| c.status_line()).collect();
                    writeln!(out, "{{\"type\":\"status_list\",\"campaigns\":[{}]}}", lines.join(","))
                } else {
                    match self.find(rest) {
                        Some(c) => writeln!(out, "{}", c.status_line()),
                        None => writeln!(
                            out,
                            "{{\"ok\":false,\"error\":{}}}",
                            json_string(&format!("unknown campaign '{rest}'"))
                        ),
                    }
                }
            }
            "METRICS" => {
                let (id, prom) = match rest.split_once(' ') {
                    Some((id, "prom")) => (id, true),
                    _ => (rest, false),
                };
                match self.find(id) {
                    Some(c) if prom => {
                        // Multi-line exposition: the client reads to EOF
                        // (see `client::request_text`), so just write it.
                        let labels = format!("campaign=\"{}\"", c.spec.id);
                        write!(
                            out,
                            "{}",
                            render_prometheus(&c.registry.snapshot(), &c.spans.report(), &labels)
                        )
                    }
                    Some(c) => {
                        // Splice the phase totals into the snapshot line so
                        // one METRICS round-trip carries both surfaces.
                        let line = render_snapshot_line(&c.registry.snapshot());
                        let body = line.trim_end().strip_suffix('}').unwrap_or(&line).to_string();
                        writeln!(out, "{body},\"phases\":{}}}", render_phase_object(&c.spans.report()))
                    }
                    None => writeln!(
                        out,
                        "{{\"ok\":false,\"error\":{}}}",
                        json_string(&format!("unknown campaign '{id}'"))
                    ),
                }
            }
            "PROFILE" => {
                if rest.is_empty() {
                    writeln!(out, "{}", profile_line("_serve", &self.spans.report()))
                } else {
                    match self.find(rest) {
                        Some(c) => writeln!(out, "{}", profile_line(&c.spec.id, &c.spans.report())),
                        None => writeln!(
                            out,
                            "{{\"ok\":false,\"error\":{}}}",
                            json_string(&format!("unknown campaign '{rest}'"))
                        ),
                    }
                }
            }
            "WATCH" => match self.find(rest) {
                Some(c) => loop {
                    writeln!(out, "{}", c.progress_line())?;
                    out.flush()?;
                    let settled = c.state.lock().unwrap().phase.settled();
                    if settled || self.shutdown.load(Ordering::Relaxed) {
                        writeln!(out, "{}", c.status_line())?;
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_millis(250));
                },
                None => writeln!(
                    out,
                    "{{\"ok\":false,\"error\":{}}}",
                    json_string(&format!("unknown campaign '{rest}'"))
                ),
            },
            other => writeln!(
                out,
                "{{\"ok\":false,\"error\":{}}}",
                json_string(&format!("unknown verb '{other}'"))
            ),
        }
    }

    fn handle_connection(&self, stream: TcpStream) {
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if self.handle_request(&line, &mut writer).is_err() {
                break;
            }
        }
    }
}

/// Run the campaign service until a shutdown signal arrives (or, with
/// `once`, until every known campaign settles). Returns an error only
/// for unrecoverable startup failures (bad root, bind failure).
pub fn serve(mut cfg: ServeConfig) -> Result<(), String> {
    if let Ok(ms) = std::env::var("MARVEL_SERVE_THROTTLE_MS") {
        if let Ok(ms) = ms.parse::<u64>() {
            cfg.throttle_ms = ms;
        }
    }
    let internal = cfg.root.join("_serve");
    std::fs::create_dir_all(internal.join("spool")).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    write_addr_file(&cfg.root, &local.to_string())?;
    eprintln!("serve: listening on {local}, root {}", cfg.root.display());

    let shutdown = install_shutdown_handler();
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.workers
    };
    let poll = Duration::from_millis(cfg.poll_ms.clamp(10, 1000));
    let server = Arc::new(Server {
        cfg,
        campaigns: Mutex::new(Vec::new()),
        rr: AtomicUsize::new(0),
        shutdown,
        stop: AtomicBool::new(false),
        spans: SpanCollector::enabled(),
    });
    server.recover_from_disk();

    let mut pool = Vec::new();
    for _ in 0..workers {
        let srv = server.clone();
        pool.push(std::thread::spawn(move || srv.worker_loop()));
    }

    loop {
        if shutdown.load(Ordering::Relaxed) {
            eprintln!("serve: shutdown signal — draining workers and flushing journals");
            break;
        }
        server.scan_spool();
        if server.cfg.once && server.all_settled() {
            eprintln!("serve: all campaigns settled — exiting (--once)");
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let srv = server.clone();
                std::thread::spawn(move || srv.handle_connection(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(e) => {
                eprintln!("serve: accept error: {e}");
                std::thread::sleep(poll);
            }
        }
    }

    server.stop.store(true, Ordering::Relaxed);
    for t in pool {
        t.join().ok();
    }
    server.flush_all_journals();
    Ok(())
}

/// Drop a spec file into a service's spool directory (file-based
/// submission for environments without network access to the service).
pub fn spool_spec(root: &Path, spec: &CampaignSpec) -> Result<PathBuf, String> {
    let spool = root.join("_serve").join("spool");
    std::fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
    let path = spool.join(format!("{}.json", spec.id));
    std::fs::write(&path, format!("{}\n", spec.render())).map_err(|e| e.to_string())?;
    Ok(path)
}
