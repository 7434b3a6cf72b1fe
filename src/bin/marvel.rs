//! `marvel` — command-line driver for the fault-injection framework.
//!
//! ```text
//! marvel list
//! marvel run <benchmark> [--isa arm|x86|riscv] [--lockstep]
//!                 [--trace-spans [path]] [--phase-report]
//! marvel disasm <benchmark> [--isa ...] [--limit N]
//! marvel campaign <benchmark> [--isa ...] [--target prf|l1i|l1d|l2|lq|sq|rob|rename]
//!                 [--faults N] [--kind transient|permanent] [--hvf] [--seed S]
//!                 [--prep ref|cycle] [--ladder-rungs N] [--convergence-exit]
//!                 [--workers N] [--metrics [path]] [--forensics [path]] [--progress [ms]]
//!                 [--taint] [--attribution [path]] [--trace-pipeline [dir]]
//!                 [--trace-spans [path]] [--phase-report]
//!                 [--journal path [--resume]] [--campaign-id id]
//! marvel dsa <design> [--faults N] [--fus N]
//!                 [--ladder-rungs N] [--convergence-exit] [--workers N]
//!                 [--metrics [path]] [--forensics [path]] [--progress [ms]]
//!                 [--taint] [--attribution [path]]
//!                 [--trace-spans [path]] [--phase-report]
//! marvel serve [--root dir] [--addr host:port] [--workers N] [--shard N] [--once]
//! marvel submit <spec.json> [--root dir] [--spool]
//! marvel status [campaign-id] [--root dir]
//! marvel watch <campaign-id> [--root dir]
//! ```
//!
//! Every command rejects flags it does not know and flag values it
//! cannot parse, naming the flag, before any work starts.
//! `marvel campaign` and `marvel dsa` describe their campaign as a
//! [`CampaignSpec`] — the document `marvel submit` sends — starting from
//! the defaults every spec starts from, and run the config
//! [`CampaignSpec::to_config`] derives from it; a spec and a command line
//! with the same fields run the same campaign.
//! `--metrics`/`--forensics` export registry snapshots and flight-recorder
//! timelines (JSONL; default paths under `results/`); `--progress` prints
//! a live progress line with rate, ETA and the running AVF ± margin.
//! `--taint` turns on marvel-taint shadow tracking: per-run propagation
//! timelines ride the forensics dumps and the per-structure AVF
//! attribution table is printed and exported (CSV + JSONL).
//! `--trace-pipeline` writes a golden/faulty Konata pipeline trace pair
//! for the campaign's first non-masked fault.
//! `--trace-spans [path]` records marvel-spans phase tracing and writes a
//! Chrome trace-event JSON (load it in Perfetto / `chrome://tracing`);
//! `--phase-report` prints the per-phase wall-time attribution table
//! (calls, total/self µs, p50/p95) with a coverage line. Either flag
//! enables the collector; with both absent the span hooks stay no-ops.
//! `--ladder-rungs` (default 8) snapshots the fault-free run at N evenly
//! spaced cycles; each injection run then restores a rung near its
//! injection cycle instead of re-simulating the fault-free prefix.
//! `--convergence-exit` additionally diffs each run's journaled dirty
//! state against the golden rung at every crossing and declares the fault
//! Masked the moment all of it has converged. Both are pure optimisations:
//! reports stay bit-identical to `--ladder-rungs 0` (the full-run oracle).
//! The engine's other fast paths — dirty reset, 64-wide lane packing and
//! the event-driven DSA engine — are always on; their oracles are
//! `CampaignConfig` fields the differential test suites set.
//! `--lockstep` runs the cycle-level core under the architectural
//! reference model, checking every committed instruction's effects and
//! reporting the first divergence; `--prep ref` fast-forwards the golden
//! run to the checkpoint with the reference interpreter instead of the
//! cycle-level core.
//! `--workers N` (default 0 = every core) sets the campaign's worker
//! threads; reports are identical at any worker count.
//! `--journal <path>` journals every completed run (fsync'd watermarks,
//! same format as the campaign service); Ctrl-C flushes the journal and
//! prints a resume hint, and `--resume` continues an interrupted campaign
//! from its journal — the final report is byte-identical to an
//! uninterrupted run.
//! `marvel serve` starts the campaign service (see `marvel-serve`):
//! submit schema-versioned specs with `marvel submit`, inspect them with
//! `marvel status`, and stream live progress with `marvel watch`.

use gem5_marvel::core::{
    attribution_by_structure, attribution_csv, attribution_jsonl, render_attribution, run_dsa_campaign,
    trace_pipeline_pair, CampaignConfig, CampaignResult, DsaEngine, DsaGolden, FaultEffect, RunRecord,
    TelemetryConfig,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::{disassemble, Isa};
use gem5_marvel::serve::spec::{find_design, parse_cpu_target, parse_isa, parse_kind};
use gem5_marvel::serve::{
    install_shutdown_handler, read_addr_file, request, serve, watch, CampaignSpec, Journal, Prepared,
    ServeConfig, Workload,
};
use gem5_marvel::soc::{RunOutcome, System};
use gem5_marvel::telemetry::{
    append_jsonl_line, json_string, render_chrome_trace, render_phase_table, write_snapshot, PhaseId,
    Registry, SpanCollector,
};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Mutex;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Takes {
    /// A switch: `--hvf`.
    Nothing,
    /// A required value: `--faults 40`.
    Value,
    /// An optional value: `--metrics` or `--metrics out.jsonl`.
    Optional,
}

/// Flags `marvel campaign` and `marvel dsa` share: the campaign fields
/// both commands set on their spec, and the telemetry outputs.
const CAMPAIGN_FLAGS: &[(&str, Takes)] = &[
    ("faults", Takes::Value),
    ("workers", Takes::Value),
    ("ladder-rungs", Takes::Value),
    ("convergence-exit", Takes::Nothing),
    ("taint", Takes::Nothing),
    ("attribution", Takes::Optional),
    ("metrics", Takes::Optional),
    ("forensics", Takes::Optional),
    ("progress", Takes::Optional),
    ("trace-spans", Takes::Optional),
    ("phase-report", Takes::Nothing),
];

/// The flags `cmd` accepts, or `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<Vec<(&'static str, Takes)>> {
    let own: &[(&str, Takes)] = match cmd {
        "list" => &[],
        "run" => &[
            ("isa", Takes::Value),
            ("lockstep", Takes::Nothing),
            ("trace-spans", Takes::Optional),
            ("phase-report", Takes::Nothing),
        ],
        "disasm" => &[("isa", Takes::Value), ("limit", Takes::Value)],
        "campaign" => &[
            ("isa", Takes::Value),
            ("target", Takes::Value),
            ("kind", Takes::Value),
            ("seed", Takes::Value),
            ("hvf", Takes::Nothing),
            ("prep", Takes::Value),
            ("trace-pipeline", Takes::Optional),
            ("journal", Takes::Value),
            ("resume", Takes::Nothing),
            ("campaign-id", Takes::Value),
        ],
        "dsa" => &[("fus", Takes::Value)],
        "serve" => &[
            ("root", Takes::Value),
            ("addr", Takes::Value),
            ("workers", Takes::Value),
            ("shard", Takes::Value),
            ("once", Takes::Nothing),
        ],
        "submit" => &[("root", Takes::Value), ("spool", Takes::Nothing)],
        "status" | "watch" => &[("root", Takes::Value)],
        _ => return None,
    };
    let shared = if matches!(cmd, "campaign" | "dsa") { CAMPAIGN_FLAGS } else { &[] };
    Some(own.iter().chain(shared).copied().collect())
}

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: HashSet<String>,
}

/// Split `argv` into positionals, flag values and switches per the
/// command's `table`. A flag outside the table, or one that needs a value
/// and has none, is an error naming the flag.
fn parse_args(argv: &[String], table: &[(&str, Takes)]) -> Result<Args, String> {
    let mut args = Args { positional: Vec::new(), flags: HashMap::new(), switches: HashSet::new() };
    let cmd = argv.first().map_or("", String::as_str);
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            args.positional.push(a.clone());
            continue;
        };
        let takes =
            table.iter().find(|(n, _)| *n == name).map(|&(_, t)| t).ok_or_else(|| {
                format!("unknown flag --{name} for `marvel {cmd}` (see `marvel help`)")
            })?;
        let value = match takes {
            Takes::Nothing => None,
            Takes::Value | Takes::Optional => it.next_if(|v| !v.starts_with("--")),
        };
        match value {
            Some(v) => {
                args.flags.insert(name.to_string(), v.clone());
            }
            None if takes == Takes::Value => return Err(format!("--{name} needs a value")),
            None => {
                args.switches.insert(name.to_string());
            }
        }
    }
    Ok(args)
}

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The value of `--<name>` parsed as `T`; an unparsable value is an
    /// error naming the flag and what it `want`s.
    fn parsed<T: FromStr>(&self, name: &str, want: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} '{v}' (want {want})")))
            .transpose()
    }

    /// `--<name> <v>` through `parse`, with errors naming the flag.
    fn parsed_with<T>(
        &self,
        name: &str,
        parse: fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(name).map(|v| parse(v).map_err(|e| format!("--{name}: {e}"))).transpose()
    }
}

/// Resolve `--<name> <path>` (explicit path) or bare `--<name>` (default
/// path under `results/`).
fn path_flag(args: &Args, name: &str, default: &str) -> Option<PathBuf> {
    if let Some(v) = args.value(name) {
        Some(PathBuf::from(v))
    } else if args.switch(name) {
        Some(PathBuf::from(default))
    } else {
        None
    }
}

/// Where the marvel-spans output of a command goes: the Chrome trace
/// JSON path (`--trace-spans [path]`) and/or the printed attribution
/// table (`--phase-report`). Both absent ⇒ span collection stays off.
struct SpanOutputs {
    trace: Option<PathBuf>,
    report: bool,
}

/// Where a campaign command writes its exports once the campaign is done.
struct Outputs {
    metrics: Option<PathBuf>,
    forensics: Option<PathBuf>,
    spans: SpanOutputs,
}

/// The spec `marvel campaign` and `marvel dsa` share: `workload` with the
/// defaults of every spec ([`CampaignSpec::new`]), then `--faults`,
/// `--workers`, `--ladder-rungs` (0 = the full-prefix oracle),
/// `--convergence-exit` and `--taint`. Each command sets its own flags on
/// top.
fn campaign_spec(args: &Args, id: &str, workload: Workload) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::new(id, workload)?;
    if let Some(n) = args.parsed("faults", "a count of at least 1")? {
        spec.n_faults = n;
    }
    if spec.n_faults == 0 {
        return Err("bad --faults '0' (want a count of at least 1)".into());
    }
    spec.workers = args.parsed("workers", "a count")?.unwrap_or(spec.workers);
    spec.ladder_rungs = args.parsed("ladder-rungs", "a count")?.unwrap_or(spec.ladder_rungs);
    spec.convergence_exit = args.switch("convergence-exit");
    spec.taint = args.switch("taint");
    Ok(spec)
}

/// The config `marvel campaign` and `marvel dsa` run `spec` with:
/// [`CampaignSpec::to_config`] with the telemetry the output flags ask for
/// (`--metrics`, `--forensics`, `--progress [ms]`, `--trace-spans`,
/// `--phase-report`; default paths `results/<cmd>_*`).
fn campaign_config(
    args: &Args,
    cmd: &str,
    spec: &CampaignSpec,
) -> Result<(CampaignConfig, Outputs), String> {
    let out = Outputs {
        metrics: path_flag(args, "metrics", &format!("results/{cmd}_metrics.jsonl")),
        forensics: path_flag(args, "forensics", &format!("results/{cmd}_forensics.jsonl")),
        spans: SpanOutputs {
            trace: path_flag(args, "trace-spans", &format!("results/{cmd}_trace.json")),
            report: args.switch("phase-report"),
        },
    };
    let progress_interval_ms = if args.switch("progress") {
        500
    } else {
        args.parsed("progress", "milliseconds")?.unwrap_or(0)
    };
    let telemetry = TelemetryConfig {
        registry: if out.metrics.is_some() { Registry::new() } else { Registry::disabled() },
        progress_interval_ms,
        // Taint timelines ride the flight recorder, so --taint implies it.
        flight_capacity: if out.forensics.is_some() || spec.taint { 64 } else { 0 },
        spans: if out.spans.trace.is_some() || out.spans.report {
            SpanCollector::enabled()
        } else {
            SpanCollector::disabled()
        },
        ..TelemetryConfig::default()
    };
    Ok((spec.to_config(telemetry), out))
}

/// Print the phase attribution table and/or write the Chrome trace JSON.
/// The emitted trace is re-parsed with the service's JSON parser before
/// it lands on disk — an artifact Perfetto cannot load must fail here,
/// not in the browser.
fn report_spans(spans: &SpanCollector, out: &SpanOutputs) -> Result<(), String> {
    if !spans.is_enabled() {
        return Ok(());
    }
    if out.report {
        print!("{}", render_phase_table(&spans.report()));
    }
    if let Some(path) = &out.trace {
        let json = render_chrome_trace(&spans.trace());
        let parsed = gem5_marvel::serve::json::parse(&json)
            .map_err(|e| format!("emitted span trace is not valid JSON: {e}"))?;
        let events = parsed
            .get("traceEvents")
            .and_then(gem5_marvel::serve::json::Json::as_array)
            .ok_or("emitted span trace has no traceEvents array")?
            .len();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        std::fs::write(path, &json).map_err(|e| e.to_string())?;
        eprintln!("span trace ({events} events, validated) written to {}", path.display());
    }
    Ok(())
}

/// Print the per-structure attribution table and export it next to the
/// other artifacts as schema-versioned CSV + JSONL.
fn report_attribution(records: &[RunRecord], csv_path: &std::path::Path) -> Result<(), String> {
    let Some(map) = attribution_by_structure(records) else { return Ok(()) };
    print!("{}", render_attribution(&map));
    if let Some(parent) = csv_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    std::fs::write(csv_path, attribution_csv(&map)).map_err(|e| e.to_string())?;
    let jsonl_path = csv_path.with_extension("jsonl");
    std::fs::write(&jsonl_path, attribution_jsonl(&map)).map_err(|e| e.to_string())?;
    eprintln!("attribution written to {} and {}", csv_path.display(), jsonl_path.display());
    Ok(())
}

/// Append every retained flight-recorder dump to `path` (one JSON object
/// per run), returning how many were written. The file is truncated
/// first so reruns do not mix campaigns.
fn dump_forensics(path: &std::path::Path, records: &[RunRecord], label: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, r) in records.iter().enumerate() {
        if let Some(d) = &r.forensics {
            let line = format!(
                "{{\"campaign\":{},\"run\":{},\"effect\":{},\"cycles\":{},\"timeline\":{}}}",
                json_string(label),
                i,
                json_string(&format!("{:?}", r.effect)),
                r.cycles,
                d.to_json()
            );
            append_jsonl_line(path, &line).map_err(|e| e.to_string())?;
            n += 1;
        }
    }
    Ok(n)
}

fn cmd_list() -> Result<(), String> {
    println!("CPU benchmarks (MiBench-style):");
    for n in mibench::NAMES {
        println!("  {n}");
    }
    println!("\nDSA designs (MachSuite-style, Table IV):");
    for d in accel::designs() {
        let comps: Vec<String> =
            d.components.iter().map(|c| format!("{} ({} B)", c.name, c.bytes)).collect();
        println!("  {:<12} {}", d.name, comps.join(", "));
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let bench = args.positional.get(1).ok_or("usage: marvel run <benchmark>")?;
    let isa = args.parsed_with("isa", parse_isa)?.unwrap_or(Isa::RiscV);
    let bin = assemble(&mibench::build(bench), isa).map_err(|e| e.to_string())?;
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    let lockstep = args.switch("lockstep");
    if lockstep {
        sys.enable_lockstep();
    }
    let spans_out = SpanOutputs {
        trace: path_flag(args, "trace-spans", "results/run_trace.json"),
        report: args.switch("phase-report"),
    };
    let spans = if spans_out.trace.is_some() || spans_out.report {
        SpanCollector::enabled()
    } else {
        SpanCollector::disabled()
    };
    let outcome = spans.time(PhaseId::SimStepCpu, || sys.run(200_000_000));
    report_spans(&spans, &spans_out)?;
    match outcome {
        RunOutcome::Halted { cycles } => {
            if lockstep {
                if let Some(d) = sys.lockstep_divergence() {
                    return Err(format!("lockstep divergence detected:\n{d}"));
                }
                let ls = sys.lockstep.as_deref().expect("lockstep was enabled");
                match ls.disabled_reason() {
                    Some(why) => {
                        eprintln!("lockstep: {} commits checked, then suspended ({why})", ls.checked())
                    }
                    None => {
                        eprintln!("lockstep: all {} commits match the reference model", ls.checked())
                    }
                }
            }
            let s = &sys.core.stats;
            println!("{bench} on {isa}: halted after {cycles} cycles");
            println!("  code size       : {} B", bin.code_len);
            println!("  committed insts : {}", s.committed_macros);
            println!("  IPC             : {:.2}", s.ipc());
            println!("  branches        : {} ({} mispredicted)", s.branches, s.mispredicts);
            println!("  loads / stores  : {} / {}", s.loads, s.stores);
            println!(
                "  L1I hit rate    : {:.1}%",
                100.0 * sys.core.l1i.hits as f64
                    / (sys.core.l1i.hits + sys.core.l1i.misses).max(1) as f64
            );
            println!(
                "  L1D hit rate    : {:.1}%",
                100.0 * sys.core.l1d.hits as f64
                    / (sys.core.l1d.hits + sys.core.l1d.misses).max(1) as f64
            );
            let hex: String = sys.output().iter().map(|b| format!("{b:02x}")).collect();
            println!("  output ({} B)   : {hex}", sys.output().len());
            Ok(())
        }
        o => {
            if let Some(d) = sys.lockstep_divergence() {
                return Err(format!("lockstep divergence detected:\n{d}"));
            }
            Err(format!("{bench} did not halt: {o:?}"))
        }
    }
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let bench = args.positional.get(1).ok_or("usage: marvel disasm <benchmark>")?;
    let isa = args.parsed_with("isa", parse_isa)?.unwrap_or(Isa::RiscV);
    let limit = args.parsed("limit", "a count")?.unwrap_or(40);
    let bin = assemble(&mibench::build(bench), isa).map_err(|e| e.to_string())?;
    for line in disassemble(isa, bin.entry, &bin.image[..bin.code_len]).iter().take(limit) {
        println!("{line}");
    }
    println!("... ({} B of code total)", bin.code_len);
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let bench = args.positional.get(1).ok_or("usage: marvel campaign <benchmark>")?;
    let isa = args.parsed_with("isa", parse_isa)?.unwrap_or(Isa::RiscV);
    let target_flag = args.value("target").unwrap_or("prf");
    let target = parse_cpu_target(target_flag).map_err(|e| format!("--target: {e}"))?;
    let id = match args.value("campaign-id") {
        Some(id) => id.to_string(),
        None => format!("{bench}-{target_flag}"),
    };
    let mut spec = campaign_spec(args, &id, Workload::cpu(bench, isa)?)?;
    spec.cpu_target = target;
    spec.kind = args.parsed_with("kind", parse_kind)?.unwrap_or(spec.kind);
    spec.seed = args.parsed("seed", "an unsigned integer")?.unwrap_or(spec.seed);
    spec.collect_hvf = args.switch("hvf");
    spec.fast_prep = match args.value("prep").unwrap_or("cycle") {
        "ref" | "fast" => true,
        "cycle" | "o3" => false,
        other => return Err(format!("unknown prep mode '{other}' (ref|cycle)")),
    };
    let journal = args.value("journal").map(Path::new);
    if journal.is_none() && args.switch("resume") {
        return Err("--resume requires --journal <path>".into());
    }
    let (cc, out) = campaign_config(args, "campaign", &spec)?;
    eprintln!(
        "preparing golden run for {bench}/{isa} ({} prep) ...",
        if spec.fast_prep { "reference fast-forward" } else { "cycle-level" }
    );
    let prepared = Prepared::new(&spec, &cc)?;
    eprintln!(
        "golden: {} cycles, injecting {} {:?} faults into {} ...",
        prepared.golden_cycles,
        spec.n_faults,
        spec.kind,
        target.name()
    );
    let Some(res) = drive_campaign(&prepared, &spec, &cc, journal, args.switch("resume"))? else {
        // Interrupted: the journal holds the progress and the resume
        // hint is already printed.
        return Ok(());
    };
    println!("benchmark : {bench} ({isa})");
    println!("target    : {}", target.name());
    println!("faults    : {} ({:?}, seed {:#x})", res.n(), spec.kind, spec.seed);
    println!("AVF       : {:.2}% (±{:.2}% at 95%)", res.avf() * 100.0, res.margin() * 100.0);
    println!("  SDC     : {:.2}%", res.sdc_avf() * 100.0);
    println!("  Crash   : {:.2}%", res.crash_avf() * 100.0);
    if let Some(h) = res.hvf() {
        println!("HVF       : {:.2}%", h * 100.0);
    }
    println!("early-terminated runs: {:.0}%", res.early_termination_rate() * 100.0);
    if cc.convergence_exit {
        println!("convergence exits    : {:.0}%", res.convergence_exit_rate() * 100.0);
    }
    if let Some(p) = &out.metrics {
        write_snapshot(&cc.telemetry.registry.snapshot(), p).map_err(|e| e.to_string())?;
        eprintln!("metrics snapshot written to {}", p.display());
    }
    if let Some(p) = &out.forensics {
        std::fs::remove_file(p).ok();
        let n = dump_forensics(p, &res.records, &format!("{bench}/{}", target.name()))?;
        eprintln!("{n} flight-recorder dumps written to {}", p.display());
        if let Some(r) = res.records.iter().find(|r| r.forensics.is_some()) {
            println!("\nfirst {:?} timeline:", r.effect);
            print!("{}", r.forensics.as_ref().unwrap().render());
        }
    }
    if cc.telemetry.taint {
        let p = path_flag(args, "attribution", "results/campaign_attribution.csv")
            .unwrap_or_else(|| PathBuf::from("results/campaign_attribution.csv"));
        report_attribution(&res.records, &p)?;
    }
    if let Some(dir) = path_flag(args, "trace-pipeline", "results/pipeview") {
        // Trace the first non-masked fault of the campaign (fall back to
        // run 0 when everything was masked) against its fault-free twin.
        let masks = &prepared.masks;
        let idx = res
            .records
            .iter()
            .position(|r| r.effect != FaultEffect::Masked)
            .unwrap_or(0)
            .min(masks.len().saturating_sub(1));
        let golden = prepared.cpu_golden().expect("a CPU campaign has a CPU golden run");
        let (gtrace, ftrace) = trace_pipeline_pair(golden, &masks[idx], &cc);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let gp = dir.join(format!("{bench}_golden.kanata"));
        let fp = dir.join(format!("{bench}_run{idx}_faulty.kanata"));
        std::fs::write(&gp, gtrace).map_err(|e| e.to_string())?;
        std::fs::write(&fp, ftrace).map_err(|e| e.to_string())?;
        eprintln!(
            "pipeline trace pair (run {idx}, {:?}) written to {} and {}",
            res.records[idx].effect,
            gp.display(),
            fp.display()
        );
    }
    report_spans(&cc.telemetry.spans, &out.spans)?;
    Ok(())
}

/// Drive every mask of `prepared` and collect the records in mask order.
/// With a `journal` path, each record is also appended to that file as it
/// lands (the service's journal format, keyed by the spec digest), the
/// runs it already holds are skipped when `resume` is set, and
/// SIGINT/SIGTERM stop the drive: the journal is flushed, a resume hint
/// printed and `None` returned. Per-mask records are deterministic, so a
/// resumed campaign's result is bit-identical to an uninterrupted one.
fn drive_campaign(
    prepared: &Prepared,
    spec: &CampaignSpec,
    cc: &CampaignConfig,
    journal: Option<&Path>,
    resume: bool,
) -> Result<Option<CampaignResult>, String> {
    let n = prepared.masks.len();
    let (journal, slots) = match journal {
        None => (None, (0..n).map(|_| None).collect()),
        Some(path) => {
            // Records do not depend on the worker count, so it stays out
            // of the journal identity: a journal resumes at any --workers.
            let digest = CampaignSpec { workers: 0, ..spec.clone() }.digest();
            let (journal, recovered) = Journal::open(path, &spec.id, &digest, n)?;
            let prior = recovered.iter().filter(|r| r.is_some()).count();
            if prior > 0 && !resume {
                return Err(format!(
                    "journal {} already holds {prior}/{n} runs; pass --resume to continue it \
                     or delete the file to restart",
                    path.display()
                ));
            }
            if prior > 0 {
                eprintln!("resuming from {}: {prior}/{n} runs already journaled", path.display());
            }
            (Some((journal, path)), recovered)
        }
    };
    let skip: Vec<bool> = slots.iter().map(Option::is_some).collect();
    let cancel = journal.is_some().then(install_shutdown_handler);
    let state = Mutex::new((journal, slots));
    let outcome = prepared.drive(cc, &skip, cancel, &|i, rec| {
        let mut g = state.lock().unwrap();
        if let Some((journal, _)) = g.0.as_mut() {
            if let Err(e) = journal.append(i, &rec) {
                eprintln!("journal: {e}");
            }
        }
        g.1[i] = Some(rec);
    });
    let (journal, slots) = state.into_inner().unwrap();
    if let Some((mut journal, path)) = journal {
        journal.flush()?;
        if outcome.cancelled {
            eprintln!(
                "interrupted — {}/{n} runs journaled to {}; re-run with --journal {} --resume to finish",
                journal.done(),
                path.display(),
                path.display()
            );
            return Ok(None);
        }
    }
    let records = slots.into_iter().map(|r| r.expect("every mask driven")).collect();
    Ok(Some(prepared.result(records, cc.confidence)))
}

fn cmd_dsa(args: &Args) -> Result<(), String> {
    let name = args.positional.get(1).ok_or("usage: marvel dsa <design>")?;
    let workload = Workload::dsa(name, None, args.parsed("fus", "a count")?)?;
    let spec = campaign_spec(args, &name.to_lowercase(), workload)?;
    let (cc, out) = campaign_config(args, "dsa", &spec)?;
    let Workload::Dsa { design: name, fus, .. } = &spec.workload else { unreachable!("a DSA workload") };
    let d = find_design(name)?;
    // prepare_spanned splits the cycle-oracle run (GoldenPrep) from the
    // static-schedule build + trace recording (ScheduleBuild).
    let golden =
        DsaGolden::prepare_spanned((d.make)(FuConfig::uniform(*fus)), 100_000_000, &cc.telemetry.spans);
    println!(
        "{name}: {} cycles fault-free, area {:.1} a.u., {} FUs/class, {} engine",
        golden.cycles,
        golden.harness.accel.area(),
        fus,
        match cc.dsa_engine {
            DsaEngine::Event if golden.harness.accel.replay_armed() => "event",
            DsaEngine::Event => "event (fell back to cycle: unschedulable)",
            DsaEngine::Cycle => "cycle",
        }
    );
    if let Some(p) = &out.forensics {
        std::fs::remove_file(p).ok();
    }
    let mut dumps = 0;
    let mut all_records = Vec::new();
    for c in &d.components {
        let res = run_dsa_campaign(&golden, c.target, &cc);
        println!(
            "  {:<10} ({:>6} B {:<8}): AVF {:>5.1}%  (SDC {:>5.1}%, Crash {:>5.1}%)",
            c.name,
            c.bytes,
            c.kind.name(),
            res.avf() * 100.0,
            res.sdc_avf() * 100.0,
            res.crash_avf() * 100.0
        );
        if let Some(p) = &out.forensics {
            dumps += dump_forensics(p, &res.records, &format!("{name}/{}", c.name))?;
        }
        if cc.telemetry.taint {
            all_records.extend(res.records);
        }
    }
    if cc.telemetry.taint {
        let p = path_flag(args, "attribution", "results/dsa_attribution.csv")
            .unwrap_or_else(|| PathBuf::from("results/dsa_attribution.csv"));
        report_attribution(&all_records, &p)?;
    }
    if let Some(p) = &out.metrics {
        write_snapshot(&cc.telemetry.registry.snapshot(), p).map_err(|e| e.to_string())?;
        eprintln!("metrics snapshot written to {}", p.display());
    }
    if let Some(p) = &out.forensics {
        eprintln!("{dumps} flight-recorder dumps written to {}", p.display());
    }
    report_spans(&cc.telemetry.spans, &out.spans)?;
    Ok(())
}

/// `marvel serve` — run the campaign service in the foreground until
/// SIGINT/SIGTERM (or, with `--once`, until every campaign settles).
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    if let Some(root) = args.value("root") {
        cfg.root = PathBuf::from(root);
    }
    if let Some(addr) = args.value("addr") {
        cfg.addr = addr.to_string();
    }
    cfg.workers = args.parsed("workers", "a count")?.unwrap_or(cfg.workers);
    cfg.shard = args.parsed("shard", "a count")?.unwrap_or(cfg.shard);
    if cfg.shard == 0 {
        return Err("--shard must be at least 1".into());
    }
    cfg.once = args.switch("once");
    serve(cfg)
}

fn service_root(args: &Args) -> PathBuf {
    PathBuf::from(args.value("root").unwrap_or("results"))
}

/// `marvel submit <spec.json>` — validate a spec locally, then hand it to
/// the running service over TCP (or drop it into the spool with
/// `--spool` when the service isn't reachable yet).
fn cmd_submit(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("usage: marvel submit <spec.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // Validate locally first so a typo'd spec fails with a real parse
    // error rather than a one-line service rejection.
    let spec = CampaignSpec::parse(text.trim())?;
    let root = service_root(args);
    if args.switch("spool") {
        let spooled = gem5_marvel::serve::spool_spec(&root, &spec)?;
        println!("spooled {} for pickup at {}", spec.id, spooled.display());
        return Ok(());
    }
    let addr = read_addr_file(&root)?;
    let reply = request(&addr, &format!("SUBMIT {}", spec.render()))?;
    println!("{reply}");
    if reply.contains("\"ok\":false") {
        return Err(format!("service rejected spec '{}'", spec.id));
    }
    Ok(())
}

/// `marvel status [id]` — one-shot status query against the service.
fn cmd_status(args: &Args) -> Result<(), String> {
    let root = service_root(args);
    let addr = read_addr_file(&root)?;
    let line = match args.positional.get(1) {
        Some(id) => format!("STATUS {id}"),
        None => "STATUS".to_string(),
    };
    println!("{}", request(&addr, &line)?);
    Ok(())
}

/// `marvel watch <id>` — stream live progress lines until the campaign
/// settles (the service closes the stream with a final status line).
fn cmd_watch(args: &Args) -> Result<(), String> {
    let id = args.positional.get(1).ok_or("usage: marvel watch <campaign-id>")?;
    let root = service_root(args);
    let addr = read_addr_file(&root)?;
    watch(&addr, id, |line| {
        println!("{line}");
        true
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map_or("help", String::as_str);
    let Some(flags) = command_flags(cmd) else {
        eprintln!(
            "marvel — microarchitecture-level fault injection\n\n\
             usage:\n  marvel list\n  marvel run <benchmark> [--isa arm|x86|riscv] [--lockstep]\n  \
             marvel disasm <benchmark> [--isa ...] [--limit N]\n  \
             marvel campaign <benchmark> [--isa ...] [--target prf|l1i|l1d|l2|lq|sq|rob|rename]\n            \
             [--faults N] [--kind transient|permanent] [--hvf] [--seed S] [--prep ref|cycle]\n            \
             [--ladder-rungs N] [--convergence-exit]\n            \
             [--workers N] [--metrics [path]] [--forensics [path]] [--progress [ms]]\n            \
             [--taint] [--attribution [path]] [--trace-pipeline [dir]]\n            \
             [--trace-spans [path]] [--phase-report]\n  \
             marvel dsa <design> [--faults N] [--fus N]\n            \
             [--ladder-rungs N] [--convergence-exit] [--workers N]\n            \
             [--metrics [path]] [--forensics [path]] [--progress [ms]]\n            \
             [--taint] [--attribution [path]] [--trace-spans [path]] [--phase-report]\n  \
             marvel campaign ... [--journal path [--resume]] [--campaign-id id]\n  \
             marvel serve [--root dir] [--addr host:port] [--workers N] [--shard N] [--once]\n  \
             marvel submit <spec.json> [--root dir] [--spool]\n  \
             marvel status [campaign-id] [--root dir]\n  \
             marvel watch <campaign-id> [--root dir]"
        );
        return ExitCode::from(2);
    };
    let r = parse_args(&argv, &flags).and_then(|args| match cmd {
        "list" => cmd_list(),
        "run" => cmd_run(&args),
        "disasm" => cmd_disasm(&args),
        "campaign" => cmd_campaign(&args),
        "dsa" => cmd_dsa(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "status" => cmd_status(&args),
        "watch" => cmd_watch(&args),
        _ => unreachable!("command_flags knows every command"),
    });
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
