//! `marvel` — command-line driver for the fault-injection framework.
//!
//! ```text
//! marvel list
//! marvel run <benchmark> [--isa arm|x86|riscv] [--lockstep]
//!                 [--trace-spans [path]] [--phase-report]
//! marvel disasm <benchmark> [--isa ...] [--limit N]
//! marvel campaign <benchmark> [--isa ...] [--target prf|l1i|l1d|l2|lq|sq|rob|rename]
//!                 [--faults N] [--kind transient|permanent] [--hvf] [--seed S]
//!                 [--prep ref|cycle] [--reset-mode clone|dirty]
//!                 [--ladder-rungs N] [--convergence-exit] [--lane-width N]
//!                 [--workers N] [--metrics [path]] [--forensics [path]] [--progress [ms]]
//!                 [--taint] [--attribution [path]] [--trace-pipeline [dir]]
//!                 [--trace-spans [path]] [--phase-report]
//! marvel dsa <design> [--faults N] [--fus N] [--reset-mode clone|dirty]
//!                 [--dsa-engine cycle|event]
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
//! `--reset-mode` selects how each injection run gets its starting state:
//! `dirty` (default) reuses one system per worker and undoes journaled
//! dirty state against the shared checkpoint; `clone` deep-clones the
//! checkpoint per run (the original path, kept as an oracle — both modes
//! produce bit-identical reports).
//! `--dsa-engine` (default `event`) picks the accelerator drive engine:
//! `event` precomputes the static CDFG schedule at golden prep and jumps
//! between node-fire events, replaying memoized golden values for
//! untainted nodes; `cycle` is the original tick-every-cycle oracle.
//! Both engines produce bit-identical campaign reports — designs the
//! schedule builder rejects fall back to `cycle` automatically.
//! `--ladder-rungs` (default 8) snapshots the fault-free run at N evenly
//! spaced cycles; each injection run then restores the nearest rung below
//! its injection cycle instead of re-simulating the fault-free prefix.
//! `--convergence-exit` additionally diffs each run's journaled dirty
//! state against the golden rung at every crossing and declares the fault
//! Masked the moment all of it has converged. Both are pure optimisations:
//! reports stay bit-identical to `--ladder-rungs 0` (the full-run oracle).
//! `--lane-width` (default 64) packs up to N single-bit transients on the
//! same structure into bit-plane lanes of one shared golden execution,
//! forking a lane out to an ordinary scalar run the moment it diverges;
//! 0 (or 1) disables packing and restores the scalar oracle. Pure
//! optimisation: records stay byte-identical at every width.
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
    attribution_by_structure, attribution_csv, attribution_jsonl, build_campaign_ladder, campaign_masks,
    drive_masks, render_attribution, run_campaign, run_dsa_campaign, trace_pipeline_pair,
    CampaignConfig, CampaignResult, DsaEngine, DsaGolden, FaultEffect, FaultKind, Golden, ResetMode,
    RunRecord, TelemetryConfig,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::{disassemble, Isa};
use gem5_marvel::serve::spec::parse_cpu_target;
use gem5_marvel::serve::{
    install_shutdown_handler, read_addr_file, request, serve, watch, CampaignSpec, Journal, ServeConfig,
    Workload,
};
use gem5_marvel::soc::{RunOutcome, System, Target};
use gem5_marvel::telemetry::{
    append_jsonl_line, json_string, render_chrome_trace, render_phase_table, write_snapshot, PhaseId,
    Registry, SpanCollector,
};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut switches = std::collections::HashSet::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(name) = a.strip_prefix("--") {
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                flags.insert(name.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                switches.insert(name.to_string());
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Args { positional, flags, switches }
}

fn parse_isa(s: &str) -> Result<Isa, String> {
    match s.to_lowercase().as_str() {
        "arm" => Ok(Isa::Arm),
        "x86" => Ok(Isa::X86),
        "riscv" | "risc-v" | "rv" => Ok(Isa::RiscV),
        other => Err(format!("unknown ISA '{other}' (arm|x86|riscv)")),
    }
}

/// Parse `--reset-mode clone|dirty` (default: dirty, the zero-copy path;
/// `clone` keeps the original deep-clone-per-run oracle selectable).
fn parse_reset_mode(args: &Args) -> Result<ResetMode, String> {
    match args.flags.get("reset-mode") {
        None => Ok(ResetMode::default()),
        Some(v) => ResetMode::parse(v).ok_or_else(|| format!("unknown reset mode '{v}' (clone|dirty)")),
    }
}

/// Parse `--lane-width N` (default 64: pack up to 64 single-bit
/// transients per lane pass; 0 or 1 restores the scalar oracle; widths
/// above 64 are clamped by the engine).
fn parse_lane_width(args: &Args) -> Result<usize, String> {
    match args.flags.get("lane-width") {
        None => Ok(CampaignConfig::default().lane_width),
        Some(v) => v.parse().map_err(|_| format!("bad --lane-width '{v}' (want 0..=64)")),
    }
}

/// Resolve `--<name> <path>` (explicit path) or bare `--<name>` (default
/// path under `results/`).
fn path_flag(args: &Args, name: &str, default: &str) -> Option<PathBuf> {
    if let Some(v) = args.flags.get(name) {
        Some(PathBuf::from(v))
    } else if args.switches.contains(name) {
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

/// Fault count of `marvel campaign` / `marvel dsa` without `--faults`.
const DEFAULT_FAULTS: usize = 100;

/// Where a campaign command writes its exports once the campaign is done.
struct Outputs {
    metrics: Option<PathBuf>,
    forensics: Option<PathBuf>,
    spans: SpanOutputs,
}

/// The config `marvel campaign` and `marvel dsa` share: `--faults`,
/// `--reset-mode`, `--ladder-rungs` (0 = the full-prefix oracle),
/// `--convergence-exit`, `--workers` and the telemetry flags
/// (`--metrics`, `--forensics`, `--progress [ms]`, `--taint`,
/// `--trace-spans`, `--phase-report`; default paths
/// `results/<cmd>_*`), over `CampaignConfig::default()`. Each command
/// sets its own flags on top.
fn campaign_config(args: &Args, cmd: &str) -> Result<(CampaignConfig, Outputs), String> {
    let defaults = CampaignConfig::default();
    let count = |flag: &str, default: usize| match args.flags.get(flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{flag} '{v}' (want a count)")),
    };
    let out = Outputs {
        metrics: path_flag(args, "metrics", &format!("results/{cmd}_metrics.jsonl")),
        forensics: path_flag(args, "forensics", &format!("results/{cmd}_forensics.jsonl")),
        spans: SpanOutputs {
            trace: path_flag(args, "trace-spans", &format!("results/{cmd}_trace.json")),
            report: args.switches.contains("phase-report"),
        },
    };
    let progress_interval_ms = if args.switches.contains("progress") {
        500
    } else {
        args.flags.get("progress").and_then(|v| v.parse().ok()).unwrap_or(0)
    };
    let taint = args.switches.contains("taint") || args.flags.contains_key("taint");
    let telemetry = TelemetryConfig {
        registry: if out.metrics.is_some() { Registry::new() } else { Registry::disabled() },
        progress_interval_ms,
        // Taint timelines ride the flight recorder, so --taint implies it.
        flight_capacity: if out.forensics.is_some() || taint { 64 } else { 0 },
        taint,
        spans: if out.spans.trace.is_some() || out.spans.report {
            SpanCollector::enabled()
        } else {
            SpanCollector::disabled()
        },
    };
    let cc = CampaignConfig {
        n_faults: args
            .flags
            .get("faults")
            .map_or(DEFAULT_FAULTS, |v| v.parse().unwrap_or(DEFAULT_FAULTS)),
        workers: count("workers", defaults.workers)?,
        reset_mode: parse_reset_mode(args)?,
        ladder_rungs: count("ladder-rungs", defaults.ladder_rungs)?,
        convergence_exit: args.switches.contains("convergence-exit"),
        telemetry,
        ..defaults
    };
    Ok((cc, out))
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

fn golden_for(bench: &str, isa: Isa, fast: bool) -> Result<Golden, String> {
    if !mibench::NAMES.contains(&bench) {
        return Err(format!("unknown benchmark '{bench}' (try `marvel list`)"));
    }
    let bin = assemble(&mibench::build(bench), isa).map_err(|e| e.to_string())?;
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    if fast {
        Golden::prepare_fast(sys, 200_000_000).map_err(|e| e.to_string())
    } else {
        Golden::prepare(sys, 200_000_000).map_err(|e| e.to_string())
    }
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
    let isa = parse_isa(args.flags.get("isa").map(String::as_str).unwrap_or("riscv"))?;
    let bin = assemble(&mibench::build(bench), isa).map_err(|e| e.to_string())?;
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    let lockstep = args.switches.contains("lockstep");
    if lockstep {
        sys.enable_lockstep();
    }
    let spans_out = SpanOutputs {
        trace: path_flag(args, "trace-spans", "results/run_trace.json"),
        report: args.switches.contains("phase-report"),
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
    let isa = parse_isa(args.flags.get("isa").map(String::as_str).unwrap_or("riscv"))?;
    let limit: usize = args.flags.get("limit").map(|v| v.parse().unwrap_or(40)).unwrap_or(40);
    let bin = assemble(&mibench::build(bench), isa).map_err(|e| e.to_string())?;
    for line in disassemble(isa, bin.entry, &bin.image[..bin.code_len]).iter().take(limit) {
        println!("{line}");
    }
    println!("... ({} B of code total)", bin.code_len);
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let bench = args.positional.get(1).ok_or("usage: marvel campaign <benchmark>")?;
    let isa = parse_isa(args.flags.get("isa").map(String::as_str).unwrap_or("riscv"))?;
    let target = parse_cpu_target(&args.flags.get("target").map_or("prf".into(), |t| t.to_lowercase()))?;
    let fast_prep = match args.flags.get("prep").map(String::as_str).unwrap_or("cycle") {
        "ref" | "fast" => true,
        "cycle" | "o3" => false,
        other => return Err(format!("unknown prep mode '{other}' (ref|cycle)")),
    };
    let (mut cc, out) = campaign_config(args, "campaign")?;
    cc.kind = match args.flags.get("kind").map(String::as_str).unwrap_or("transient") {
        "permanent" => FaultKind::Permanent,
        _ => FaultKind::Transient,
    };
    cc.seed = args.flags.get("seed").map_or(cc.seed, |v| v.parse().unwrap_or(cc.seed));
    cc.collect_hvf = args.switches.contains("hvf");
    cc.lane_width = parse_lane_width(args)?;
    let (n_faults, kind, seed) = (cc.n_faults, cc.kind, cc.seed);
    eprintln!(
        "preparing golden run for {bench}/{isa} ({} prep) ...",
        if fast_prep { "reference fast-forward" } else { "cycle-level" }
    );
    let golden = cc.telemetry.spans.time(PhaseId::GoldenPrep, || golden_for(bench, isa, fast_prep))?;
    golden.publish_metrics(&cc.telemetry.registry);
    eprintln!(
        "golden: {} cycles, injecting {} {:?} faults into {} ...",
        golden.exec_cycles,
        n_faults,
        kind,
        target.name()
    );
    let res = match args.flags.get("journal").map(PathBuf::from) {
        Some(jpath) => {
            // Journal identity = the service's spec digest, so a CLI
            // journal and a service journal are interchangeable.
            let spec = CampaignSpec {
                id: args.flags.get("campaign-id").cloned().unwrap_or_else(|| {
                    format!("{bench}-{}", args.flags.get("target").map(String::as_str).unwrap_or("prf"))
                }),
                workload: Workload::Cpu { bench: bench.clone(), isa },
                cpu_target: target,
                n_faults,
                kind,
                seed,
                // Records do not depend on the worker count, so it stays
                // out of the journal identity: a journal resumes at any
                // --workers.
                workers: 0,
                reset_mode: cc.reset_mode,
                ladder_rungs: cc.ladder_rungs,
                convergence_exit: cc.convergence_exit,
                collect_hvf: cc.collect_hvf,
                taint: cc.telemetry.taint,
                fast_prep,
            };
            let resume = args.switches.contains("resume");
            match run_campaign_journaled(&golden, target, &cc, &spec, &jpath, resume)? {
                Some(res) => res,
                // Interrupted: the journal holds the progress and the
                // resume hint is already printed.
                None => return Ok(()),
            }
        }
        None => {
            if args.switches.contains("resume") {
                return Err("--resume requires --journal <path>".into());
            }
            run_campaign(&golden, target, &cc)
        }
    };
    println!("benchmark : {bench} ({isa})");
    println!("target    : {}", target.name());
    println!("faults    : {} ({kind:?}, seed {seed:#x})", res.n());
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
        let masks = campaign_masks(&golden, target, &cc);
        let idx = res
            .records
            .iter()
            .position(|r| r.effect != FaultEffect::Masked)
            .unwrap_or(0)
            .min(masks.len().saturating_sub(1));
        let (gtrace, ftrace) = trace_pipeline_pair(&golden, &masks[idx], &cc);
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

/// The `--journal` campaign path: drive the same masks through the same
/// engine, but journal every record as it lands (service journal format)
/// and honour SIGINT/SIGTERM by flushing and printing a resume hint.
/// Returns `None` when interrupted, `Some(result)` when complete — and
/// because per-mask records are deterministic, a resumed campaign's
/// result is bit-identical to an uninterrupted one.
fn run_campaign_journaled(
    golden: &Golden,
    target: Target,
    cc: &CampaignConfig,
    spec: &CampaignSpec,
    path: &Path,
    resume: bool,
) -> Result<Option<CampaignResult>, String> {
    let (journal, recovered) = Journal::open(path, &spec.id, &spec.digest(), cc.n_faults)?;
    let prior = recovered.iter().filter(|r| r.is_some()).count();
    if prior > 0 && !resume {
        return Err(format!(
            "journal {} already holds {prior}/{} runs; pass --resume to continue it \
             or delete the file to restart",
            path.display(),
            cc.n_faults
        ));
    }
    if prior > 0 {
        eprintln!("resuming from {}: {prior}/{} runs already journaled", path.display(), cc.n_faults);
    }
    let ladder = build_campaign_ladder(golden, cc);
    let masks = campaign_masks(golden, target, cc);
    let bit_len = golden.ckpt.bit_len(target);
    let population = bit_len.saturating_mul(golden.exec_cycles.max(1));
    let reg = &cc.telemetry.registry;
    reg.publish("campaign.bit_population", bit_len);
    reg.publish("campaign.golden_exec_cycles", golden.exec_cycles);
    let skip: Vec<bool> = recovered.iter().map(|r| r.is_some()).collect();
    let state = Mutex::new((journal, recovered));
    let cancel = install_shutdown_handler();
    let outcome =
        drive_masks(golden, ladder.as_ref(), &masks, cc, population, &skip, Some(cancel), &|i, rec| {
            let mut g = state.lock().unwrap();
            if let Err(e) = g.0.append(i, &rec) {
                eprintln!("journal: {e}");
            }
            g.1[i] = Some(rec);
        });
    let (mut journal, recovered) = state.into_inner().unwrap();
    journal.flush()?;
    if outcome.cancelled {
        eprintln!(
            "interrupted — {}/{} runs journaled to {}; re-run with --journal {} --resume to finish",
            journal.done(),
            cc.n_faults,
            path.display(),
            path.display()
        );
        return Ok(None);
    }
    let records: Vec<RunRecord> = recovered.into_iter().map(|r| r.expect("complete journal")).collect();
    Ok(Some(CampaignResult {
        target,
        records,
        bit_population: bit_len,
        golden_exec_cycles: golden.exec_cycles,
        confidence: cc.confidence,
    }))
}

fn cmd_dsa(args: &Args) -> Result<(), String> {
    let name = args.positional.get(1).ok_or("usage: marvel dsa <design>")?.to_uppercase();
    let fus: usize = args.flags.get("fus").map(|v| v.parse().unwrap_or(4)).unwrap_or(4);
    let d = accel::designs()
        .into_iter()
        .find(|d| d.name == name)
        .ok_or_else(|| format!("unknown design '{name}' (try `marvel list`)"))?;
    let (mut cc, out) = campaign_config(args, "dsa")?;
    if let Some(s) = args.flags.get("dsa-engine") {
        cc.dsa_engine =
            DsaEngine::parse(s).ok_or_else(|| format!("unknown --dsa-engine '{s}' (cycle|event)"))?;
    }
    // prepare_spanned splits the cycle-oracle run (GoldenPrep) from the
    // static-schedule build + trace recording (ScheduleBuild).
    let golden =
        DsaGolden::prepare_spanned((d.make)(FuConfig::uniform(fus)), 100_000_000, &cc.telemetry.spans);
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
    if let Some(root) = args.flags.get("root") {
        cfg.root = PathBuf::from(root);
    }
    if let Some(addr) = args.flags.get("addr") {
        cfg.addr = addr.clone();
    }
    if let Some(w) = args.flags.get("workers") {
        cfg.workers = w.parse().map_err(|_| format!("bad --workers '{w}'"))?;
    }
    if let Some(s) = args.flags.get("shard") {
        cfg.shard = s.parse().map_err(|_| format!("bad --shard '{s}'"))?;
        if cfg.shard == 0 {
            return Err("--shard must be at least 1".into());
        }
    }
    cfg.once = args.switches.contains("once");
    serve(cfg)
}

fn service_root(args: &Args) -> PathBuf {
    args.flags.get("root").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("results"))
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
    if args.switches.contains("spool") {
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
    let args = parse_args(&argv);
    let cmd = args.positional.first().map(String::as_str).unwrap_or("help");
    let r = match cmd {
        "list" => cmd_list(),
        "run" => cmd_run(&args),
        "disasm" => cmd_disasm(&args),
        "campaign" => cmd_campaign(&args),
        "dsa" => cmd_dsa(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "status" => cmd_status(&args),
        "watch" => cmd_watch(&args),
        _ => {
            eprintln!(
                "marvel — microarchitecture-level fault injection\n\n\
                 usage:\n  marvel list\n  marvel run <benchmark> [--isa arm|x86|riscv] [--lockstep]\n  \
                 marvel disasm <benchmark> [--isa ...] [--limit N]\n  \
                 marvel campaign <benchmark> [--isa ...] [--target prf|l1i|l1d|l2|lq|sq|rob|rename]\n            \
                 [--faults N] [--kind transient|permanent] [--hvf] [--seed S] [--prep ref|cycle]\n            \
                 [--reset-mode clone|dirty] [--ladder-rungs N] [--convergence-exit] [--lane-width N]\n            \
                 [--workers N] [--metrics [path]] [--forensics [path]] [--progress [ms]]\n            \
                 [--taint] [--attribution [path]] [--trace-pipeline [dir]]\n            \
                 [--trace-spans [path]] [--phase-report]\n  \
                 marvel dsa <design> [--faults N] [--fus N] [--reset-mode clone|dirty]\n            \
                 [--dsa-engine cycle|event] [--ladder-rungs N] [--convergence-exit] [--workers N]\n            \
                 [--metrics [path]] [--forensics [path]] [--progress [ms]]\n            \
                 [--taint] [--attribution [path]] [--trace-spans [path]] [--phase-report]\n  \
                 marvel campaign ... [--journal path [--resume]] [--campaign-id id]\n  \
                 marvel serve [--root dir] [--addr host:port] [--workers N] [--shard N] [--once]\n  \
                 marvel submit <spec.json> [--root dir] [--spool]\n  \
                 marvel status [campaign-id] [--root dir]\n  \
                 marvel watch <campaign-id> [--root dir]"
            );
            return ExitCode::from(2);
        }
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
