//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's campaigns back to back, pass after pass, for about
//! `--seconds` of measured time, audits a seed-chosen sample of every
//! campaign of the first pass against the oracle configuration, and
//! prints the metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). Any
//! failed run makes the exit code non-zero.
//!
//! `--workload all` runs every workload untraced and traced, each in a
//! child process of its own, and writes the combined report with its
//! host stamp to `perfbench/out/report.json`.

use marvel_perfbench::{
    end_to_end, per_layer, run_pass, spans::SpanLog, workloads, Metric, PassOptions, PassResult,
};
use marvel_serve::json::{parse, Json};
use marvel_telemetry::json_string;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <cpu_transient|dsa_table4|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Worker threads per campaign: the two vCPUs of the reference host.
const WORKERS: usize = 2;
/// Seed-chosen runs per campaign re-run on the oracle configuration.
const AUDIT_RUNS: usize = 1;
/// Passes a run makes at least: two untraced, or one untraced/traced
/// pair when tracing. Each pass repeats every campaign's setup, so the
/// setup time is always a median of at least two.
const MIN_PASSES: usize = 2;
/// Stop starting passes after this much measured time, whatever
/// `--seconds` says, so a run ends well inside three minutes.
const MAX_MEASURED_S: f64 = 120.0;
/// Where runs leave their reports and traces.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace {
        None if workload == "all" => false,
        None => return Err("missing --trace".into()),
        Some(0) => false,
        Some(1) => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed: seed.ok_or("missing --seed")?, seconds, trace })
}

/// Sub-seed of the pass with index `k`: pass 0 runs `seed` itself.
fn pass_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and run stamp, as a JSON object.
fn stamp(args: &Args, config: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a repository root names a revision:
    // git would otherwise report whatever repository encloses it.
    let git = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let faults: Vec<String> = workloads::campaigns(&args.workload, None)
        .unwrap_or_default()
        .iter()
        .map(|d| format!("{}={}", d.label, d.faults))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"workers\":{WORKERS},\"audit_runs_per_campaign\":{AUDIT_RUNS},\"faults\":{},\"config\":{}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&git),
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_string(&faults.join(" ")),
        json_string(config)
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", parts.join(","))
}

fn write_out(name: &str, body: &str) {
    let path = format!("{OUT_DIR}/{name}");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let n_campaigns = workloads::campaigns(&args.workload, None).map_or(0, |c| c.len());
    let mut log = SpanLog::default();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut measured = 0.0;
    let budget = args.seconds as f64;
    loop {
        let k = passes.len();
        // Traced runs alternate untraced and traced passes; each pair
        // shares a seed, so the pair must agree record for record.
        let traced = args.trace && k % 2 == 1;
        let seed = pass_seed(args.seed, if args.trace { k / 2 } else { k });
        let opts = PassOptions {
            workers: WORKERS,
            faults: None,
            traced,
            audit_runs: if k == 0 { AUDIT_RUNS } else { 0 },
        };
        log.set_recording(traced);
        let p = run_pass(&args.workload, seed, &opts, &mut log, k * n_campaigns)?;
        eprintln!(
            "pass {k}{}: setup {:.3} s, drive {:.3} s, {} runs, {:.3} runs/s",
            if traced { " (traced)" } else { "" },
            p.setup.setup_s,
            p.drive_s,
            p.runs,
            p.runs as f64 / p.drive_s
        );
        measured += p.wall_s();
        passes.push(p);
        // Stop before the next pass (or untraced/traced pair) would
        // overrun the budget.
        let n = passes.len();
        let step = if args.trace { 2 } else { 1 };
        let next = step as f64 * measured / n as f64;
        if n.is_multiple_of(step)
            && n >= MIN_PASSES
            && (measured + next > budget || measured > MAX_MEASURED_S)
        {
            break;
        }
    }
    let peak = peak_rss_mib();

    let attempted: u64 = passes.iter().map(|p| p.runs).sum();
    let mut failed: u64 = passes.iter().map(|p| p.audit.failed() as u64).sum();
    if args.trace {
        for pair in passes.chunks(2) {
            if pair[0].fingerprint != pair[1].fingerprint {
                eprintln!(
                    "perfbench: a traced pass's records differ from the untraced pass with its seed"
                );
                failed += pair[1].runs;
            }
        }
    }
    let correct = failed == 0;
    let (untraced, traced): (Vec<&PassResult>, Vec<&PassResult>) =
        passes.iter().partition(|p| p.phases.is_none());
    let metrics = if args.trace { per_layer(&traced, &untraced) } else { end_to_end(&untraced, peak) };

    let first = &passes[0];
    let f = &first.fingerprint;
    let audit_checked = first.audit.checked;
    let stamp = stamp(args, &first.config);
    println!(
        "workload {} seed {} trace {}: {} passes, {:.2} s measured",
        args.workload,
        args.seed,
        args.trace as u8,
        passes.len(),
        measured
    );
    println!("stamp {stamp}");
    println!(
        "note: the model is unvalidated against gem5 (the repository holds no reference results, so no error \
         figure); modelled caches start warm at each program's checkpoint marker"
    );
    println!(
        "fingerprint (pass 0, seed {}): golden_cycles={} runs={} masked={} sdc={} crash={} early_terminated={} digest={}",
        args.seed,
        f.golden_cycles,
        f.runs,
        f.masked,
        f.sdc,
        f.crash,
        f.early_terminated,
        f.digest_hex()
    );
    println!("audit: {audit_checked} runs re-run on the oracle configuration, {failed} failed of {attempted} attempted");
    for (name, unit, v) in &metrics {
        println!("{name:<30} {v:>14.6} {unit}");
    }
    if !args.trace {
        println!("{:<30} {:>14.6} ratio", "fail_frac", failed as f64 / attempted.max(1) as f64);
    }
    let metrics = metrics_json(&metrics);
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, args.trace as u8);
    write_out(
        &format!("{tag}.json"),
        &format!(
            "{{\"stamp\":{stamp},\"fingerprint\":{{\"golden_cycles\":{},\"runs\":{},\"masked\":{},\"sdc\":{},\"crash\":{},\
             \"early_terminated\":{},\"digest\":\"{}\"}},\"passes\":{},\"correct\":{correct},\"attempted\":{attempted},\
             \"failed\":{failed},\"metrics\":{metrics}}}\n",
            f.golden_cycles,
            f.runs,
            f.masked,
            f.sdc,
            f.crash,
            f.early_terminated,
            f.digest_hex(),
            passes.len()
        ),
    );
    if args.trace {
        write_out(&format!("{tag}-spans.json"), &log.render_chrome());
        let tables: Vec<String> = traced
            .iter()
            .enumerate()
            .map(|(i, p)| {
                format!(
                    "traced pass {i}\n{}",
                    marvel_telemetry::render_phase_table(p.phases.as_ref().expect("traced"))
                )
            })
            .collect();
        write_out(&format!("{tag}-phases.txt"), &tables.join("\n"));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    );
    Ok(correct)
}

/// Run every workload untraced and traced, each in its own process (so
/// each peak RSS is its own), and write the combined report. The last
/// line totals the runs; the metrics are in the lines before it and in
/// the report.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    for w in workloads::WORKLOADS {
        for trace in ["0", "1"] {
            let seed = args.seed.to_string();
            let seconds = args.seconds.to_string();
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed, "--seconds", &seconds, "--trace", trace])
                .output()
                .map_err(|e| format!("could not run {w}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            let last = text.lines().last().unwrap_or_default();
            let result = match parse(last) {
                Ok(v) => {
                    attempted += v.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                    failed += v.get("failed").and_then(Json::as_u64).unwrap_or(0);
                    last
                }
                Err(_) => {
                    ok = false;
                    "null"
                }
            };
            lines.push(format!("{{\"workload\":\"{w}\",\"trace\":{trace},\"result\":{result}}}"));
        }
    }
    let report = format!(
        "{{\"stamp\":{},\"runs\":[{}]}}\n",
        stamp(args, "see per-workload stamps"),
        lines.join(",\n")
    );
    write_out("report.json", &report);
    println!("{{\"correct\":{ok},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{}}}}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" { run_all(&args) } else { run_workload(&args) };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
