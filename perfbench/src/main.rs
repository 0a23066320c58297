//! The repository's benchmark: host packets/sec of the simulator on three
//! traffic mixes, and (with `--trace 1`) a per-layer cost ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mra-light --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md for the workloads,
//! the metrics and the layer → metric → workload table.

mod gate;
mod host;
mod ledger;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use packetbench::WorkloadConfig;

use crate::gate::{Digest, Tally};
use crate::host::Host;
use crate::stats::{median, quantile};
use crate::workload::{Inputs, Mode, SetupSamples, Workload};

/// A seed kept out of every tuning run, so that a later claim can be
/// checked on inputs nobody tuned against.
pub const HELD_OUT_SEED: u64 = 90_417;

/// Set-ups a run measures at least; `setup_s` is their median. One
/// set-up runs per timed round, so the samples span the whole run.
pub const SETUP_REPS: usize = 31;

/// Child processes whose peak memory `peak_rss_mb` is the median of.
const RSS_PROBES: usize = 5;

/// Timed rounds a run makes at least, however long they take.
const MIN_ROUNDS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as the peak-memory probe (see `probe_peak_rss`).
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut rss_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                }
            }
            "--rss-probe" => rss_probe = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        rss_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.rss_probe {
        rss_probe_child(&args).map(|()| true)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Where the benchmark package lives; scratch files go under `out/`.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Peak resident memory of the workload, in KiB: the median over
/// [`RSS_PROBES`] fresh child processes, each making one call per (app,
/// mode) on inputs from its own seed derived from `--seed`, and exiting.
/// A fresh process sees the footprint a `pb` user sees, free of what the
/// timed loop's many calls leave in the allocator; several seeds average
/// out how much the packet sizes of one trace move it.
fn probe_peak_rss(args: &Args) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("peak RSS probe: {e}"))?;
    let mut samples = Vec::with_capacity(RSS_PROBES);
    for k in 0..RSS_PROBES as u64 {
        let seed = args
            .seed
            .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let output = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.workload.name,
                "--seed",
                &seed.to_string(),
            ])
            .args(["--rss-probe", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("peak RSS probe: {e}"))?;
        if !output.status.success() {
            return Err(format!("peak RSS probe failed: {}", output.status));
        }
        let kb: u64 = String::from_utf8_lossy(&output.stdout)
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("peak_rss_kb "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("peak RSS probe printed no result")?;
        samples.push(kb as f64);
    }
    Ok(median(&samples) as u64)
}

/// The child side of [`probe_peak_rss`].
fn rss_probe_child(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let out = bench_dir().join("out");
    let config = WorkloadConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Modes that read the pcap file need no packets in memory.
    let keep = w.modes.contains(&Mode::Batch);
    let inputs = Inputs::generate(w, args.seed, &out, keep).map_err(|e| format!("inputs: {e}"))?;
    for &app in w.apps {
        for &d in w.modes {
            let c = workload::call(&w.engine(app, &config), d, &inputs, w.threads(d, cores));
            c.digest?;
        }
    }
    let kb = npstream::peak_rss_kb().ok_or("no peak RSS on this platform")?;
    println!("peak_rss_kb {kb}");
    Ok(())
}

/// Runs the workload; `Ok(false)` when the correctness gate failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let dir = bench_dir();
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let root = dir
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let host = Host::probe(&root);
    let cores = host.cores();
    println!("# {}", host.describe());
    println!(
        "# workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let config = WorkloadConfig::default();

    let mut setup = SetupSamples::new(w);
    setup.rep(&config)?;

    let inputs = Inputs::generate(w, args.seed, &out, true).map_err(|e| format!("inputs: {e}"))?;

    // Untimed reference pass with golden-model checks on.
    let mut references = Vec::with_capacity(w.apps.len());
    for &app in w.apps {
        let threads = w.threads(w.modes[0], cores);
        let digest = gate::reference(app, &config, &inputs.packets, threads)
            .map_err(|e| format!("{}: reference pass failed: {e}", app.slug()))?;
        println!("# reference {}: {}", app.slug(), digest.summary());
        references.push(digest);
    }
    if w.memo == packetbench::MemoMode::On {
        for (&app, reference) in w.apps.iter().zip(&references) {
            if let Err(e) = gate::memo_fault_self_test(app, &config, &inputs.packets, reference) {
                println!("# gate self-test FAILED: {e}");
                print_result(false, 1, 1, &[]);
                return Ok(false);
            }
        }
        println!("# gate self-test: corrupted memo entries tripped the digest check");
    }

    if args.trace {
        let report = ledger::run(w, &config, &inputs, cores, &references, &mut setup, args)?;
        let correct = report.failed == 0;
        print_result(correct, report.attempted, report.failed, &report.metrics);
        return Ok(correct);
    }

    let e2e = end_to_end(
        w,
        &config,
        &inputs,
        cores,
        &references,
        &mut setup,
        args.seconds,
    )?;
    let setup_s = setup.total_s();
    let peak_rss_mb = probe_peak_rss(args)? as f64 / 1024.0;
    let fail_ratio = e2e.failed as f64 / e2e.attempted.max(1) as f64;
    let insts: u64 = references
        .iter()
        .map(|d| d.aggregate.total_instructions())
        .sum();
    let packets: u64 = references.iter().map(Digest::packets).sum();
    println!("# property shares:");
    println!(
        "#   instructions per packet:        {:.1}",
        insts as f64 / packets as f64
    );
    println!("#   packets served by the memo:     {:.4}", e2e.memo_served);
    println!(
        "#   worker load imbalance:          {:.4} (busiest worker over mean, minus 1)",
        e2e.imbalance
    );
    println!("#   fixed-cost share of packet time: see --trace 1 (workload.fixed_cost_share)");
    println!("# end-to-end ({} timed rounds):", e2e.rounds);
    println!(
        "#   pps          {:.1} packets/s (quartiles of rounds {:.1} .. {:.1})",
        e2e.pps, e2e.pps_q1, e2e.pps_q3
    );
    println!(
        "#   setup_s      {setup_s:.6} s (median of {} set-ups)",
        setup.reps()
    );
    println!("#   peak_rss_mb  {peak_rss_mb:.2} MiB (median of {RSS_PROBES} fresh processes)");
    println!(
        "#   fail_ratio   {fail_ratio} fraction ({} of {} packets)",
        e2e.failed, e2e.attempted
    );
    let correct = e2e.failed == 0;
    print_result(
        correct,
        e2e.attempted,
        e2e.failed,
        &[
            ("pps", e2e.pps, "packets/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    );
    Ok(correct)
}

struct EndToEnd {
    pps: f64,
    pps_q1: f64,
    pps_q3: f64,
    rounds: usize,
    attempted: u64,
    failed: u64,
    memo_served: f64,
    imbalance: f64,
}

/// The untraced timed loop: rounds of one call per (app, mode), the
/// call order rotating from round to round, until `seconds` have passed.
/// `pps` is packets ÷ wall time summed over every timed call.
fn end_to_end(
    w: &Workload,
    config: &WorkloadConfig,
    inputs: &Inputs,
    cores: usize,
    references: &[Digest],
    setup: &mut SetupSamples,
    seconds: u64,
) -> Result<EndToEnd, String> {
    let plan: Vec<(usize, Mode)> = (0..w.apps.len())
        .flat_map(|a| w.modes.iter().map(move |&d| (a, d)))
        .collect();
    let engines: Vec<_> = w.apps.iter().map(|&app| w.engine(app, config)).collect();
    let mut tally = Tally::default();
    let mut hits = 0;
    let mut imbalance: Vec<f64> = Vec::new();
    let what = |a: usize, d: Mode| format!("{} {}", w.apps[a].slug(), d.name());

    for &(a, d) in &plan {
        let threads = w.threads(d, cores);
        if threads > cores {
            println!(
                "# {} {}: {threads} workers on {cores} cores: not a scaling measurement",
                w.apps[a].slug(),
                d.name()
            );
        }
        let c = workload::call(&engines[a], d, inputs, threads);
        tally.call(&what(a, d), &c, &references[a]);
    }

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round_pps = Vec::new();
    let mut total_packets = 0u64;
    let mut total_wall = Duration::ZERO;
    let mut per_call: Vec<Vec<f64>> = vec![Vec::new(); plan.len()];
    while round_pps.len() < MIN_ROUNDS || Instant::now() < deadline {
        let round = round_pps.len();
        let mut packets = 0u64;
        let mut wall = Duration::ZERO;
        for k in 0..plan.len() {
            let slot = (k + round) % plan.len();
            let (a, d) = plan[slot];
            let c = workload::call(&engines[a], d, inputs, w.threads(d, cores));
            packets += c.offered;
            wall += c.wall;
            tally.call(&what(a, d), &c, &references[a]);
            hits += c.memo_hits();
            imbalance.push(c.imbalance());
            per_call[slot].push(c.offered as f64 / c.wall.as_secs_f64());
        }
        round_pps.push(packets as f64 / wall.as_secs_f64());
        total_packets += packets;
        total_wall += wall;
        setup.rep(config)?;
    }
    while setup.reps() < SETUP_REPS {
        setup.rep(config)?;
    }
    for (&(a, d), samples) in plan.iter().zip(&per_call) {
        println!(
            "#   {:<6} {:<6} {} workers: median {:.1} packets/s over {} calls",
            w.apps[a].slug(),
            d.name(),
            w.threads(d, cores),
            median(samples),
            samples.len()
        );
    }
    let timed: u64 = plan.len() as u64 * round_pps.len() as u64 * inputs.count;
    Ok(EndToEnd {
        pps: total_packets as f64 / total_wall.as_secs_f64(),
        pps_q1: quantile(&round_pps, 0.25),
        pps_q3: quantile(&round_pps, 0.75),
        rounds: round_pps.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        memo_served: hits as f64 / timed.max(1) as f64,
        imbalance: imbalance.iter().copied().fold(0.0, f64::max),
    })
}

/// Prints the result line: the last line of standard output.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
