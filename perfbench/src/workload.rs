//! The workloads and the timed public calls they make.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nettrace::pcap::PcapWriter;
use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::{LinkType, Packet};
use npring::RateSpec;
use npstream::SourceSpec;
use packetbench::{
    AppId, BenchError, Detail, Engine, EngineRun, LiveConfig, LiveRun, MemoMode, OnFull,
    StreamConfig, StreamRun, WorkerMetrics, WorkloadConfig,
};

use crate::gate::Digest;
use crate::stats::median;

/// How a workload hands its packets to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Engine::run` over the whole in-memory trace, one worker per core.
    Batch,
    /// `Engine::run_streaming` over the pcap file, one worker.
    Stream,
    /// `Engine::run_live` over the pcap file, one lane, `OnFull::Wait`.
    Live,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Batch => "batch",
            Mode::Stream => "stream",
            Mode::Live => "live",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub apps: &'static [AppId],
    /// The trace profile the seed is fed to.
    pub profile: fn() -> TraceProfile,
    /// Packets handed to every timed call.
    pub packets: usize,
    pub memo: MemoMode,
    pub modes: &'static [Mode],
}

/// See README.md for why each workload exists and which layers it loads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mra-light",
        apps: &[AppId::Ipv4Trie, AppId::FlowClass],
        profile: TraceProfile::mra,
        packets: 40_000,
        memo: MemoMode::Off,
        modes: &[Mode::Batch],
    },
    Workload {
        name: "mra-heavy",
        apps: &[AppId::Ipv4Radix, AppId::Tsa, AppId::IpsecEnc],
        profile: TraceProfile::mra,
        packets: 6_000,
        memo: MemoMode::Off,
        modes: &[Mode::Batch],
    },
    Workload {
        name: "zipf-pipeline",
        apps: &[AppId::Ipv4Radix, AppId::Ipv4Trie],
        profile: TraceProfile::zipf,
        packets: 60_000,
        memo: MemoMode::On,
        modes: &[Mode::Stream, Mode::Live],
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Worker threads a call in `mode` uses on a host with `cores`.
    pub fn threads(&self, mode: Mode, cores: usize) -> usize {
        match mode {
            Mode::Batch => cores,
            Mode::Stream | Mode::Live => 1,
        }
    }

    pub fn engine(&self, app: AppId, config: &WorkloadConfig) -> Engine {
        Engine::with_config(app, *config).memo(self.memo)
    }
}

/// The generated packets, plus the same packets as a pcap file.
pub struct Inputs {
    /// Empty when generated with `keep = false`.
    pub packets: Vec<Packet>,
    /// Packets in the trace.
    pub count: u64,
    pub pcap: TempFile,
}

impl Inputs {
    /// Generates the workload's trace from `seed` and writes it to a pcap
    /// file in `dir`. Without `keep`, only the file holds the packets.
    pub fn generate(w: &Workload, seed: u64, dir: &Path, keep: bool) -> std::io::Result<Inputs> {
        let path = dir.join(format!("{}-seed{seed}-{}.pcap", w.name, std::process::id()));
        let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let pcap = TempFile(path);
        let mut writer = PcapWriter::new(file, LinkType::Raw, 65_535).map_err(io_error)?;
        let mut trace = SyntheticTrace::new((w.profile)(), seed);
        let mut packets = Vec::with_capacity(if keep { w.packets } else { 0 });
        for _ in 0..w.packets {
            let p = trace.next_packet();
            writer.write_packet(&p).map_err(io_error)?;
            if keep {
                packets.push(p);
            }
        }
        writer.into_inner().map_err(io_error)?;
        Ok(Inputs {
            packets,
            count: w.packets as u64,
            pcap,
        })
    }

    pub fn spec(&self) -> SourceSpec {
        SourceSpec::Pcap(self.pcap.0.clone())
    }
}

fn io_error(e: nettrace::TraceError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// A file removed when dropped.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What one timed call returned.
pub struct Call {
    pub wall: Duration,
    pub offered: u64,
    /// The call's digest, or why it failed.
    pub digest: Result<Digest, String>,
    pub threads: usize,
    pub workers: Vec<WorkerMetrics>,
    /// `EngineRun::merge` (batch only).
    pub merge: Duration,
    /// Mean ring occupancy and dequeue burst (live only).
    pub ring: Option<(f64, f64)>,
    /// Packets the live producer offered but no worker retired.
    pub dropped: u64,
}

impl Call {
    /// Packets offered that did not come back as a verified record.
    pub fn failed(&self, reference: &Digest) -> u64 {
        match &self.digest {
            Ok(d) if d.check(reference).is_ok() => self.dropped,
            _ => self.offered,
        }
    }

    /// Memo hits summed over the call's workers.
    pub fn memo_hits(&self) -> u64 {
        self.workers.iter().map(|w| w.memo_hits).sum()
    }

    /// Σ busy ÷ (threads × wall).
    pub fn worker_util(&self) -> f64 {
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        busy as f64 / (self.threads as f64 * self.wall.as_nanos() as f64).max(1.0)
    }

    pub fn imbalance(&self) -> f64 {
        imbalance(&self.workers)
    }
}

/// Busiest worker's packets over the mean per worker, minus one.
pub fn imbalance(workers: &[WorkerMetrics]) -> f64 {
    let max = workers.iter().map(|w| w.packets).max().unwrap_or(0) as f64;
    let mean = workers.iter().map(|w| w.packets).sum::<u64>() as f64 / workers.len().max(1) as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean - 1.0
    }
}

/// What a call returned, before its digest is taken. Moved once
/// per call; boxing the large variant would put an allocation inside the
/// timed region.
#[allow(clippy::large_enum_variant)]
enum Raw {
    Batch(Result<EngineRun, BenchError>),
    Stream(Result<StreamRun, String>),
    Live(Result<LiveRun, BenchError>),
}

/// One public call, timed from the outside.
pub struct Timed {
    wall: Duration,
    offered: u64,
    threads: usize,
    raw: Raw,
}

/// Makes one public call and times it from the outside.
pub fn invoke(engine: &Engine, mode: Mode, inputs: &Inputs, threads: usize) -> Timed {
    let start = Instant::now();
    let raw = match mode {
        Mode::Batch => Raw::Batch(engine.run(&inputs.packets, Detail::counts(), threads)),
        Mode::Stream => Raw::Stream(inputs.spec().open().map_err(|e| e.to_string()).and_then(
            |source| {
                let config = StreamConfig {
                    threads,
                    ..StreamConfig::default()
                };
                engine
                    .run_streaming(source, Detail::counts(), config)
                    .map_err(|e| e.to_string())
            },
        )),
        Mode::Live => {
            let config = LiveConfig {
                threads,
                rate: RateSpec::Max,
                on_full: OnFull::Wait,
                ..LiveConfig::default()
            };
            Raw::Live(engine.run_live(&inputs.spec(), Detail::counts(), config))
        }
    };
    Timed {
        wall: start.elapsed(),
        offered: inputs.count,
        threads,
        raw,
    }
}

/// Makes one public call, times it, and digests its result after the
/// clock stopped.
pub fn call(engine: &Engine, mode: Mode, inputs: &Inputs, threads: usize) -> Call {
    invoke(engine, mode, inputs, threads).finish()
}

impl Timed {
    /// Digests the call's result.
    pub fn finish(self) -> Call {
        let mut call = Call {
            wall: self.wall,
            offered: self.offered,
            digest: Err(String::new()),
            threads: self.threads,
            workers: Vec::new(),
            merge: Duration::ZERO,
            ring: None,
            dropped: 0,
        };
        match self.raw {
            Raw::Batch(Ok(run)) => {
                call.digest = Ok(Digest::of_records(&run.records));
                call.threads = run.threads;
                call.merge = run.merge;
                call.workers = run.workers;
            }
            Raw::Stream(Ok(run)) => {
                call.digest = Ok(Digest::of_aggregate(run.aggregate));
                call.threads = run.threads;
                call.workers = run.workers;
            }
            Raw::Live(Ok(run)) => {
                call.digest = Ok(Digest::of_aggregate(run.aggregate));
                call.threads = run.threads;
                call.workers = run.workers;
                call.ring = Some((run.occupancy.mean(), run.bursts.mean()));
                call.dropped = run.dropped;
            }
            Raw::Batch(Err(e)) | Raw::Live(Err(e)) => call.digest = Err(e.to_string()),
            Raw::Stream(Err(e)) => call.digest = Err(e),
        }
        call
    }
}

/// Repeated set-up measurements of a workload: `App::build` and
/// `PacketBench::with_config` (plus `set_memo` when the workload
/// memoizes) of every application, one repetition at a time.
pub struct SetupSamples {
    w: &'static Workload,
    build: Vec<Vec<f64>>,
    init: Vec<Vec<f64>>,
    totals: Vec<f64>,
}

impl SetupSamples {
    pub fn new(w: &'static Workload) -> SetupSamples {
        SetupSamples {
            w,
            build: vec![Vec::new(); w.apps.len()],
            init: vec![Vec::new(); w.apps.len()],
            totals: Vec::new(),
        }
    }

    /// Builds every application once, timing each step.
    pub fn rep(&mut self, config: &WorkloadConfig) -> Result<(), String> {
        let mut total = 0.0;
        for (k, &app) in self.w.apps.iter().enumerate() {
            let start = Instant::now();
            let built = packetbench::App::build(app, config).map_err(|e| e.to_string())?;
            let build = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut bench =
                packetbench::PacketBench::with_config(built, config).map_err(|e| e.to_string())?;
            bench.set_memo(self.w.memo);
            let init = start.elapsed().as_secs_f64();
            drop(std::hint::black_box(bench));
            self.build[k].push(build);
            self.init[k].push(init);
            total += build + init;
        }
        self.totals.push(total);
        Ok(())
    }

    pub fn reps(&self) -> usize {
        self.totals.len()
    }

    /// Median set-up of the whole workload, in seconds.
    pub fn total_s(&self) -> f64 {
        median(&self.totals)
    }

    /// Median `App::build` of application `k`, in seconds.
    pub fn build_s(&self, k: usize) -> f64 {
        median(&self.build[k])
    }

    /// Median framework set-up of application `k`, in seconds.
    pub fn init_s(&self, k: usize) -> f64 {
        median(&self.init[k])
    }
}
