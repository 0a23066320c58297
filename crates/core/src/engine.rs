//! The trace engine: one run-to-completion driver shared by the batch,
//! streaming and live modes.
//!
//! ## The driver
//!
//! Every mode runs the same worker loop ([`WorkerCore::run`]): take a
//! burst of `(global index, packet)` pairs from a [`Transport`], run each
//! packet through the per-packet step (process it at its global trace
//! index, optionally verify it against the golden model, fold it into the
//! lane's timeline probe, bump the shared progress counters), keep it,
//! and hand the burst back. The modes differ only in the transport — a
//! batch shard's positions as one burst ([`Engine::run`]), a bounded
//! chunk queue ([`Engine::run_streaming`]) or an npring lane
//! ([`Engine::run_live`]) — and in what a worker keeps: `Engine::run`
//! keeps every record, stream and live fold into the worker's own
//! [`StreamAggregate`]. [`Engine::drive`] runs the workers on scoped
//! threads and the source loop ([`Engine::read_source`]: the stream
//! reader, the live producer) on the caller's, then merges the
//! per-worker results after join, as one span on the merger lane. The
//! core builds its private [`PacketBench`] on the
//! first packet, with the engine's memo mode and trace parameters
//! applied in one place, so idle workers cost nothing. One monitor
//! thread, one timeline assembly and one idle-time settlement serve all
//! three modes.
//!
//! ## Errors
//!
//! A run reports the failure with the lowest trace index, in every mode
//! ([`Failure`]): workers skip only packets above the lowest failure so
//! far and the source stops reading, so every packet below it still runs
//! and the run fails where a serial run would have stopped.
//!
//! ## Determinism
//!
//! The engine is built so aggregate statistics are **bit-identical at any
//! thread count**:
//!
//! * Stateless applications (radix, trie, TSA, IPsec) round-robin packets
//!   over workers — per-packet results depend only on the packet, so
//!   placement is free.
//! * Flow Classification shards by the flow table's *bucket* of the
//!   packet's 5-tuple. Every flow that could share a hash chain lands on
//!   the same worker, so each worker's chains evolve exactly as the
//!   serial run's chains do and per-flow counts stay exact.
//! * Every transport delivers a worker's packets in trace order. Batch
//!   reassembles records and tagged output packets into trace order;
//!   stream and live folds are exact integer sums, so merging them in any
//!   order gives the serial fold. Output-packet timestamps come from the
//!   global trace position ([`PacketBench::process_packet_at`]), not from
//!   worker-local counters.
//! * With one worker nothing is reassembled: its records are already in
//!   trace order.
//!
//! Known limits of parallel bit-identity (counts detail is always exact):
//! with `Detail::uarch` the Flow Classification cache statistics can
//! differ from serial, because each worker lays its shard of the flow
//! table into its own memory; and if the flow table overflows capacity,
//! overflow ordering is per-worker. The default workloads do neither.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nettrace::{Packet, PacketSource};
use npobs::timeline::{LaneTelemetry, Sample, Stage, Timeline, TimelineSpec};
use npobs::{MonitorCounters, PacketHists, StatusLine};
use npsim::{NullObserver, Observer};

use crate::analysis::StreamAggregate;
use crate::apps::{App, AppId};
use crate::config::WorkloadConfig;
use crate::error::BenchError;
use crate::framework::{Detail, MemoMode, PacketBench, PacketRecord};

/// One engine worker's telemetry for a run: the metrics exports'
/// per-worker record, so a run's workers drop into a
/// [`npobs::MetricsDoc`] as they are.
pub use npobs::export::WorkerStat as WorkerMetrics;

/// A duration in whole nanoseconds, saturating at `u64::MAX`.
pub(crate) fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// `count` events per second of `elapsed` (0 for an instant run).
pub(crate) fn per_sec(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// Resolves a requested worker count: 0 means available parallelism.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Reads a bench's engine counters — memo traffic, superblock bail-outs
/// and trace-cache activity — into their columns of `row`.
fn read_bench(bench: &PacketBench, row: &mut WorkerMetrics) {
    let memo = bench.memo_counters();
    let trace = bench.trace_stats();
    row.memo_hits = memo.hits;
    row.memo_misses = memo.misses;
    row.memo_evictions = memo.evictions;
    row.block_bailouts = bench.block_bailouts();
    row.traces_formed = trace.formed;
    row.trace_hits = trace.hits;
    row.trace_guard_exits = trace.guard_exits;
    row.trace_declines = trace.declines;
}

/// The lowest failing trace index of a run and its error, shared by the
/// source loop and every worker. Workers skip packets above it and the
/// source stops reading once it is set, so every packet below it still
/// runs and the slot ends at the failure a serial run stops at. A source
/// error enters at the index where the source failed.
#[derive(Default)]
pub(crate) struct Failure {
    /// One past the lowest failing index; 0 while nothing failed.
    bound: AtomicU64,
    first: Mutex<Option<(u64, BenchError)>>,
}

impl Failure {
    /// Records `error` at `index` unless a lower index already failed.
    pub(crate) fn record(&self, index: u64, error: BenchError) {
        let mut first = self.first.lock().expect("failure slot");
        if first.as_ref().is_none_or(|&(i, _)| index < i) {
            *first = Some((index, error));
            self.bound.store(index + 1, Ordering::Relaxed);
        }
    }

    /// Whether the packet at `index` lies above the lowest failure so far,
    /// so its result no longer matters. `Relaxed`: a stale read only runs
    /// a packet the error discards, and join orders the final slot.
    pub(crate) fn above(&self, index: u64) -> bool {
        let bound = self.bound.load(Ordering::Relaxed);
        bound != 0 && index >= bound
    }
}

/// How bursts of `(global index, packet)` reach a worker and go back: a
/// batch shard (one burst), a stream chunk queue, or an npring lane.
/// Indices ascend within a transport.
pub(crate) trait Transport {
    /// Waits for the next burst and returns its span id and length;
    /// `None` once the input is closed and drained.
    fn next_burst(&mut self) -> Option<(u64, usize)>;
    /// The current burst's `i`-th packet and its global trace index.
    fn packet(&self, i: usize) -> (u64, &Packet);
    /// Hands the current burst back, run or skipped.
    fn release(&mut self) {}
    /// Items queued behind the current burst: chunks for a chunk queue,
    /// packets for an npring lane.
    fn queued(&self) -> u64 {
        0
    }
    /// Packets the lane has dropped so far.
    fn dropped(&self) -> u64 {
        0
    }
}

/// What a worker keeps of each packet it runs.
pub(crate) trait Keep {
    /// Makes room for a burst of `n` packets, on the worker's thread.
    fn reserve(&mut self, _n: usize) {}
    fn add(&mut self, index: u64, record: PacketRecord, bench: &mut PacketBench);
}

/// What [`Engine::run`] keeps: every record, and the emitted output
/// packets tagged with the trace index that emitted them.
struct Records(Vec<PacketRecord>, Vec<(usize, Vec<Packet>)>);

impl Keep for Records {
    fn reserve(&mut self, n: usize) {
        // Reserved here, on the worker's thread: with the buffers
        // allocated on the caller's thread, perfbench's `mra-light` ran
        // about 15% slower on a 2-vCPU host.
        self.0.reserve_exact(n);
    }

    fn add(&mut self, index: u64, record: PacketRecord, bench: &mut PacketBench) {
        self.0.push(record);
        let outs = bench.take_output_packets();
        if !outs.is_empty() {
            self.1.push((index as usize, outs));
        }
    }
}

/// The running fold stream and live keep: the aggregate, plus the
/// per-packet histograms when a metrics export asks for them.
#[derive(Default)]
pub(crate) struct Fold {
    pub(crate) aggregate: StreamAggregate,
    pub(crate) hists: Option<PacketHists>,
}

impl Keep for Fold {
    fn add(&mut self, _: u64, record: PacketRecord, bench: &mut PacketBench) {
        self.aggregate.add_record(&record);
        if let Some(hists) = &mut self.hists {
            let blocks = bench.block_map().blocks_executed(&record.stats.executed);
            hists.record(
                record.stats.instret,
                record.stats.mem.packet_total(),
                record.stats.mem.non_packet_total(),
                blocks.count() as u64,
            );
        }
    }
}

impl Fold {
    /// [`Engine::drive`]'s merge for stream and live: adds up the
    /// workers' folds, and hands back their transports.
    pub(crate) fn merged<T>(parts: Vec<(T, Fold, NullObserver)>) -> ((Fold, Vec<T>), u64) {
        let mut sum = Fold::default();
        let mut transports = Vec::with_capacity(parts.len());
        for (transport, fold, _) in parts {
            sum.aggregate.merge(&fold.aggregate);
            if let Some(hists) = &fold.hists {
                sum.hists.get_or_insert_default().merge(hists);
            }
            transports.push(transport);
        }
        let packets = sum.aggregate.packets();
        ((sum, transports), packets)
    }
}

/// A driven run: the caller's merge of the workers' results, the worker
/// rows, and the timeline — or the run's lowest failure and its index.
pub(crate) type Driven<R> = Result<(R, Vec<WorkerMetrics>, Option<Timeline>), (u64, BenchError)>;

/// A parallel (or serial) runner for one application over a packet trace.
#[derive(Debug, Clone)]
pub struct Engine {
    id: AppId,
    config: WorkloadConfig,
    verify: bool,
    progress: bool,
    memo: MemoMode,
    pub(crate) timeline: Option<TimelineSpec>,
    trace_params: Option<npsim::TraceParams>,
    watch: bool,
    status: Option<Arc<StatusLine>>,
}

impl Engine {
    /// An engine for `id` with the default workload configuration.
    pub fn new(id: AppId) -> Engine {
        Engine::with_config(id, WorkloadConfig::default())
    }

    /// An engine for `id` with an explicit workload configuration.
    pub fn with_config(id: AppId, config: WorkloadConfig) -> Engine {
        Engine {
            id,
            config,
            verify: false,
            progress: false,
            memo: MemoMode::Off,
            timeline: None,
            trace_params: None,
            watch: false,
            status: None,
        }
    }

    /// Enables or disables golden-model verification of every packet.
    pub fn verify(mut self, verify: bool) -> Engine {
        self.verify = verify;
        self
    }

    /// Enables a periodic `processed/total` progress line on stderr
    /// during runs. Off by default; when off, no progress counter is
    /// touched on the packet path.
    pub fn progress(mut self, progress: bool) -> Engine {
        self.progress = progress;
        self
    }

    /// Sets the flow-memoization mode for every worker's `PacketBench`.
    /// Memoization only ever engages for applications the static write
    /// guard proves safe ([`PacketBench::set_memo`]); for the rest this
    /// is a no-op, so `MemoMode::On` is always sound to request.
    pub fn memo(mut self, memo: MemoMode) -> Engine {
        self.memo = memo;
        self
    }

    /// Overrides the hot-trace formation parameters for every worker's
    /// `PacketBench`, in every mode. `None` (the default) keeps
    /// [`npsim::TraceParams::default`]; pass
    /// [`npsim::TraceParams::disabled`] to benchmark the plain superblock
    /// engine with trace fusion off. Either way results are bit-identical
    /// — only the dispatch strategy changes.
    pub fn trace_params(mut self, params: Option<npsim::TraceParams>) -> Engine {
        self.trace_params = params;
        self
    }

    /// Attaches the in-flight telemetry sampler: every worker keeps a
    /// bounded ring of counter snapshots (and, on the wall clock, stage
    /// spans), merged into [`EngineRun::timeline`] at run end. `None`
    /// (the default) keeps the packet path entirely unsampled.
    pub fn timeline(mut self, spec: Option<TimelineSpec>) -> Engine {
        self.timeline = spec;
        self
    }

    /// Enables the live `--watch` status refresh on stderr: a single
    /// in-place line (packets, pps, memo and trace rates) redrawn about
    /// once a second. Implies the same shared counter `--progress` uses.
    pub fn watch(mut self, watch: bool) -> Engine {
        self.watch = watch;
        self
    }

    /// Shares a [`StatusLine`] with the engine so its progress/watch
    /// output serializes with the caller's other stderr lines (the memo
    /// summary, for one) instead of interleaving mid-line. Without this
    /// the engine creates a private writer per run.
    pub fn status(mut self, status: Arc<StatusLine>) -> Engine {
        self.status = Some(status);
        self
    }

    /// The application this engine runs.
    pub fn id(&self) -> AppId {
        self.id
    }

    /// The workload configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Which worker a packet belongs to. Flow Classification shards by
    /// hash bucket so chained flows stay together; everything else
    /// round-robins by position.
    pub(crate) fn shard_of(&self, position: usize, packet: &Packet, threads: usize) -> usize {
        if self.id == AppId::FlowClass {
            if let Ok(key) = flowclass::FlowKey::from_l3(packet.l3()) {
                return key.bucket(self.config.flow_buckets) as usize % threads;
            }
            // Unparsable packets never touch the flow table; placement
            // is free.
        }
        position % threads
    }

    /// Builds one worker's `PacketBench` with the engine's memo mode and
    /// trace parameters applied — the only place either is set.
    fn build_bench(&self) -> Result<PacketBench, BenchError> {
        let app = App::build(self.id, &self.config)?;
        let mut bench = PacketBench::with_config(app, &self.config)?;
        bench.set_memo(self.memo);
        if let Some(params) = self.trace_params {
            bench.set_trace_params(params);
        }
        Ok(bench)
    }

    /// Runs one worker per `(transport, keep, observer)` input to
    /// completion, each on a scoped thread, while `feed` — the source
    /// loop filling the transports, if the run has one — runs on the
    /// caller's. With `--progress` or `--watch` a monitor thread redraws
    /// the status line from `progress`'s text for `n` processed packets;
    /// otherwise no monitor is spawned and no shared counter is touched.
    ///
    /// After join, `merge` folds the workers' results into the run's and
    /// returns the packets it covers; it is timed as one span on the
    /// merger lane. Every worker is charged the wall-clock time it was not
    /// busy, and the timeline is assembled from every lane.
    pub(crate) fn drive<T: Transport + Send, K: Keep + Send, O: Observer + Send, R>(
        &self,
        start: Instant,
        detail: Detail,
        progress: impl Fn(u64) -> String + Sync,
        inputs: Vec<(T, K, O)>,
        feed: impl FnOnce(&Failure) -> Option<LaneTelemetry>,
        merge: impl FnOnce(Vec<(T, K, O)>) -> (R, u64),
    ) -> Driven<R> {
        let threads = inputs.len();
        let failure = &Failure::default();
        let counters = (self.progress || self.watch).then(MonitorCounters::default);
        let monitor = counters.as_ref();
        let (done, progress) = (&AtomicBool::new(false), &progress);
        let (workers, feed_lane) = std::thread::scope(|scope| {
            let status = monitor.map(|counters| {
                let status = self.status.clone().unwrap_or_default();
                scope.spawn(move || counters.report(&status, self.watch, start, done, progress))
            });
            let spawned: Vec<_> = inputs
                .into_iter()
                .enumerate()
                .map(|(w, (transport, keep, obs))| {
                    let core = WorkerCore::new(self, w, detail, obs, monitor, start);
                    scope.spawn(move || core.run(transport, keep, failure))
                })
                .collect();
            let feed_lane = feed(failure);
            let workers: Vec<_> = spawned
                .into_iter()
                .map(|h| h.join().expect("engine workers never panic"))
                .collect();
            done.store(true, Ordering::Release);
            status.inspect(|h| h.thread().unpark());
            (workers, feed_lane)
        });
        if let Some(failed) = failure.first.lock().expect("failure slot").take() {
            return Err(failed);
        }
        let mut rows = Vec::with_capacity(threads);
        let mut lanes: Vec<_> = feed_lane.into_iter().collect();
        let mut parts = Vec::with_capacity(threads);
        for (row, lane, transport, keep, obs) in workers {
            rows.push(row);
            lanes.extend(lane);
            parts.push((transport, keep, obs));
        }
        let merge_start = Instant::now();
        let (merged, packets) = merge(parts);
        if let Some(mut merger) = LaneTelemetry::wall(self.timeline, threads + 1, start) {
            merger.span(Stage::Merge, 0, merge_start, packets);
            lanes.push(merger);
        }
        let wall_ns = nanos(start.elapsed());
        for row in &mut rows {
            row.idle_ns = wall_ns.saturating_sub(row.busy_ns);
        }
        let timeline = self
            .timeline
            .map(|spec| Timeline::from_lanes(spec, threads, lanes));
        Ok((merged, rows, timeline))
    }

    /// The source loop the stream reader and the live producer share:
    /// `passes` passes over `open()`, each capped at `cap` packets. Each
    /// packet gets its global trace index and its worker
    /// ([`Engine::shard_of`]) and goes to `hand`, with the source lane.
    /// Reading stops once a packet below the next index has failed; a
    /// source error enters `failure` at the index where the source
    /// failed. On wall-clock timelines the lane (index `threads`) samples
    /// `sample()` and records one read span per pass.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_source<S: PacketSource>(
        &self,
        start: Instant,
        threads: usize,
        (passes, cap): (u64, Option<u64>),
        failure: &Failure,
        mut open: impl FnMut() -> Result<S, BenchError>,
        mut hand: impl FnMut(u64, usize, Packet, &mut Option<LaneTelemetry>),
        sample: impl Fn() -> Sample,
    ) -> Option<LaneTelemetry> {
        let mut lane = LaneTelemetry::wall(self.timeline, threads, start);
        let mut index = 0u64;
        'read: for pass in 0..passes {
            let (began, first) = (Instant::now(), index);
            let mut source = match open() {
                Ok(source) => source,
                Err(error) => {
                    failure.record(index, error);
                    break;
                }
            };
            while index - first < cap.unwrap_or(u64::MAX) {
                if failure.above(index) {
                    break 'read;
                }
                let packet = match source.next_packet() {
                    Ok(Some(packet)) => packet,
                    Ok(None) => break,
                    Err(error) => {
                        failure.record(index, error.into());
                        break 'read;
                    }
                };
                if let Some(LaneTelemetry::Wall(sampler, _)) = &mut lane {
                    if sampler.on_packet() {
                        sampler.push(sample());
                    }
                }
                let shard = self.shard_of(index as usize, &packet, threads);
                hand(index, shard, packet, &mut lane);
                index += 1;
            }
            if let Some(lane) = &mut lane {
                lane.span(Stage::Read, pass, began, index - first);
            }
        }
        lane
    }

    /// Runs `packets` on `threads` workers (0 = available parallelism)
    /// and returns the merged, trace-ordered results.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing packet — the same error a
    /// serial run would have stopped at.
    pub fn run(
        &self,
        packets: &[Packet],
        detail: Detail,
        threads: usize,
    ) -> Result<EngineRun, BenchError> {
        // The unobserved run *is* the observed run with the no-op
        // observer: monomorphization folds every hook away (DESIGN.md).
        self.run_observed(packets, detail, threads, || NullObserver)
            .map(|(run, _)| run)
    }

    /// Runs `packets` like [`Engine::run`], attaching a worker-private
    /// observer (built by `make_obs`) to every packet execution. Returns
    /// the merged run plus each worker's observer, ordered by worker
    /// index, so additively-mergeable observers (heat maps, histograms)
    /// produce thread-count-independent profiles.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_observed<O, F>(
        &self,
        packets: &[Packet],
        detail: Detail,
        threads: usize,
        make_obs: F,
    ) -> Result<(EngineRun, Vec<O>), BenchError>
    where
        O: Observer + Send,
        F: Fn() -> O + Sync,
    {
        self.batch(packets, detail, threads, make_obs)
            .map_err(|(_, e)| e)
    }

    /// [`Engine::run_observed`], failing with the failing packet's index.
    pub(crate) fn batch<O: Observer + Send>(
        &self,
        packets: &[Packet],
        detail: Detail,
        threads: usize,
        make_obs: impl Fn() -> O,
    ) -> Result<(EngineRun, Vec<O>), (u64, BenchError)> {
        let threads = resolve_threads(threads).clamp(1, packets.len().max(1));
        let total = packets.len();
        let start = Instant::now();
        // Each trace position's worker, and each worker's positions; a
        // single worker runs every position in order.
        let mut owner: Vec<usize> = Vec::new();
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); threads];
        if threads > 1 {
            owner.reserve_exact(total);
            for (i, packet) in packets.iter().enumerate() {
                owner.push(self.shard_of(i, packet, threads));
                shards[owner[i]].push(i);
            }
        }
        let inputs = shards.iter().enumerate().map(|(w, positions)| {
            let shard = Shard {
                packets,
                positions: (threads > 1).then_some(&positions[..]),
                worker: w as u64,
                taken: false,
            };
            (shard, Records(Vec::new(), Vec::new()), make_obs())
        });
        let progress = |n: u64| {
            let pct = n as f64 / total.max(1) as f64 * 100.0;
            format!("pb: {n}/{total} packets ({pct:.1}%)")
        };
        let merge = |parts: Vec<(Shard, Records, O)>| {
            let began = Instant::now();
            let mut outputs = Vec::new();
            let mut records = Vec::with_capacity(threads);
            let mut observers = Vec::with_capacity(threads);
            for (_, Records(kept, outs), obs) in parts {
                records.push(kept.into_iter());
                outputs.extend(outs);
                observers.push(obs);
            }
            let records = if threads == 1 {
                records.pop().map(Iterator::collect).unwrap_or_default()
            } else {
                outputs.sort_unstable_by_key(|&(i, _)| i);
                let next = |&w: &usize| records[w].next().expect("a record per packet");
                owner.iter().map(next).collect()
            };
            let outputs = outputs.into_iter().flat_map(|(_, outs)| outs).collect();
            ((records, outputs, observers, began.elapsed()), total as u64)
        };
        let inputs = inputs.collect();
        let driven = self.drive(start, detail, progress, inputs, |_| None, merge)?;
        let ((records, output_packets, observers, merge), workers, timeline) = driven;
        let run = EngineRun {
            records,
            output_packets,
            threads,
            elapsed: start.elapsed(),
            merge,
            workers,
            timeline,
        };
        Ok((run, observers))
    }
}

/// A batch worker's input: its positions in the trace, as one burst.
struct Shard<'p> {
    packets: &'p [Packet],
    /// The worker's positions; `None` for every position in order.
    positions: Option<&'p [usize]>,
    worker: u64,
    taken: bool,
}

impl Transport for Shard<'_> {
    fn next_burst(&mut self) -> Option<(u64, usize)> {
        let len = self.positions.map_or(self.packets.len(), <[usize]>::len);
        let first = !std::mem::replace(&mut self.taken, true);
        first.then_some((self.worker, len))
    }

    fn packet(&self, i: usize) -> (u64, &Packet) {
        let position = self.positions.map_or(i, |positions| positions[i]);
        (position as u64, &self.packets[position])
    }
}

/// One worker's run-to-completion core, shared by every transport: the
/// lazily built [`PacketBench`], the lane's timeline probe, the progress
/// watermarks, and the packet and busy counters. [`WorkerCore::run`] is
/// the worker loop; each burst is one busy stretch, so busy time is never
/// a clock read per packet.
pub(crate) struct WorkerCore<'a, O = NullObserver> {
    engine: &'a Engine,
    detail: Detail,
    bench: Option<PacketBench>,
    obs: O,
    probe: Option<LaneProbe>,
    monitor: Option<&'a MonitorCounters>,
    /// The worker's row: index, packets and busy time as they accrue;
    /// the rest is filled in when the loop ends.
    stat: WorkerMetrics,
    /// What the monitor has been sent of this worker's row so far.
    published: WorkerMetrics,
    busy_start: Instant,
}

impl<'a, O: Observer> WorkerCore<'a, O> {
    /// A core for worker `worker`; `monitor` is the run's shared progress
    /// counters, if monitoring is on.
    pub(crate) fn new(
        engine: &'a Engine,
        worker: usize,
        detail: Detail,
        obs: O,
        monitor: Option<&'a MonitorCounters>,
        run_start: Instant,
    ) -> Self {
        WorkerCore {
            engine,
            detail,
            bench: None,
            obs,
            probe: engine
                .timeline
                .map(|spec| LaneProbe::new(LaneTelemetry::new(spec, worker, run_start))),
            monitor,
            stat: WorkerMetrics {
                worker,
                ..WorkerMetrics::default()
            },
            published: WorkerMetrics::default(),
            busy_start: run_start,
        }
    }

    /// The worker loop: take bursts from `transport` until it closes, run
    /// each packet through [`WorkerCore::step`] into `keep`, and hand the
    /// burst back. Packets above the run's lowest failure are skipped but
    /// still handed back; a failing packet enters `failure`. Emitted
    /// output packets nobody keeps are dropped per burst. Returns the
    /// worker's row (`idle_ns` is settled by [`Engine::drive`]), timeline
    /// lane, transport, keep and observer.
    #[allow(clippy::type_complexity)]
    pub(crate) fn run<T: Transport, K: Keep>(
        mut self,
        mut transport: T,
        mut keep: K,
        failure: &Failure,
    ) -> (WorkerMetrics, Option<LaneTelemetry>, T, K, O) {
        let mut handed = 0;
        while let Some((id, n)) = transport.next_burst() {
            keep.reserve(n);
            self.busy_start = Instant::now();
            self.stat.ring_dropped = transport.dropped();
            let mut ran = 0;
            while ran < n {
                let (index, packet) = transport.packet(ran);
                if failure.above(index) {
                    break;
                }
                let mut record = PacketRecord::empty();
                let left = (n - ran - 1) as u64;
                let backlog = || (left + transport.queued(), transport.dropped());
                match self.step(index, packet, &mut record, backlog) {
                    Ok(bench) => keep.add(index, record, bench),
                    Err(error) => {
                        failure.record(index, error);
                        break;
                    }
                }
                ran += 1;
            }
            if let Some(bench) = &mut self.bench {
                bench.take_output_packets();
            }
            self.stat.busy_ns += nanos(self.busy_start.elapsed());
            if let Some(probe) = &mut self.probe {
                probe
                    .lane
                    .span(Stage::Exec, id, self.busy_start, ran as u64);
            }
            transport.release();
            handed += n as u64;
        }
        if let Some(bench) = &self.bench {
            read_bench(bench, &mut self.stat);
        }
        self.stat.ring_dropped = transport.dropped();
        self.stat.queue_depth = handed + self.stat.ring_dropped;
        let lane = self.probe.map(|probe| probe.lane);
        (self.stat, lane, transport, keep, self.obs)
    }

    /// The per-packet step: process the packet at its global trace
    /// `index` (building the bench on first use), verify it if asked,
    /// fold it into the timeline probe, and advance the progress
    /// counters. `backlog` reports the lane's queue depth and cumulative
    /// ring drops; it is only called when a wall-clock sample is due.
    /// Returns the bench for the worker's keep.
    ///
    /// # Errors
    ///
    /// The bench build's error, or the packet's processing or
    /// verification error.
    fn step(
        &mut self,
        index: u64,
        packet: &Packet,
        record: &mut PacketRecord,
        backlog: impl FnOnce() -> (u64, u64),
    ) -> Result<&mut PacketBench, BenchError> {
        if self.bench.is_none() {
            self.bench = Some(self.engine.build_bench()?);
        }
        let bench = self.bench.as_mut().expect("built above");
        bench.process_packet_observed_at(index, packet, self.detail, record, &mut self.obs)?;
        if self.engine.verify {
            bench.verify_record(packet, record)?;
        }
        self.stat.packets += 1;
        if let Some(probe) = &mut self.probe {
            let busy = (self.stat.busy_ns, self.busy_start);
            probe.observe(index, record, bench, busy, backlog);
        }
        if let Some(monitor) = self.monitor {
            let mut now = self.stat.clone();
            read_bench(bench, &mut now);
            monitor.publish(&now, &mut self.published);
        }
        Ok(bench)
    }
}

/// A worker lane's timeline state: the lane plus its cumulative packet
/// counters and the bail-out watermark for logical deltas.
struct LaneProbe {
    lane: LaneTelemetry,
    cum: Sample,
    last_bailouts: u64,
}

impl LaneProbe {
    fn new(lane: LaneTelemetry) -> LaneProbe {
        LaneProbe {
            lane,
            cum: Sample::default(),
            last_bailouts: 0,
        }
    }

    /// Folds one processed packet into the lane. Busy time at a sample
    /// is `busy.0` (earlier busy stretches) plus the time since `busy.1`
    /// (the current stretch's start). `backlog` gives the lane's queue
    /// depth and cumulative ingestion drops (always zero outside live
    /// mode); drops land in wall-clock samples only — they are a timing
    /// artifact, so deterministic logical timelines exclude them.
    fn observe(
        &mut self,
        index: u64,
        record: &PacketRecord,
        bench: &PacketBench,
        busy: (u64, Instant),
        backlog: impl FnOnce() -> (u64, u64),
    ) {
        let delta = Sample {
            packets: 1,
            instructions: record.stats.instret,
            mem_packet: record.stats.mem.packet_total(),
            mem_non_packet: record.stats.mem.non_packet_total(),
            ..Sample::default()
        };
        match &mut self.lane {
            LaneTelemetry::Logical(series) => {
                let bailouts = bench.block_bailouts();
                let block_bailouts = bailouts - self.last_bailouts;
                self.last_bailouts = bailouts;
                series.record(
                    index,
                    &Sample {
                        block_bailouts,
                        ..delta
                    },
                );
            }
            LaneTelemetry::Wall(sampler, _) => {
                self.cum.add(&delta);
                if sampler.on_packet() {
                    // The bench's counters are cumulative: sample them as
                    // they stand, under the columns both tables share.
                    let mut row = WorkerMetrics::default();
                    read_bench(bench, &mut row);
                    let mut sample = self.cum;
                    sample.copy_matching(row.named());
                    (sample.queue_depth, sample.ring_dropped) = backlog();
                    sample.busy_ns = busy.0 + nanos(busy.1.elapsed());
                    sampler.push(sample);
                }
            }
        }
    }
}

/// The merged, trace-ordered result of an [`Engine::run`].
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// One record per input packet, in trace order.
    pub records: Vec<PacketRecord>,
    /// Packets the application emitted via `write_packet_to_file`, in
    /// trace order of the packets that emitted them.
    pub output_packets: Vec<Packet>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time of the run, including per-worker app builds.
    pub elapsed: Duration,
    /// Time spent reassembling worker results into trace order (next to
    /// nothing with one worker, whose records are already in order).
    pub merge: Duration,
    /// Per-worker telemetry, ordered by worker index.
    pub workers: Vec<WorkerMetrics>,
    /// The in-flight telemetry timeline, present when the engine ran
    /// with [`Engine::timeline`] attached.
    pub timeline: Option<Timeline>,
}

impl EngineRun {
    /// Total instructions executed across all packets.
    pub fn total_instructions(&self) -> u64 {
        self.records.iter().map(|r| r.stats.instret).sum()
    }

    /// Simulated packets per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        per_sec(self.records.len() as u64, self.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::synth::{SyntheticTrace, TraceProfile};

    fn trace(n: usize, seed: u64) -> Vec<Packet> {
        let mut t = SyntheticTrace::new(TraceProfile::mra(), seed);
        (0..n).map(|_| t.next_packet()).collect()
    }

    #[test]
    fn serial_engine_matches_packetbench() {
        let packets = trace(80, 9);
        let run = Engine::new(AppId::Ipv4Trie)
            .run(&packets, Detail::counts(), 1)
            .unwrap();
        assert_eq!(run.threads, 1);
        assert_eq!(run.records.len(), packets.len());

        let app = App::build(AppId::Ipv4Trie, &WorkloadConfig::default()).unwrap();
        let mut bench = PacketBench::new(app).unwrap();
        for (i, p) in packets.iter().enumerate() {
            let r = bench.process_packet(p, Detail::counts()).unwrap();
            assert_eq!(r.stats.instret, run.records[i].stats.instret);
            assert_eq!(r.verdict, run.records[i].verdict);
            assert_eq!(r.return_value, run.records[i].return_value);
        }
    }

    #[test]
    fn parallel_matches_serial_for_flow() {
        let packets = trace(200, 11);
        let engine = Engine::new(AppId::FlowClass);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        let parallel = engine.run(&packets, Detail::counts(), 3).unwrap();
        assert_eq!(parallel.threads, 3);
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.return_value, b.return_value);
            assert_eq!(a.stats.instret, b.stats.instret);
        }
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let packets = trace(10, 13);
        let run = Engine::new(AppId::Ipv4Trie)
            .run(&packets, Detail::counts(), 0)
            .unwrap();
        assert!(run.threads >= 1);
        assert_eq!(run.records.len(), 10);
    }

    #[test]
    fn empty_trace_produces_an_empty_run() {
        for threads in [1, 4] {
            let run = Engine::new(AppId::Ipv4Trie)
                .run(&[], Detail::counts(), threads)
                .unwrap();
            assert!(run.records.is_empty());
            assert!(run.output_packets.is_empty());
            assert_eq!(run.total_instructions(), 0);
        }
    }

    #[test]
    fn single_packet_trace_matches_the_framework() {
        let packets = trace(1, 19);
        let run = Engine::new(AppId::Ipv4Radix)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        assert_eq!(run.records.len(), 1);

        let app = App::build(AppId::Ipv4Radix, &WorkloadConfig::default()).unwrap();
        let mut bench = PacketBench::new(app).unwrap();
        let r = bench.process_packet(&packets[0], Detail::counts()).unwrap();
        assert_eq!(r.stats.instret, run.records[0].stats.instret);
        assert_eq!(r.verdict, run.records[0].verdict);
        assert_eq!(r.return_value, run.records[0].return_value);
    }

    #[test]
    fn more_threads_than_packets_still_merges_exactly() {
        // Most workers get empty shards; the merge must not invent,
        // drop, or reorder records.
        let packets = trace(3, 23);
        let engine = Engine::new(AppId::FlowClass);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        let wide = engine.run(&packets, Detail::counts(), 8).unwrap();
        assert_eq!(wide.records.len(), 3);
        for (a, b) in serial.records.iter().zip(&wide.records) {
            assert_eq!(a.stats.instret, b.stats.instret);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.return_value, b.return_value);
        }
        assert_eq!(serial.output_packets, wide.output_packets);
    }

    #[test]
    fn flow_trace_collapsing_to_one_bucket_still_merges_in_order() {
        // One repeated flow: bucket sharding degenerates to a single
        // loaded worker with every other shard empty — and the chained
        // flow state must still evolve exactly as in the serial run.
        let one = trace(1, 29).pop().unwrap();
        let packets = vec![one; 50];
        let engine = Engine::new(AppId::FlowClass);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        let parallel = engine.run(&packets, Detail::counts(), 4).unwrap();
        for (i, (a, b)) in serial.records.iter().zip(&parallel.records).enumerate() {
            assert_eq!(a.stats.instret, b.stats.instret, "packet {i}");
            assert_eq!(a.return_value, b.return_value, "packet {i}");
        }
        // The flow counter chained through the single bucket: packet i is
        // the flow's (i+1)-th sighting.
        assert_eq!(parallel.records.last().unwrap().return_value, 50);
    }

    #[test]
    fn error_reporting_is_deterministic() {
        let mut packets = trace(40, 17);
        // Two short packets; the engine must report the lower index no
        // matter how workers race.
        packets[31] = Packet::from_l3(nettrace::Timestamp::default(), vec![0x45; 8]);
        packets[7] = Packet::from_l3(nettrace::Timestamp::default(), vec![0x45; 8]);
        for threads in [1, 2, 4] {
            let err = Engine::new(AppId::Ipv4Radix)
                .run(&packets, Detail::counts(), threads)
                .unwrap_err();
            assert!(
                matches!(err, BenchError::BadPacket(_)),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn every_mode_fails_at_the_lowest_failing_index() {
        use crate::live::{LiveConfig, OnFull};
        use crate::stream::StreamConfig;
        use nettrace::pcap::PcapWriter;
        // (threads, chunk size, chunks in flight, short packets, lowest).
        // Two round-robin workers with chunks of 4: worker 0's chunk
        // {0, 2, 4, 6} flushes before worker 1's {1, 3, 5, 7}, so a rule
        // taking the first failure in flush order would report 6. With
        // three workers, chunks of 2 and one chunk in flight, the reader
        // waits for {0, 3} to fail at 3 before it dispatches {1, 4}, then
        // stops with {2} still buffered: only a flush after the failure
        // runs packet 2.
        let cases = [(2, 4, 2, [5, 6], 5), (3, 2, 1, [2, 3], 2)];
        for (threads, chunk_size, max_inflight, short, lowest) in cases {
            let mut packets = trace(40, 17);
            for i in short {
                packets[i] = Packet::from_l3(nettrace::Timestamp::default(), vec![0x45; 8]);
            }
            let name = format!(
                "pb_engine_lowest_failure_{}_{threads}.pcap",
                std::process::id()
            );
            let path = std::env::temp_dir().join(name);
            let file = std::fs::File::create(&path).unwrap();
            let mut writer = PcapWriter::new(file, nettrace::LinkType::Raw, 65_535).unwrap();
            for packet in &packets {
                writer.write_packet(packet).unwrap();
            }
            writer.into_inner().unwrap();
            let spec = npstream::SourceSpec::Pcap(path.clone());

            let engine = Engine::new(AppId::Ipv4Radix);
            let batch = engine.batch(&packets, Detail::counts(), threads, || NullObserver);
            let config = StreamConfig {
                threads,
                chunk_size,
                max_inflight,
            };
            let stream = engine.stream(spec.open().unwrap(), Detail::counts(), config);
            let config = LiveConfig {
                threads,
                ring: 4,
                on_full: OnFull::Wait,
                ..LiveConfig::default()
            };
            let live = engine.live(&spec, Detail::counts(), config);
            std::fs::remove_file(&path).unwrap();
            let failed_at = |run: Option<(u64, BenchError)>| run.map(|(i, _)| i);
            assert_eq!(
                failed_at(batch.err()),
                Some(lowest),
                "batch, {threads} threads"
            );
            assert_eq!(
                failed_at(stream.err()),
                Some(lowest),
                "stream, {threads} threads"
            );
            assert_eq!(
                failed_at(live.err()),
                Some(lowest),
                "live, {threads} threads"
            );
        }
    }

    #[test]
    fn memo_on_matches_memo_off_at_every_thread_count() {
        use crate::framework::MemoMode;
        let packets: Vec<Packet> =
            SyntheticTrace::new(TraceProfile::with_zipf(32, 120), 21).take_packets(300);
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            for threads in [1, 4, 7] {
                let off = Engine::new(id)
                    .memo(MemoMode::Off)
                    .run(&packets, Detail::counts(), threads)
                    .unwrap();
                let on = Engine::new(id)
                    .memo(MemoMode::On)
                    .run(&packets, Detail::counts(), threads)
                    .unwrap();
                for (i, (a, b)) in off.records.iter().zip(&on.records).enumerate() {
                    assert_eq!(
                        a.stats.instret, b.stats.instret,
                        "{id:?} threads={threads} packet {i}"
                    );
                    assert_eq!(a.stats.op_mix, b.stats.op_mix, "{id:?} t={threads} p={i}");
                    assert_eq!(a.stats.mem, b.stats.mem, "{id:?} t={threads} p={i}");
                    assert_eq!(a.verdict, b.verdict, "{id:?} t={threads} p={i}");
                    assert_eq!(a.return_value, b.return_value, "{id:?} t={threads} p={i}");
                }
                let hits: u64 = on.workers.iter().map(|w| w.memo_hits).sum();
                let misses: u64 = on.workers.iter().map(|w| w.memo_misses).sum();
                assert!(hits > 0, "{id:?} threads={threads}");
                assert_eq!(hits + misses, 300, "{id:?} threads={threads}");
                assert!(
                    off.workers.iter().all(|w| w.memo_hits == 0),
                    "memo-off run must not touch the cache"
                );
            }
        }
    }

    #[test]
    fn check_mode_matches_off_in_the_engine() {
        use crate::framework::MemoMode;
        let packets: Vec<Packet> =
            SyntheticTrace::new(TraceProfile::with_zipf(16, 100), 23).take_packets(120);
        let off = Engine::new(AppId::Ipv4Radix)
            .memo(MemoMode::Off)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        let check = Engine::new(AppId::Ipv4Radix)
            .memo(MemoMode::Check)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        for (a, b) in off.records.iter().zip(&check.records) {
            assert_eq!(a.stats.instret, b.stats.instret);
            assert_eq!(a.verdict, b.verdict);
        }
    }

    #[test]
    fn verify_mode_works_in_parallel() {
        let packets = trace(60, 19);
        let run = Engine::new(AppId::Ipv4Radix)
            .verify(true)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        assert_eq!(run.records.len(), 60);
    }

    /// Every mode's aggregate and per-worker trace telemetry for 300
    /// radix MRA packets on two workers, with `params` overriding the
    /// trace-formation thresholds.
    fn three_modes(
        params: Option<npsim::TraceParams>,
    ) -> Vec<(
        &'static str,
        crate::analysis::StreamAggregate,
        Vec<WorkerMetrics>,
    )> {
        use crate::analysis::StreamAggregate;
        use crate::live::{LiveConfig, OnFull};
        use crate::stream::StreamConfig;
        let engine = Engine::new(AppId::Ipv4Radix).trace_params(params);
        let packets = trace(300, 41);
        let batch = engine.run(&packets, Detail::counts(), 2).unwrap();
        let mut batch_agg = StreamAggregate::new();
        for record in &batch.records {
            batch_agg.add_record(record);
        }
        let stream = engine
            .run_streaming(
                nettrace::Limited::new(SyntheticTrace::new(TraceProfile::mra(), 41), 300),
                Detail::counts(),
                StreamConfig {
                    threads: 2,
                    chunk_size: 16,
                    max_inflight: 4,
                },
            )
            .unwrap();
        let spec = npstream::SourceSpec::parse("synth:mra:seed=41:packets=300").unwrap();
        let live = engine
            .run_live(
                &spec,
                Detail::counts(),
                LiveConfig {
                    threads: 2,
                    ring: 64,
                    on_full: OnFull::Wait,
                    ..LiveConfig::default()
                },
            )
            .unwrap();
        vec![
            ("batch", batch_agg, batch.workers),
            ("stream", stream.aggregate, stream.workers),
            ("live", live.aggregate, live.workers),
        ]
    }

    #[test]
    fn trace_params_apply_in_every_mode() {
        let default = three_modes(None);
        let disabled = three_modes(Some(npsim::TraceParams::disabled()));
        for ((mode, want, on), (_, got, off)) in default.iter().zip(&disabled) {
            let formed = |workers: &[WorkerMetrics]| -> u64 {
                workers.iter().map(|w| w.traces_formed).sum()
            };
            assert!(formed(on) > 0, "{mode}: default params form traces");
            assert_eq!(formed(off), 0, "{mode}: disabled params form none");
            assert_eq!(got, want, "{mode}: dispatch strategy changed results");
        }
    }

    #[test]
    fn worker_step_feeds_every_monitor_counter() {
        use crate::framework::MemoMode;
        let engine = Engine::new(AppId::Ipv4Radix).memo(MemoMode::On);
        let packets: Vec<Packet> =
            SyntheticTrace::new(TraceProfile::with_zipf(256, 80), 7).take_packets(300);
        let counters = MonitorCounters::default();
        let core = WorkerCore::new(
            &engine,
            0,
            Detail::counts(),
            NullObserver,
            Some(&counters),
            Instant::now(),
        );
        let shard = Shard {
            packets: &packets,
            positions: None,
            worker: 0,
            taken: false,
        };
        let (metrics, ..) = core.run(shard, Fold::default(), &Failure::default());
        let sums = counters.snapshot();
        assert_eq!(sums.packets, 300);
        assert_eq!(sums.memo_hits, metrics.memo_hits);
        assert_eq!(
            sums.memo_hits + sums.memo_misses,
            metrics.memo_hits + metrics.memo_misses
        );
        assert!(metrics.memo_hits > 0, "the zipf trace repeats flows");
        assert!(metrics.trace_hits > 0, "the misses ran formed traces");
        assert_eq!(sums.trace_hits, metrics.trace_hits);
        assert_eq!(sums.trace_guard_exits, metrics.trace_guard_exits);
    }
}
