//! The trace engine: one run-to-completion worker core shared by the
//! batch, streaming and live transports, and the batch transport itself,
//! which fans a packet trace over sharded workers and merges the results
//! back into trace order.
//!
//! ## The worker core
//!
//! Every mode runs the same per-packet step (`WorkerCore::step`):
//! process the packet at its global trace index, optionally verify it
//! against the golden model, fold it into the lane's timeline probe, and
//! bump the shared progress counters. The core builds its private
//! [`PacketBench`] on the first packet, with the engine's memo mode and
//! trace parameters applied in one place, so idle workers cost nothing;
//! and it finishes into [`WorkerMetrics`] in one place. The transports
//! differ only in how packets reach a core: shard index lists
//! ([`Engine::run`]), the bounded chunk queue ([`Engine::run_streaming`])
//! or npring lanes ([`Engine::run_live`]). One monitor thread, one
//! timeline assembly and one idle-time settlement serve all three.
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
//! * Workers process their packets in trace order and report their
//!   records and tagged output packets; the engine reassembles them into
//!   trace order, so records and output packets are independent of
//!   scheduling. Output-packet timestamps come from the global trace
//!   position ([`PacketBench::process_packet_at`]), not from worker-local
//!   counters.
//! * With one worker the same core runs inline on the caller's thread: no
//!   worker thread is spawned, and nothing is reassembled because the
//!   records are already in trace order.
//!
//! Known limits of parallel bit-identity (counts detail is always exact):
//! with `Detail::uarch` the Flow Classification cache statistics can
//! differ from serial, because each worker lays its shard of the flow
//! table into its own memory; and if the flow table overflows capacity,
//! overflow ordering is per-worker. The default workloads do neither.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nettrace::Packet;
use npobs::timeline::{LogicalSeries, Sample, SpanLog, Stage, Timeline, TimelineSpec, WallSampler};
use npobs::StatusLine;
use npsim::{NullObserver, Observer};

use crate::apps::{App, AppId};
use crate::config::WorkloadConfig;
use crate::error::BenchError;
use crate::framework::{Detail, MemoMode, PacketBench, PacketRecord};

/// One engine worker's telemetry for a run: the metrics exports'
/// per-worker record, so a run's workers drop into a
/// [`npobs::MetricsDoc`] as they are.
pub use npobs::export::WorkerStat as WorkerMetrics;

/// How often the in-run progress line is refreshed.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(1000);

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

/// Shared counters the monitor thread reads to compose the progress and
/// `--watch` lines: one atomic per [`WorkerMetrics`] column, summed over
/// workers. Workers bump them with `Relaxed` increments — they order
/// nothing and exist only when monitoring is on.
pub(crate) struct MonitorCounters([AtomicU64; WorkerMetrics::COLUMNS.len()]);

impl Default for MonitorCounters {
    fn default() -> MonitorCounters {
        MonitorCounters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl MonitorCounters {
    /// Adds `delta` column by column.
    pub(crate) fn add(&self, delta: &WorkerMetrics) {
        for (sum, value) in self.0.iter().zip(delta.counters()) {
            if value > 0 {
                sum.fetch_add(value, Ordering::Relaxed);
            }
        }
    }

    /// Adds what `now` gained over `seen`, then records `now` as seen.
    fn publish(&self, now: &WorkerMetrics, seen: &mut WorkerMetrics) {
        let columns = self.0.iter().zip(now.counters()).zip(seen.counters_mut());
        for ((sum, value), last) in columns {
            if value > *last {
                sum.fetch_add(value - *last, Ordering::Relaxed);
                *last = value;
            }
        }
    }

    /// The sums so far.
    fn snapshot(&self) -> WorkerMetrics {
        let mut row = WorkerMetrics::default();
        for (value, sum) in row.counters_mut().into_iter().zip(&self.0) {
            *value = sum.load(Ordering::Relaxed);
        }
        row
    }
}

/// The status-line suffixes for a monitor snapshot: ` memo NN%` once the
/// memo has been looked up, ` trace NN/NN` (trips/guard exits) once a
/// trace completed, and ` dropped N` once a live ring dropped a packet.
fn watch_suffixes(now: &WorkerMetrics) -> (String, String, String) {
    let memo = match now.memo_hits + now.memo_misses {
        0 => String::new(),
        n => format!(" memo {:.0}%", now.memo_hits as f64 / n as f64 * 100.0),
    };
    let trace = match now.trace_hits {
        0 => String::new(),
        hits => format!(" trace {hits}/{}", now.trace_guard_exits),
    };
    let drops = match now.ring_dropped {
        0 => String::new(),
        dropped => format!(" dropped {dropped}"),
    };
    (memo, trace, drops)
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

    /// Runs `body` on the caller's thread while a monitor thread redraws
    /// the `--progress`/`--watch` status line about once a second.
    /// `body` receives the shared counters, or `None` when neither is
    /// on, so an unmonitored run spawns nothing and touches no atomic.
    /// `line` renders the mode's progress text for `n` processed packets;
    /// `--watch` appends packets/sec plus the memo and trace suffixes,
    /// and a non-zero ring-drop count is appended either way.
    pub(crate) fn monitored<R>(
        &self,
        start: Instant,
        line: impl Fn(u64) -> String + Sync,
        body: impl FnOnce(Option<&MonitorCounters>) -> R,
    ) -> R {
        if !(self.progress || self.watch) {
            return body(None);
        }
        let counters = MonitorCounters::default();
        let done = AtomicBool::new(false);
        let status = self.status.clone().unwrap_or_default();
        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    std::thread::park_timeout(PROGRESS_INTERVAL);
                    let now = counters.snapshot();
                    if done.load(Ordering::Acquire) || now.packets == 0 {
                        continue;
                    }
                    let text = line(now.packets);
                    let (memo, trace, drops) = watch_suffixes(&now);
                    if self.watch {
                        let pps = now.packets as f64 / start.elapsed().as_secs_f64().max(1e-9);
                        status.refresh(&format!("{text} {pps:.0} pps{memo}{trace}{drops}"));
                    } else {
                        status.emit(&format!("{text}{drops}"));
                    }
                }
                if self.watch {
                    status.finish_refresh();
                }
            });
            let result = body(Some(&counters));
            done.store(true, Ordering::Release);
            monitor.thread().unpark();
            result
        })
    }

    /// Closes a run: charges each worker the wall-clock time it was not
    /// busy, and assembles the timeline from every lane — the logical
    /// series merge into one deterministic lane, or the wall-clock
    /// samplers and span logs merge sorted by time.
    pub(crate) fn close_run(
        &self,
        start: Instant,
        threads: usize,
        workers: &mut [WorkerMetrics],
        lanes: Vec<LaneTelemetry>,
    ) -> Option<Timeline> {
        let wall_ns = nanos(start.elapsed());
        for w in workers {
            w.idle_ns = wall_ns.saturating_sub(w.busy_ns);
        }
        let spec = self.timeline?;
        if spec.deterministic {
            let series = lanes.into_iter().filter_map(|lane| match lane {
                LaneTelemetry::Logical(series) => Some(series),
                LaneTelemetry::Wall(..) => None,
            });
            return Some(Timeline::from_logical(series.collect()));
        }
        let (samplers, logs) = lanes
            .into_iter()
            .filter_map(|lane| match lane {
                LaneTelemetry::Wall(sampler, log) => Some((sampler, log)),
                LaneTelemetry::Logical(_) => None,
            })
            .unzip();
        Some(Timeline::from_wall(spec.interval, threads, samplers, logs))
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
        let threads = resolve_threads(threads).clamp(1, packets.len().max(1));
        let total = packets.len();
        let start = Instant::now();
        // Each trace position's worker, and each worker's positions.
        let mut owner: Vec<usize> = Vec::new();
        let mut shards: Vec<Vec<usize>> = Vec::new();
        let progress = |n: u64| {
            let pct = n as f64 / total.max(1) as f64 * 100.0;
            format!("pb: {n}/{total} packets ({pct:.1}%)")
        };
        let outcomes = self.monitored(start, progress, |monitor| {
            let core = |w| WorkerCore::new(self, w, detail, make_obs(), monitor, start);
            if threads == 1 {
                return vec![core(0).run_batch(packets, 0..total)];
            }
            shards = vec![Vec::new(); threads];
            owner.reserve_exact(total);
            for (i, packet) in packets.iter().enumerate() {
                let w = self.shard_of(i, packet, threads);
                owner.push(w);
                shards[w].push(i);
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .enumerate()
                    .map(|(w, shard)| {
                        let core = core(w);
                        scope.spawn(move || core.run_batch(packets, shard.iter().copied()))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("engine workers never panic"))
                    .collect::<Vec<_>>()
            })
        });

        let mut failures = Vec::new();
        let done: Vec<BatchShard<O>> = outcomes
            .into_iter()
            .filter_map(|outcome| outcome.map_err(|f| failures.push(f)).ok())
            .collect();
        if let Some((_, e)) = failures.into_iter().min_by_key(|&(i, _)| i) {
            return Err(e);
        }
        let mut parts = Vec::with_capacity(threads);
        let mut outputs = Vec::new();
        let mut workers = Vec::with_capacity(threads);
        let mut observers = Vec::with_capacity(threads);
        let mut lanes = Vec::new();
        for shard in done {
            parts.push(shard.records);
            outputs.extend(shard.outputs);
            workers.push(shard.metrics);
            observers.push(shard.obs);
            lanes.extend(shard.lane);
        }
        let merge_start = Instant::now();
        let records = if threads == 1 {
            parts.pop().unwrap_or_default()
        } else {
            let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
            let records = owner
                .iter()
                .map(|&w| parts[w].next().expect("every packet produced a record"))
                .collect();
            outputs.sort_unstable_by_key(|&(i, _)| i);
            // The trace-order reassembly is the engine's "merge" stage:
            // one span on the merger lane.
            if let Some(mut merger) = LaneTelemetry::wall(self.timeline, threads + 1, start) {
                merger.span(Stage::Merge, 0, merge_start, total as u64);
                lanes.push(merger);
            }
            records
        };
        let merge = merge_start.elapsed();
        let output_packets = outputs.into_iter().flat_map(|(_, outs)| outs).collect();
        let timeline = self.close_run(start, threads, &mut workers, lanes);
        Ok((
            EngineRun {
                records,
                output_packets,
                threads,
                elapsed: start.elapsed(),
                merge,
                workers,
                timeline,
            },
            observers,
        ))
    }
}

/// One batch worker's share of a run, in its shard's trace order.
struct BatchShard<O> {
    records: Vec<PacketRecord>,
    /// Emitted output packets, tagged with the trace index that emitted
    /// them (only packets that emitted any).
    outputs: Vec<(usize, Vec<Packet>)>,
    metrics: WorkerMetrics,
    lane: Option<LaneTelemetry>,
    obs: O,
}

/// One worker's run-to-completion core, shared by every transport: the
/// lazily built [`PacketBench`], the lane's timeline probe, the progress
/// watermarks, and the packet and busy counters. Transports feed it
/// packets through [`WorkerCore::step`] and bracket their busy stretches
/// (a whole shard, a chunk, a burst) with [`WorkerCore::begin`] and
/// [`WorkerCore::end`], so busy time is never a clock read per packet.
pub(crate) struct WorkerCore<'a, O = NullObserver> {
    engine: &'a Engine,
    detail: Detail,
    bench: Option<PacketBench>,
    obs: O,
    probe: Option<LaneProbe>,
    monitor: Option<&'a MonitorCounters>,
    /// The worker's row: index, packets and busy time as they accrue;
    /// the rest is filled in by [`WorkerCore::finish`].
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

    /// Starts a busy stretch and returns its start, for the caller's span.
    pub(crate) fn begin(&mut self) -> Instant {
        self.busy_start = Instant::now();
        self.busy_start
    }

    /// Ends the busy stretch [`WorkerCore::begin`] started.
    pub(crate) fn end(&mut self) {
        self.stat.busy_ns += nanos(self.busy_start.elapsed());
    }

    /// Records an execution span on the lane's wall-clock log.
    pub(crate) fn exec_span(&mut self, id: u64, began: Instant, packets: u64) {
        if let Some(probe) = &mut self.probe {
            probe.lane.span(Stage::Exec, id, began, packets);
        }
    }

    /// The per-packet step every transport runs: process the packet at
    /// its global trace `index` (building the bench on first use),
    /// verify it if asked, fold it into the timeline probe, and advance
    /// the progress counters. `backlog` reports the lane's queue depth
    /// and cumulative ring drops; it is only called when a wall-clock
    /// sample is due. Returns the bench for transport-side folds.
    ///
    /// # Errors
    ///
    /// The bench build's error, or the packet's processing or
    /// verification error.
    pub(crate) fn step(
        &mut self,
        index: u64,
        packet: &Packet,
        record: &mut PacketRecord,
        backlog: impl FnOnce() -> (u64, u64),
    ) -> Result<&PacketBench, BenchError> {
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

    /// Removes the packets the application emitted since the last call.
    pub(crate) fn take_outputs(&mut self) -> Vec<Packet> {
        self.bench
            .as_mut()
            .map(PacketBench::take_output_packets)
            .unwrap_or_default()
    }

    /// Closes the worker into its metrics (`idle_ns` is settled by
    /// [`Engine::close_run`]), its timeline lane, and its observer.
    pub(crate) fn finish(
        mut self,
        queue_depth: u64,
        ring_dropped: u64,
    ) -> (WorkerMetrics, Option<LaneTelemetry>, O) {
        if let Some(bench) = &self.bench {
            read_bench(bench, &mut self.stat);
        }
        self.stat.queue_depth = queue_depth;
        self.stat.ring_dropped = ring_dropped;
        (self.stat, self.probe.map(|probe| probe.lane), self.obs)
    }

    /// The batch transport's worker loop: the shard's packets in trace
    /// order as one busy stretch, each record kept, output packets tagged
    /// with their trace index.
    fn run_batch(
        mut self,
        packets: &[Packet],
        mut shard: impl ExactSizeIterator<Item = usize>,
    ) -> Result<BatchShard<O>, (usize, BenchError)> {
        let queued = shard.len() as u64;
        let mut records = Vec::with_capacity(shard.len());
        let mut outputs = Vec::new();
        let began = self.begin();
        while let Some(i) = shard.next() {
            let remaining = shard.len() as u64;
            let mut record = PacketRecord::empty();
            self.step(i as u64, &packets[i], &mut record, || (remaining, 0))
                .map_err(|e| (i, e))?;
            records.push(record);
            let outs = self.take_outputs();
            if !outs.is_empty() {
                outputs.push((i, outs));
            }
        }
        self.end();
        self.exec_span(self.stat.worker as u64, began, queued);
        let (metrics, lane, obs) = self.finish(queued, 0);
        Ok(BatchShard {
            records,
            outputs,
            metrics,
            lane,
            obs,
        })
    }
}

/// One lane's in-flight telemetry: a wall-clock sampler plus span log, or
/// a deterministic logical series. Built per lane, merged after join.
pub(crate) enum LaneTelemetry {
    Wall(WallSampler, SpanLog),
    Logical(LogicalSeries),
}

impl LaneTelemetry {
    fn new(spec: TimelineSpec, lane: usize, t0: Instant) -> LaneTelemetry {
        if spec.deterministic {
            LaneTelemetry::Logical(LogicalSeries::new(spec))
        } else {
            LaneTelemetry::Wall(
                WallSampler::new(spec, lane, t0),
                SpanLog::new(t0, spec.capacity),
            )
        }
    }

    /// A transport-side lane (reader, producer, merger): present on
    /// wall-clock timelines only, since deterministic timelines sample
    /// inside workers alone.
    pub(crate) fn wall(
        spec: Option<TimelineSpec>,
        lane: usize,
        t0: Instant,
    ) -> Option<LaneTelemetry> {
        spec.filter(|s| !s.deterministic)
            .map(|s| LaneTelemetry::new(s, lane, t0))
    }

    /// Records a stage span on the lane's wall-clock log; logical lanes
    /// keep no spans.
    pub(crate) fn span(&mut self, stage: Stage, id: u64, began: Instant, packets: u64) {
        if let LaneTelemetry::Wall(sampler, log) = self {
            log.record(stage, id, sampler.lane(), began, packets);
        }
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
        let mut core = WorkerCore::new(
            &engine,
            0,
            Detail::counts(),
            NullObserver,
            Some(&counters),
            Instant::now(),
        );
        for (i, packet) in packets.iter().enumerate() {
            let mut record = PacketRecord::empty();
            core.step(i as u64, packet, &mut record, || (0, 0)).unwrap();
        }
        let (metrics, _, _) = core.finish(300, 0);
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
