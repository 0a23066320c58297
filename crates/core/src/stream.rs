//! Bounded-memory streaming execution: [`Engine::run_streaming`].
//!
//! `Engine::run` materializes the whole trace before any packet executes,
//! so peak memory grows linearly with trace length. This module feeds the
//! engine's workers from a pull-based [`PacketSource`] through a
//! fixed-capacity pipeline, so memory use is a function of the
//! configuration alone:
//!
//! ```text
//! peak buffered packets <= (threads + max_inflight) * chunk_size
//! ```
//!
//! (each worker buffers at most one chunk of partially-filled shard
//! buffer on the reader side, plus at most `max_inflight` dispatched
//! chunks anywhere between reader flush and the end of their run).
//!
//! ## Pipeline
//!
//! * A **reader** thread runs the engine's source loop
//!   ([`Engine::read_source`]): it pulls packets from the source, gives
//!   each its global trace index, and shards it with the exact rule batch
//!   runs use ([`Engine::shard_of`]). Per-shard buffers flush as
//!   fixed-size [`Chunk`]s; before dispatching a chunk the reader
//!   acquires one permit from a [`Semaphore`] sized `max_inflight`, then
//!   pushes the chunk to the owning worker's input queue.
//! * **Workers** (one per shard) run the engine's worker loop (see
//!   [`crate::engine`]): each pops chunks FIFO, runs every packet at its
//!   global trace index — the batch clock — folds it into the worker's
//!   own [`StreamAggregate`], drops emitted output packets, and releases
//!   the chunk's permit.
//! * After join, the calling thread merges the per-worker folds.
//!
//! ## Determinism
//!
//! Per-packet results are bit-identical to the batch engine's: the shard
//! rule, each worker's FIFO processing order, and the global-index clock
//! are all the same, so every `PacketRecord` matches the batch run's
//! record for that index. [`StreamAggregate`] folds are exact integer
//! sums plus an exact histogram — associative and commutative — so the
//! merged per-worker folds equal the serial trace-order fold at **any**
//! thread count and chunk size. `pb stream` therefore prints
//! byte-identical reports to `pb run`.
//!
//! ## Why it cannot deadlock
//!
//! Only the reader waits on a permit, and every permit belongs to a
//! chunk that is queued to, or running on, a worker that waits on
//! nothing but its own input queue: the worker runs it and releases the
//! permit. Every queue's capacity equals the permit count, so no push
//! blocks. The wait graph is acyclic for any `max_inflight >= 1`; see
//! DESIGN.md.
//!
//! On error the run reports the failing packet with the lowest trace
//! index (see [`crate::engine`]): the reader stops reading but still
//! flushes its partial chunks, and workers skip only packets above the
//! lowest failure, releasing every permit.

use std::cell::Cell;
use std::time::{Duration, Instant};

use nettrace::{Packet, PacketSource};
use npobs::timeline::{LaneTelemetry, Sample, Stage, Timeline};
use npsim::NullObserver;
use npstream::{BoundedQueue, Chunk, Semaphore, ShardBuffers};

use crate::analysis::StreamAggregate;
use crate::engine::{
    nanos, per_sec, resolve_threads, Engine, Failure, Fold, Transport, WorkerMetrics,
};
use crate::error::BenchError;
use crate::framework::Detail;

/// Sizing of the streaming pipeline. Zeros mean "pick a default":
/// `threads = 0` uses available parallelism, `chunk_size = 0` uses
/// [`StreamConfig::DEFAULT_CHUNK_SIZE`], and `max_inflight = 0` uses
/// four chunks per worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Packets per dispatched chunk (0 = default).
    pub chunk_size: usize,
    /// Chunks allowed in flight between reader flush and the end of
    /// their run (0 = default). This is the backpressure window: the
    /// reader stalls once `max_inflight` chunks are dispatched but not yet
    /// run.
    pub max_inflight: usize,
}

impl StreamConfig {
    /// Default packets per chunk when `chunk_size` is 0.
    pub const DEFAULT_CHUNK_SIZE: usize = 1024;

    /// Resolves the zero placeholders against `threads` workers.
    fn resolve(self) -> (usize, usize, usize) {
        let threads = resolve_threads(self.threads);
        let chunk_size = if self.chunk_size == 0 {
            StreamConfig::DEFAULT_CHUNK_SIZE
        } else {
            self.chunk_size
        };
        let max_inflight = if self.max_inflight == 0 {
            threads * 4
        } else {
            self.max_inflight
        };
        (threads, chunk_size, max_inflight)
    }
}

/// The result of an [`Engine::run_streaming`]: the online aggregate plus
/// run telemetry. Unlike [`crate::engine::EngineRun`] there is no
/// per-packet record vector — that is the point.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// The merged online aggregate over every packet streamed.
    pub aggregate: StreamAggregate,
    /// Worker threads actually used.
    pub threads: usize,
    /// Packets per chunk actually used.
    pub chunk_size: usize,
    /// In-flight chunk window actually used.
    pub max_inflight: usize,
    /// Chunks dispatched through the pipeline.
    pub chunks: u64,
    /// Wall-clock time of the run, including per-worker app builds.
    pub elapsed: Duration,
    /// Per-worker telemetry, ordered by worker index. `queue_depth` is
    /// the number of packets enqueued to the worker.
    pub workers: Vec<WorkerMetrics>,
    /// The in-flight telemetry timeline (reader, worker, and merger
    /// lanes), present when the engine ran with [`Engine::timeline`].
    pub timeline: Option<Timeline>,
    /// Peak resident set of the process at run end, in KiB. `None` when
    /// the platform exposes no `/proc/self/status` — absent, not zero,
    /// so reports cannot mistake "unknown" for "tiny".
    pub peak_rss_kb: Option<u64>,
}

impl StreamRun {
    /// Packets streamed through the pipeline.
    pub fn packets(&self) -> u64 {
        self.aggregate.packets()
    }

    /// Simulated packets per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        per_sec(self.packets(), self.elapsed)
    }
}

/// A stream worker's input: chunks from the reader, tagged with their
/// dispatch-order id; a chunk's permit goes back once it has run.
struct ChunkLane<'a> {
    input: &'a BoundedQueue<(u64, Chunk<Packet>)>,
    permits: &'a Semaphore,
    chunk: Vec<(u64, Packet)>,
}

impl Transport for ChunkLane<'_> {
    fn next_burst(&mut self) -> Option<(u64, usize)> {
        let (id, chunk) = self.input.pop()?;
        self.chunk = chunk.items;
        Some((id, self.chunk.len()))
    }

    fn packet(&self, i: usize) -> (u64, &Packet) {
        let (index, packet) = &self.chunk[i];
        (*index, packet)
    }

    fn release(&mut self) {
        self.chunk = Vec::new();
        self.permits.release();
    }

    fn queued(&self) -> u64 {
        self.input.len() as u64
    }
}

impl Engine {
    /// Streams `source` through the sharded workers with bounded memory
    /// and returns the online aggregate. The aggregate is bit-identical
    /// to what a batch [`Engine::run`] over the same packets produces, at
    /// any thread count and chunk size.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing packet, or the source's
    /// read error if no earlier packet failed — the error a serial run
    /// would have stopped at.
    pub fn run_streaming<S>(
        &self,
        source: S,
        detail: Detail,
        config: StreamConfig,
    ) -> Result<StreamRun, BenchError>
    where
        S: PacketSource + Send,
    {
        self.stream(source, detail, config).map_err(|(_, e)| e)
    }

    /// [`Engine::run_streaming`], failing with the failing packet's index.
    pub(crate) fn stream<S: PacketSource + Send>(
        &self,
        source: S,
        detail: Detail,
        config: StreamConfig,
    ) -> Result<StreamRun, (u64, BenchError)> {
        let (threads, chunk_size, max_inflight) = config.resolve();
        let start = Instant::now();
        // One permit per chunk from reader flush to the end of its run;
        // every queue holds as many chunks as there are permits, so no
        // push blocks (see module docs).
        let permits = Semaphore::new(max_inflight);
        let queues: Vec<BoundedQueue<(u64, Chunk<Packet>)>> = (0..threads)
            .map(|_| BoundedQueue::new(max_inflight))
            .collect();
        let inputs = queues.iter().map(|input| {
            let chunk = Vec::new();
            let lane = ChunkLane {
                input,
                permits: &permits,
                chunk,
            };
            (lane, Fold::default(), NullObserver)
        });
        let mut chunks = 0;
        let reader = |failure: &Failure| {
            let mut buffers = ShardBuffers::new(threads, chunk_size);
            let (backpressure_ns, mut id) = (Cell::new(0), 0);
            let mut dispatch = |(shard, chunk): (usize, Chunk<Packet>),
                                lane: &mut Option<LaneTelemetry>| {
                let began = Instant::now();
                permits.acquire();
                backpressure_ns.set(backpressure_ns.get() + nanos(began.elapsed()));
                let packets = chunk.len() as u64;
                queues[shard]
                    .push((id, chunk))
                    .expect("queues close after the last chunk");
                if let Some(lane) = lane {
                    // Covers the backpressure wait plus the queue push.
                    lane.span(Stage::Read, id, began, packets);
                }
                id += 1;
            };
            let mut source = Some(source);
            let mut lane = self.read_source(
                start,
                threads,
                (1, None),
                failure,
                || Ok(source.take().expect("one pass")),
                |_, shard, packet, lane| {
                    if let Some(chunk) = buffers.push(shard, packet) {
                        dispatch(chunk, lane);
                    }
                },
                || Sample {
                    queue_depth: max_inflight.saturating_sub(permits.available()) as u64,
                    backpressure_ns: backpressure_ns.get(),
                    ..Sample::default()
                },
            );
            // Partial chunks go out even after a failure: the packets in
            // them below it must still run.
            for chunk in buffers.finish() {
                dispatch(chunk, &mut lane);
            }
            queues.iter().for_each(BoundedQueue::close);
            chunks = id;
            lane
        };
        let progress = |n: u64| format!("pb: {n} packets streamed");
        let inputs = inputs.collect();
        let ((fold, _), workers, timeline) =
            self.drive(start, detail, progress, inputs, reader, Fold::merged)?;
        Ok(StreamRun {
            aggregate: fold.aggregate,
            threads,
            chunk_size,
            max_inflight,
            chunks,
            elapsed: start.elapsed(),
            workers,
            timeline,
            peak_rss_kb: npstream::peak_rss_kb(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppId;
    use crate::config::WorkloadConfig;
    use nettrace::synth::{SyntheticTrace, TraceProfile};
    use nettrace::{Limited, Timestamp, TraceError};

    fn batch_aggregate(engine: &Engine, packets: &[Packet]) -> StreamAggregate {
        let run = engine.run(packets, Detail::counts(), 1).unwrap();
        let mut agg = StreamAggregate::new();
        for record in &run.records {
            agg.add_record(record);
        }
        agg
    }

    fn synth(n: u64, seed: u64) -> Limited<SyntheticTrace> {
        Limited::new(SyntheticTrace::new(TraceProfile::mra(), seed), n)
    }

    #[test]
    fn streaming_matches_batch_across_shapes() {
        let engine = Engine::new(AppId::Ipv4Trie);
        let packets = SyntheticTrace::new(TraceProfile::mra(), 7).take_packets(200);
        let want = batch_aggregate(&engine, &packets);
        for threads in [1, 3] {
            for chunk_size in [1, 16, 1024] {
                let run = engine
                    .run_streaming(
                        synth(200, 7),
                        Detail::counts(),
                        StreamConfig {
                            threads,
                            chunk_size,
                            max_inflight: 2,
                        },
                    )
                    .unwrap();
                assert_eq!(
                    run.aggregate, want,
                    "threads={threads} chunk_size={chunk_size}"
                );
                assert_eq!(run.packets(), 200);
                assert_eq!(run.threads, threads);
                assert_eq!(
                    run.workers.iter().map(|w| w.packets).sum::<u64>(),
                    200,
                    "threads={threads} chunk_size={chunk_size}"
                );
            }
        }
    }

    #[test]
    fn stateful_flow_app_streams_exactly() {
        let engine = Engine::new(AppId::FlowClass);
        let packets = SyntheticTrace::new(TraceProfile::mra(), 31).take_packets(300);
        let want = batch_aggregate(&engine, &packets);
        for threads in [1, 4] {
            let run = engine
                .run_streaming(
                    synth(300, 31),
                    Detail::counts(),
                    StreamConfig {
                        threads,
                        chunk_size: 32,
                        max_inflight: 3,
                    },
                )
                .unwrap();
            assert_eq!(run.aggregate, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_source_yields_empty_run() {
        let run = Engine::new(AppId::Ipv4Trie)
            .run_streaming(synth(0, 1), Detail::counts(), StreamConfig::default())
            .unwrap();
        assert_eq!(run.packets(), 0);
        assert_eq!(run.chunks, 0);
    }

    #[test]
    fn minimal_window_still_completes() {
        // max_inflight = 1 fully serializes the pipeline; it must still
        // finish and still match.
        let engine = Engine::new(AppId::Ipv4Radix);
        let packets = SyntheticTrace::new(TraceProfile::mra(), 3).take_packets(90);
        let want = batch_aggregate(&engine, &packets);
        let run = engine
            .run_streaming(
                synth(90, 3),
                Detail::counts(),
                StreamConfig {
                    threads: 4,
                    chunk_size: 8,
                    max_inflight: 1,
                },
            )
            .unwrap();
        assert_eq!(run.aggregate, want);
    }

    #[test]
    fn bad_packet_fails_the_stream() {
        struct BadAfter {
            inner: Limited<SyntheticTrace>,
            left: u64,
        }
        impl PacketSource for BadAfter {
            fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
                if self.left == 0 {
                    return Ok(Some(Packet::from_l3(Timestamp::default(), vec![0x45; 8])));
                }
                self.left -= 1;
                self.inner.next_packet()
            }
        }
        let source = BadAfter {
            inner: synth(u64::MAX, 5),
            left: 40,
        };
        let err = Engine::new(AppId::Ipv4Radix)
            .run_streaming(
                source,
                Detail::counts(),
                StreamConfig {
                    threads: 3,
                    chunk_size: 4,
                    max_inflight: 2,
                },
            )
            .unwrap_err();
        assert!(matches!(err, BenchError::BadPacket(_)), "{err:?}");
    }

    #[test]
    fn source_error_surfaces() {
        struct Failing(u64);
        impl PacketSource for Failing {
            fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
                if self.0 == 0 {
                    return Err(TraceError::Truncated {
                        what: "test record",
                    });
                }
                self.0 -= 1;
                Ok(Some(
                    SyntheticTrace::new(TraceProfile::mra(), self.0).next_packet(),
                ))
            }
        }
        let err = Engine::new(AppId::Ipv4Trie)
            .run_streaming(
                Failing(10),
                Detail::counts(),
                StreamConfig {
                    threads: 2,
                    chunk_size: 4,
                    max_inflight: 2,
                },
            )
            .unwrap_err();
        assert!(matches!(err, BenchError::BadPacket(_)), "{err:?}");
    }

    #[test]
    fn memoized_stream_matches_unmemoized_across_thread_counts() {
        use crate::framework::MemoMode;
        // The per-worker cache lives across chunks: with chunk_size 16
        // and 400 packets over 32 flows, most hits are cross-chunk.
        let zipf = TraceProfile::with_zipf(32, 120);
        let source = |n| Limited::new(SyntheticTrace::new(zipf, 27), n);
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            let want = Engine::new(id)
                .run_streaming(
                    source(400),
                    Detail::counts(),
                    StreamConfig {
                        threads: 1,
                        chunk_size: 64,
                        max_inflight: 2,
                    },
                )
                .unwrap()
                .aggregate;
            for threads in [1, 4, 7] {
                let run = Engine::new(id)
                    .memo(MemoMode::On)
                    .run_streaming(
                        source(400),
                        Detail::counts(),
                        StreamConfig {
                            threads,
                            chunk_size: 16,
                            max_inflight: 3,
                        },
                    )
                    .unwrap();
                assert_eq!(run.aggregate, want, "{id:?} threads={threads}");
                let hits: u64 = run.workers.iter().map(|w| w.memo_hits).sum();
                let misses: u64 = run.workers.iter().map(|w| w.memo_misses).sum();
                assert_eq!(hits + misses, 400, "{id:?} threads={threads}");
                // Each worker's private cache pays at most one miss per
                // flow (32 flows, ignoring rare collisions), so hits
                // can't fall below 400 - 32*threads. With chunk_size 16
                // that floor is only reachable if caches survive across
                // chunks — a cache that died per chunk would miss once
                // per flow per chunk.
                assert!(
                    hits >= (400 - 32 * threads as u64).saturating_sub(16),
                    "{id:?} threads={threads}: {hits} hits"
                );
            }
        }
    }

    #[test]
    fn verify_mode_streams() {
        let run = Engine::with_config(AppId::Ipv4Trie, WorkloadConfig::default())
            .verify(true)
            .run_streaming(
                synth(60, 11),
                Detail::counts(),
                StreamConfig {
                    threads: 2,
                    chunk_size: 16,
                    max_inflight: 2,
                },
            )
            .unwrap();
        assert_eq!(run.packets(), 60);
    }
}
