//! # npstream — bounded-memory streaming primitives for PacketBench
//!
//! `pb run` materializes its whole trace as a `Vec<Packet>` before the
//! engine starts, which caps trace size at RAM. This crate provides the
//! building blocks of the streaming alternative, where trace size is
//! bounded by disk and memory use is a function of the *configuration*
//! (threads, chunk size, in-flight window), never of the packet count:
//!
//! * [`BoundedQueue`] — fixed-capacity blocking queues coupling the
//!   reader to the shard workers,
//! * [`Semaphore`] — the in-flight chunk window: one permit per chunk
//!   from reader flush until a worker has run it, capping total buffered
//!   packets and so applying backpressure to the reader,
//! * [`Chunk`] / [`ShardBuffers`] — deterministic chunk building over the
//!   sharded packet stream: flush order depends only on trace, sharding,
//!   and chunk size — never on thread timing — and each worker's chunks
//!   carry its packets in trace order,
//! * [`SourceSpec`] — parsing of `pb stream` source strings
//!   (`capture.pcap`, `trace.tsh`, `synth:mra:seed=42:packets=10000000`)
//!   into [`nettrace::PacketSource`] instances,
//! * [`peak_rss_kb`] — the peak-RSS probe behind the bounded-memory
//!   checks in CI and the stream benchmark.
//!
//! The concrete engine integration (`Engine::run_streaming`) lives in the
//! `packetbench` crate; this crate stays dependency-light (only
//! `nettrace`) so any consumer can reuse the pipeline pieces.
//!
//! ## Why the pipeline cannot deadlock
//!
//! Only the reader waits on a permit, and every permit held belongs to a
//! chunk that is queued to, or running on, a worker. Workers wait on
//! nothing but their own input queue, so each runs its chunk and releases
//! the permit. No push blocks, because every queue's capacity equals the
//! permit count. The wait graph is acyclic, so progress is guaranteed for
//! any `max_inflight >= 1`; see DESIGN.md for the full argument.

pub mod chunk;
pub mod queue;
pub mod rss;
pub mod sem;
pub mod spec;

pub use chunk::{Chunk, ShardBuffers};
pub use queue::{BoundedQueue, Closed};
pub use rss::peak_rss_kb;
pub use sem::Semaphore;
pub use spec::{SourceSpec, SpecError};
