//! The counter tables: every per-worker and per-sample counter, declared
//! once.
//!
//! Each row of a `counter_table!` names one counter, its clock, its help
//! text and (for per-worker counters) its Prometheus series. The macro
//! turns the rows into the struct's `pub u64` fields and a [`Column`] per
//! field, in row order. Everything downstream walks those columns: the
//! JSON objects, the CSV header and rows, the per-worker Prometheus
//! series, the field-wise merge, the `--deterministic` zeroing of
//! wall-clock columns, and the engine's monitor atomics behind `--watch`.
//! Adding a counter is one row here, a schema-version bump, and
//! `UPDATE_GOLDEN=1` to regenerate the golden fixtures.

use std::fmt::{Display, Write as _};

/// The clock a counter runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// A pure function of the trace (and, per worker, of the sharding):
    /// kept in `--deterministic` exports.
    Det,
    /// Depends on timing: zeroed in `--deterministic` exports.
    Wall,
}

/// A Prometheus metric type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
}

impl Kind {
    /// The type name in a `# TYPE` line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// A column's per-worker Prometheus series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// The series name.
    pub name: &'static str,
    /// The series type.
    pub kind: Kind,
    /// Emitted with the ring section (after the ring totals, `pb live`
    /// only) instead of with the other worker series.
    pub ring: bool,
}

/// One counter column of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// The field name, which is also the JSON key and CSV header.
    pub name: &'static str,
    /// Whether `--deterministic` exports keep or zero the column.
    pub clock: Clock,
    /// One-line description: the field's doc and the Prometheus `HELP`.
    pub help: &'static str,
    /// The per-worker Prometheus series, for exported tables.
    pub series: Option<Series>,
}

/// Writes `{"key": value, ...}`: the keys, then the columns.
fn write_json_object(
    out: &mut String,
    keys: &[(&str, &dyn Display)],
    columns: impl Iterator<Item = (&'static str, u64)>,
) {
    out.push('{');
    for (name, value) in keys {
        let _ = write!(out, "\"{name}\": {value}, ");
    }
    for (i, (name, value)) in columns.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {value}");
    }
    out.push('}');
}

/// Declares a counter table: a struct with leading `pub` key fields
/// followed by one `pub u64` counter per row, plus its [`Column`]s and
/// the column-wise operations every sink shares.
///
/// A row is `name: Clock [Kind series [ring]] "help";` — for example
/// `memo_hits: Det Counter pb_worker_memo_hits_total "Packets answered
/// ...";` — optionally after doc comments that extend the field's doc
/// beyond the help line.
macro_rules! counter_table {
    (@series) => { None };
    (@series $kind:ident $series:ident $($ring:ident)?) => {
        Some($crate::counters::Series {
            name: stringify!($series),
            kind: $crate::counters::Kind::$kind,
            ring: counter_table!(@ring $($ring)?),
        })
    };
    (@ring) => { false };
    (@ring ring) => { true };
    (
        $(#[$meta:meta])*
        pub struct $table:ident {
            $( $(#[$key_doc:meta])* pub $key:ident: $key_ty:ty, )+
            counters {
                $(
                    $(#[$field_doc:meta])*
                    $field:ident: $clock:ident $($kind:ident $series:ident $($ring:ident)?)? $help:literal;
                )+
            }
        }
    ) => {
        $(#[$meta])*
        pub struct $table {
            $( $(#[$key_doc])* pub $key: $key_ty, )+
            $( #[doc = $help] $(#[$field_doc])* pub $field: u64, )+
        }

        impl $table {
            /// The counter columns, in export order.
            pub const COLUMNS: [$crate::counters::Column; [$(stringify!($field)),+].len()] = [$(
                $crate::counters::Column {
                    name: stringify!($field),
                    clock: $crate::counters::Clock::$clock,
                    help: $help,
                    series: counter_table!(@series $($kind $series $($ring)?)?),
                },
            )+];

            /// The counters, in column order.
            pub fn counters(&self) -> [u64; Self::COLUMNS.len()] {
                [$(self.$field),+]
            }

            /// The counters by reference, in column order.
            pub fn counters_mut(&mut self) -> [&mut u64; Self::COLUMNS.len()] {
                [$(&mut self.$field),+]
            }

            /// `(column name, value)` pairs, in column order.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::COLUMNS.iter().map(|c| c.name).zip(self.counters())
            }

            /// Adds every counter of `other` into this row; keys stay.
            pub fn add(&mut self, other: &Self) {
                for (mine, theirs) in self.counters_mut().into_iter().zip(other.counters()) {
                    *mine += theirs;
                }
            }

            /// Zeroes the wall-clock columns, as `--deterministic`
            /// exports require.
            pub fn zero_wall(&mut self) {
                for (value, column) in self.counters_mut().into_iter().zip(&Self::COLUMNS) {
                    if column.clock == $crate::counters::Clock::Wall {
                        *value = 0;
                    }
                }
            }

            /// Sets each column that `from` names to the value it gives.
            /// Names this table lacks are ignored.
            pub fn copy_matching(&mut self, from: impl IntoIterator<Item = (&'static str, u64)>) {
                for (name, value) in from {
                    if let Some(i) = Self::COLUMNS.iter().position(|c| c.name == name) {
                        *self.counters_mut()[i] = value;
                    }
                }
            }

            /// Writes the row as one JSON object: keys, then columns.
            pub fn write_json(&self, out: &mut String) {
                let keys: &[(&str, &dyn ::std::fmt::Display)] = &[$((stringify!($key), &self.$key)),+];
                $crate::counters::write_json_object(out, keys, self.named());
            }

            /// The CSV header line: keys, then columns.
            pub fn csv_header() -> String {
                let keys = [$(stringify!($key)),+].into_iter();
                let names: Vec<&str> = keys.chain(Self::COLUMNS.iter().map(|c| c.name)).collect();
                names.join(",") + "\n"
            }

            /// Writes the row as one CSV line.
            pub fn write_csv(&self, out: &mut String) {
                use ::std::fmt::Write as _;
                $( let _ = write!(out, "{},", self.$key); )+
                for (i, value) in self.counters().into_iter().enumerate() {
                    let _ = write!(out, "{}{value}", if i == 0 { "" } else { "," });
                }
                out.push('\n');
            }
        }
    };
}

counter_table! {
    /// One engine worker's telemetry for a run.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct WorkerStat {
        /// Worker index (0-based).
        pub worker: usize,
        counters {
            packets: Det Counter pb_worker_packets_total "Packets per engine worker.";
            busy_ns: Wall Gauge pb_worker_busy_ns "Busy time per engine worker.";
            idle_ns: Wall Gauge pb_worker_idle_ns "Idle time per engine worker.";
            queue_depth: Det Gauge pb_worker_queue_depth "Packets queued to each worker's shard.";
            /// Zero when memoization is off.
            memo_hits: Det Counter pb_worker_memo_hits_total "Packets answered from the worker's flow-memoization cache.";
            /// Zero when memoization is off.
            memo_misses: Det Counter pb_worker_memo_misses_total "Packets that missed the memoization cache and were simulated.";
            /// Zero when memoization is off.
            memo_evictions: Det Counter pb_worker_memo_evictions_total "Memoization cache entries displaced by a colliding key.";
            /// Zero when block-level dispatch is off or every packet was
            /// answered from the memoization cache.
            block_bailouts: Det Counter pb_worker_block_bailouts_total "Superblock executions that bailed back to single-step execution.";
            /// Zero until warm-up completes and on paths without the trace layer.
            traces_formed: Det Counter pb_trace_formed_total "Hot traces formed by the one-shot formation pass.";
            trace_hits: Det Counter pb_trace_hits_total "Complete trips through formed traces (one fused delta each).";
            trace_guard_exits: Det Counter pb_trace_guard_exits_total "Trips that fell off mid-trace on a mispredicted guard.";
            trace_declines: Det Counter pb_trace_declines_total "Trace dispatches declined for instruction-budget risk.";
            /// Zero outside `pb live`: batch and stream modes apply
            /// backpressure instead of dropping.
            ring_dropped: Wall Counter pb_worker_ring_dropped_total ring "Ring-ingestion drops per worker lane.";
        }
    }
}

counter_table! {
    /// One timestamped counter snapshot from one lane. Counters are
    /// cumulative for the lane (rates are derived at export time), so a
    /// dropped sample never corrupts later ones. Samples on the logical
    /// clock carry only the deterministic columns.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Sample {
        /// Wall nanoseconds since run start, or packets retired in global
        /// trace order for deterministic timelines.
        pub t: u64,
        /// The lane that recorded the sample (see
        /// [`Timeline::lane_name`](crate::Timeline::lane_name)).
        pub lane: usize,
        counters {
            packets: Det "Packets retired by this lane so far (globally, on the logical clock).";
            instructions: Det "Instructions retired so far.";
            mem_packet: Det "Accesses to packet memory so far.";
            mem_non_packet: Det "Accesses to non-packet memory so far.";
            /// Packets left in a batch worker's shard, chunks waiting in a
            /// stream worker's input queue, in-flight chunks for the reader.
            queue_depth: Wall "Items currently queued to the lane.";
            busy_ns: Wall "Nanoseconds spent executing packets so far.";
            backpressure_ns: Wall "Nanoseconds blocked on backpressure (the reader's semaphore wait) so far.";
            memo_hits: Wall "Flow-memoization cache hits so far (per-worker caches depend on the thread count).";
            memo_misses: Wall "Flow-memoization cache misses so far.";
            memo_evictions: Wall "Flow-memoization cache evictions so far.";
            block_bailouts: Det "Superblock-engine bail-outs to the per-instruction loop so far.";
            ring_dropped: Wall "Packets dropped at the lane's ingestion ring so far (`pb live` overload).";
        }
    }
}
