//! Metrics exporters: hand-rolled JSON and Prometheus text format.
//!
//! A [`MetricsDoc`] bundles one profiling run — per-packet histograms,
//! per-worker engine telemetry, run timing — behind a [`Stamp`]. The
//! serializers are deliberately dependency-free (the workspace carries no
//! external crates): field order is fixed, maps are emitted in stable
//! order, and floats are printed through one helper, so two documents
//! with equal contents serialize to identical bytes. That byte-stability
//! is what lets CI diff exports against golden fixtures.

use crate::counters::Kind;
pub use crate::counters::WorkerStat;
use crate::hist::{Log2Histogram, PacketHists};
use crate::stamp::Stamp;
use std::fmt::Write as _;

/// Live-ingestion ring telemetry for one `pb live` run: the exact
/// offered/dropped/retired accounting plus occupancy and burst-size
/// distributions. Absent (`None` in [`MetricsDoc::ring`]) for batch and
/// stream runs, which have no ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RingDoc {
    /// Packets offered to the rings (accepted or dropped).
    pub produced: u64,
    /// Packets dropped because a lane's pool was exhausted.
    pub dropped: u64,
    /// Packets processed and recycled. `produced == dropped + retired`
    /// holds exactly after a completed run.
    pub retired: u64,
    /// Distribution of ring occupancy observed at each burst dequeue.
    pub occupancy: Log2Histogram,
    /// Distribution of burst sizes actually dequeued.
    pub bursts: Log2Histogram,
}

/// A complete, exportable metrics document for one profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// Provenance (schema version, commit, timestamp).
    pub stamp: Stamp,
    /// Application slug (`radix`, `trie`, ...).
    pub app: String,
    /// Trace profile slug (`mra`, ...).
    pub trace: String,
    /// Packets profiled.
    pub packets: u64,
    /// Engine worker threads used.
    pub threads: usize,
    /// Total wall-clock nanoseconds for the run (0 in deterministic mode).
    pub elapsed_ns: u64,
    /// Nanoseconds spent merging worker results (0 in deterministic mode).
    pub merge_ns: u64,
    /// Per-packet distributions.
    pub hists: PacketHists,
    /// Per-worker telemetry, ordered by worker index.
    pub workers: Vec<WorkerStat>,
    /// Live-ingestion ring telemetry (`pb live` runs only).
    pub ring: Option<RingDoc>,
}

/// Escapes a value for use inside a Prometheus label: backslash, double
/// quote, and newline must be backslash-escaped per the text exposition
/// format. Application and trace slugs are normally tame, but nothing
/// upstream *enforces* that, and a malformed label silently corrupts
/// every series that carries it.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Prints an `f64` the same way on every platform (shortest roundtrip
/// via `{:?}`, which Rust guarantees re-parses exactly).
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

fn json_hist(out: &mut String, indent: &str, name: &str, h: &Log2Histogram, last: bool) {
    let _ = write!(out, "{indent}\"{name}\": {{");
    let _ = write!(
        out,
        "\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"buckets\": [",
        h.count(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        fmt_f64(h.mean())
    );
    let mut first = true;
    for (_, lo, hi, count) in h.iter_nonzero() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {count}}}");
    }
    out.push_str("]}");
    if !last {
        out.push(',');
    }
    out.push('\n');
}

/// Writes `  "name": [`, one element per line, and the closing `  ]`
/// (without a trailing comma or newline).
pub(crate) fn json_array<T>(
    out: &mut String,
    name: &str,
    items: &[T],
    write: impl Fn(&T, &mut String),
) {
    let _ = writeln!(out, "  \"{name}\": [");
    for (i, item) in items.iter().enumerate() {
        out.push_str("    ");
        write(item, out);
        out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]");
}

impl MetricsDoc {
    /// Serializes the document as JSON. Stable field order, no external
    /// dependencies; equal documents produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  {},", self.stamp.json_fields());
        let _ = writeln!(out, "  \"app\": \"{}\",", self.app);
        let _ = writeln!(out, "  \"trace\": \"{}\",", self.trace);
        let _ = writeln!(out, "  \"packets\": {},", self.packets);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"elapsed_ns\": {},", self.elapsed_ns);
        let _ = writeln!(out, "  \"merge_ns\": {},", self.merge_ns);
        out.push_str("  \"histograms\": {\n");
        let hists: Vec<_> = self.hists.iter().collect();
        for (i, (name, h)) in hists.iter().enumerate() {
            json_hist(&mut out, "    ", name, h, i + 1 == hists.len());
        }
        out.push_str("  },\n");
        json_array(&mut out, "workers", &self.workers, WorkerStat::write_json);
        out.push_str(",\n");
        match &self.ring {
            None => out.push_str("  \"ring\": null\n"),
            Some(ring) => {
                out.push_str("  \"ring\": {\n");
                let _ = writeln!(out, "    \"produced\": {},", ring.produced);
                let _ = writeln!(out, "    \"dropped\": {},", ring.dropped);
                let _ = writeln!(out, "    \"retired\": {},", ring.retired);
                json_hist(&mut out, "    ", "occupancy", &ring.occupancy, false);
                json_hist(&mut out, "    ", "bursts", &ring.bursts, true);
                out.push_str("  }\n");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Serializes the document in Prometheus text exposition format.
    /// Histograms follow the Prometheus convention: cumulative `_bucket`
    /// series with an `le` upper bound, plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let labels = format!(
            "app=\"{}\",trace=\"{}\"",
            escape_label(&self.app),
            escape_label(&self.trace)
        );
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP pb_build_info Build and schema provenance of this export."
        );
        let _ = writeln!(out, "# TYPE pb_build_info gauge");
        let _ = writeln!(
            out,
            "pb_build_info{{schema_version=\"{}\",git_commit=\"{}\"}} 1",
            self.stamp.schema_version, self.stamp.git_commit
        );
        let _ = writeln!(out, "# HELP pb_packets_total Packets profiled.");
        let _ = writeln!(out, "# TYPE pb_packets_total counter");
        let _ = writeln!(out, "pb_packets_total{{{labels}}} {}", self.packets);
        let _ = writeln!(out, "# HELP pb_run_elapsed_ns Run wall-clock time.");
        let _ = writeln!(out, "# TYPE pb_run_elapsed_ns gauge");
        let _ = writeln!(out, "pb_run_elapsed_ns{{{labels}}} {}", self.elapsed_ns);
        let _ = writeln!(out, "# HELP pb_merge_ns Worker result merge time.");
        let _ = writeln!(out, "# TYPE pb_merge_ns gauge");
        let _ = writeln!(out, "pb_merge_ns{{{labels}}} {}", self.merge_ns);
        for (name, h) in self.hists.iter() {
            let help = "Per-packet distribution.";
            prom_hist(&mut out, &labels, &format!("pb_{name}"), help, h);
        }
        self.prom_workers(&mut out, &labels, false);
        if let Some(ring) = &self.ring {
            let _ = writeln!(
                out,
                "# HELP pb_ring_produced_total Packets offered to the live-ingestion rings."
            );
            let _ = writeln!(out, "# TYPE pb_ring_produced_total counter");
            let _ = writeln!(out, "pb_ring_produced_total{{{labels}}} {}", ring.produced);
            let _ = writeln!(
                out,
                "# HELP pb_ring_dropped_total Packets dropped because a ring's pool was \
                 exhausted."
            );
            let _ = writeln!(out, "# TYPE pb_ring_dropped_total counter");
            let _ = writeln!(out, "pb_ring_dropped_total{{{labels}}} {}", ring.dropped);
            let _ = writeln!(
                out,
                "# HELP pb_ring_retired_total Packets processed and recycled to the pool."
            );
            let _ = writeln!(out, "# TYPE pb_ring_retired_total counter");
            let _ = writeln!(out, "pb_ring_retired_total{{{labels}}} {}", ring.retired);
            self.prom_workers(&mut out, &labels, true);
            let help = "Distribution observed at each burst dequeue.";
            for (name, h) in [
                ("pb_ring_occupancy", &ring.occupancy),
                ("pb_ring_burst_size", &ring.bursts),
            ] {
                prom_hist(&mut out, &labels, name, help, h);
            }
        }
        out
    }

    /// One series per [`WorkerStat`] column that has one, in the worker
    /// section (`ring == false`) or the ring section.
    fn prom_workers(&self, out: &mut String, labels: &str, ring: bool) {
        for (i, column) in WorkerStat::COLUMNS.iter().enumerate() {
            let Some(series) = column.series.filter(|s| s.ring == ring) else {
                continue;
            };
            prom_header(out, series.name, series.kind, column.help);
            for w in &self.workers {
                let value = w.counters()[i];
                let name = series.name;
                let _ = writeln!(out, "{name}{{{labels},worker=\"{}\"}} {value}", w.worker);
            }
        }
    }
}

/// The `# HELP` and `# TYPE` lines that open a metric family.
fn prom_header(out: &mut String, name: &str, kind: Kind, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {}", kind.name());
}

/// One histogram family: cumulative `_bucket` series up to `+Inf`, then
/// the exact `_sum` and the `_count`.
fn prom_hist(out: &mut String, labels: &str, name: &str, help: &str, h: &Log2Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (_, _, hi, count) in h.iter_nonzero() {
        cum += count;
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{hi}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}.0", h.sum());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::{Stamp, METRICS_SCHEMA_VERSION};

    fn sample_doc() -> MetricsDoc {
        let mut hists = PacketHists::new();
        hists.record(100, 10, 20, 5);
        hists.record(200, 12, 24, 6);
        hists.record(150, 11, 22, 5);
        MetricsDoc {
            stamp: Stamp::deterministic(METRICS_SCHEMA_VERSION),
            app: "radix".to_string(),
            trace: "mra".to_string(),
            packets: 3,
            threads: 2,
            elapsed_ns: 0,
            merge_ns: 0,
            hists,
            workers: vec![
                WorkerStat {
                    worker: 0,
                    packets: 2,
                    busy_ns: 0,
                    idle_ns: 0,
                    queue_depth: 2,
                    memo_hits: 1,
                    memo_misses: 1,
                    memo_evictions: 0,
                    block_bailouts: 4,
                    traces_formed: 2,
                    trace_hits: 9,
                    trace_guard_exits: 3,
                    trace_declines: 1,
                    ring_dropped: 0,
                },
                WorkerStat {
                    worker: 1,
                    packets: 1,
                    busy_ns: 0,
                    idle_ns: 0,
                    queue_depth: 1,
                    ..WorkerStat::default()
                },
            ],
            ring: None,
        }
    }

    #[test]
    fn json_is_stable_and_structured() {
        let doc = sample_doc();
        let a = doc.to_json();
        let b = doc.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains(&format!("\"schema_version\": {METRICS_SCHEMA_VERSION}")));
        assert!(a.contains("\"app\": \"radix\""));
        assert!(a.contains("\"instructions_per_packet\""));
        assert!(a.contains("{\"lo\": 128, \"hi\": 255, \"count\": 2}"));
        assert!(a.contains("\"worker\": 1, \"packets\": 1"));
        assert!(a.contains(
            "\"memo_hits\": 1, \"memo_misses\": 1, \"memo_evictions\": 0, \"block_bailouts\": 4"
        ));
        // Crude balance check on the hand-rolled writer.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let doc = sample_doc();
        let prom = doc.to_prometheus();
        // 100 falls in [64,127], 150 and 200 in [128,255].
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"127\"} 1"
        ));
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"255\"} 3"
        ));
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"+Inf\"} 3"
        ));
        assert!(prom.contains("pb_instructions_per_packet_sum{app=\"radix\",trace=\"mra\"} 450.0"));
        assert!(prom.contains("pb_instructions_per_packet_count{app=\"radix\",trace=\"mra\"} 3"));
        assert!(
            prom.contains("pb_worker_packets_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 2")
        );
        assert!(prom.contains(&format!(
            "pb_build_info{{schema_version=\"{METRICS_SCHEMA_VERSION}\",git_commit=\"deterministic\"}} 1"
        )));
        assert!(
            prom.contains("pb_worker_memo_hits_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 1")
        );
        assert!(prom
            .contains("pb_worker_memo_misses_total{app=\"radix\",trace=\"mra\",worker=\"1\"} 0"));
    }

    #[test]
    fn histogram_sum_is_the_exact_integer() {
        // Seven values summing to 29: mean * count is 29.000000000000004
        // in f64, so the sum must come from the exact accumulator.
        let mut doc = sample_doc();
        doc.hists = PacketHists::new();
        for v in [1u64, 2, 3, 4, 5, 6, 8] {
            doc.hists.record(v, 0, 0, 0);
        }
        assert_eq!(doc.hists.instructions.sum(), 29);
        let prom = doc.to_prometheus();
        assert!(
            prom.contains("pb_instructions_per_packet_sum{app=\"radix\",trace=\"mra\"} 29.0\n"),
            "{prom}"
        );
    }

    #[test]
    fn empty_histograms_export_cleanly() {
        let mut doc = sample_doc();
        doc.hists = PacketHists::new();
        doc.workers.clear();
        doc.packets = 0;
        let json = doc.to_json();
        assert!(json.contains("\"buckets\": []"));
        let prom = doc.to_prometheus();
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"+Inf\"} 0"
        ));
    }

    #[test]
    fn empty_worker_set_keeps_metadata_but_emits_no_series() {
        let mut doc = sample_doc();
        doc.workers.clear();
        let json = doc.to_json();
        // The workers array must still be present (and balanced) even
        // with no elements.
        assert!(json.contains("\"workers\": [\n  ]"));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let prom = doc.to_prometheus();
        // HELP/TYPE headers stay (scrapers key on them) but no per-worker
        // sample lines follow.
        assert!(prom.contains("# TYPE pb_worker_packets_total counter"));
        assert!(!prom.contains("pb_worker_packets_total{app="));
        assert!(!prom.contains("pb_worker_block_bailouts_total{app="));
    }

    #[test]
    fn prometheus_labels_are_escaped() {
        assert_eq!(escape_label("radix"), "radix");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        let mut doc = sample_doc();
        doc.trace = "m\"ra\\x\n".to_string();
        let prom = doc.to_prometheus();
        assert!(prom.contains("trace=\"m\\\"ra\\\\x\\n\""));
        // No raw newline may survive inside a label value: every line
        // either is a comment or ends in a sample value.
        for line in prom.lines() {
            assert!(
                line.starts_with('#') || line.ends_with(|c: char| c.is_ascii_digit()),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn schema_version_four_covers_trace_telemetry() {
        // v2 grew `block_bailouts`; v3 grew per-worker `ring_dropped`
        // and the optional `ring` section; v4 grew the trace-cache
        // counters. All are consumer-visible schema changes: the stamp
        // must say so.
        assert_eq!(METRICS_SCHEMA_VERSION, 4);
        // The full v4 column list, in export order: a new row changes it
        // and must come with a schema bump.
        assert_eq!(
            WorkerStat::COLUMNS.map(|c| c.name),
            [
                "packets",
                "busy_ns",
                "idle_ns",
                "queue_depth",
                "memo_hits",
                "memo_misses",
                "memo_evictions",
                "block_bailouts",
                "traces_formed",
                "trace_hits",
                "trace_guard_exits",
                "trace_declines",
                "ring_dropped",
            ]
        );
        let doc = sample_doc();
        assert_eq!(doc.stamp.schema_version, METRICS_SCHEMA_VERSION);
        let json = doc.to_json();
        assert!(json.contains("\"block_bailouts\""));
        assert!(json.contains(
            "\"traces_formed\": 2, \"trace_hits\": 9, \
             \"trace_guard_exits\": 3, \"trace_declines\": 1"
        ));
        assert!(json.contains("\"ring_dropped\": 0"));
        assert!(json.contains("\"ring\": null"));
        let prom = doc.to_prometheus();
        assert!(prom.contains("pb_worker_block_bailouts_total"));
        assert!(prom.contains("pb_trace_formed_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 2"));
        assert!(prom.contains("pb_trace_hits_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 9"));
        assert!(
            prom.contains("pb_trace_guard_exits_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 3")
        );
        assert!(
            prom.contains("pb_trace_declines_total{app=\"radix\",trace=\"mra\",worker=\"1\"} 0")
        );
    }

    /// [`sample_doc`] as a `pb live` run would export it: one lane
    /// dropped 7 of 100 offered packets.
    fn ring_doc() -> MetricsDoc {
        let mut doc = sample_doc();
        let mut occupancy = Log2Histogram::new();
        let mut bursts = Log2Histogram::new();
        for v in [3u64, 9, 30] {
            occupancy.record(v);
        }
        for v in [8u64, 32, 32] {
            bursts.record(v);
        }
        doc.workers[1].ring_dropped = 7;
        doc.ring = Some(RingDoc {
            produced: 100,
            dropped: 7,
            retired: 93,
            occupancy,
            bursts,
        });
        doc
    }

    #[test]
    fn ring_doc_exports_match_the_pinned_bytes() {
        // Whole documents, not substrings: the fixtures pin every
        // memo, trace and ring column, which the CLI goldens leave at
        // zero. `UPDATE_GOLDEN=1` rewrites them, as for the CLI goldens.
        let doc = ring_doc();
        for (file, current) in [
            ("sample_doc_ring.json", doc.to_json()),
            ("sample_doc_ring.prom", doc.to_prometheus()),
        ] {
            let path = format!("{}/testdata/{file}", env!("CARGO_MANIFEST_DIR"));
            if std::env::var_os("UPDATE_GOLDEN").is_some() {
                std::fs::write(&path, &current).unwrap();
            }
            let pinned = std::fs::read_to_string(&path).unwrap();
            assert!(pinned == current, "{file} drifted:\n{current}");
        }
    }

    #[test]
    fn ring_section_exports_in_both_formats() {
        let doc = ring_doc();
        let json = doc.to_json();
        assert_eq!(json, doc.clone().to_json(), "byte-stable");
        assert!(json.contains("\"produced\": 100"));
        assert!(json.contains("\"dropped\": 7"));
        assert!(json.contains("\"retired\": 93"));
        assert!(json.contains("\"occupancy\""));
        assert!(json.contains("\"bursts\""));
        assert!(json.contains("\"ring_dropped\": 7"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let prom = doc.to_prometheus();
        assert!(prom.contains("pb_ring_dropped_total{app=\"radix\",trace=\"mra\"} 7"));
        assert!(prom.contains("pb_ring_produced_total{app=\"radix\",trace=\"mra\"} 100"));
        assert!(prom.contains("pb_ring_retired_total{app=\"radix\",trace=\"mra\"} 93"));
        assert!(prom
            .contains("pb_worker_ring_dropped_total{app=\"radix\",trace=\"mra\",worker=\"1\"} 7"));
        assert!(prom.contains("pb_ring_occupancy_bucket"));
        assert!(prom.contains("pb_ring_burst_size_count{app=\"radix\",trace=\"mra\"} 3"));
    }
}
