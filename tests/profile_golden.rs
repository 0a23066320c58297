//! Golden fixtures and determinism tests for the observability layer.
//!
//! Three invariants pinned here:
//!
//! 1. **Thread-count invariance** — `pb profile` output (via
//!    [`ProfileResult::render`]) is byte-identical at 1, 4, and 7 engine
//!    threads for a fixed app/trace/seed, and so is the deterministic
//!    metrics export's histogram section.
//! 2. **Golden profile** — the IPv4-radix heat map + histograms over a
//!    seeded MRA trace match a checked-in fixture
//!    (`tests/golden/profile_radix_mra.txt`), and so do its deterministic
//!    JSON and Prometheus exports (`metrics_radix_mra.{json,prom}`), so
//!    any change to the simulator, block partition, disasm labels, trace
//!    generator, or rendering shows up as a reviewable text diff.
//! 3. **Heat vs. analysis consistency** — the dynamic heat map agrees
//!    with the analysis layer's per-packet block sets: a block is entered
//!    at least as many times as packets that execute it, exactly the same
//!    blocks are touched, and per-block instruction counts sum to the
//!    trace's retired instructions.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test profile_golden
//! ```

use nettrace::synth::TraceProfile;
use packetbench::apps::{App, AppId};
use packetbench::profile::{run_profile, ProfileSpec};
use packetbench::WorkloadConfig;

const GOLDEN_PROFILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/profile_radix_mra.txt"
);
const GOLDEN_METRICS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/metrics_radix_mra.json"
);
const GOLDEN_PROM: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/metrics_radix_mra.prom"
);

/// The workload `pb profile radix MRA -n 40 --seed 42` runs: CI diffs
/// the CLI's output against the same fixtures, so this must use the
/// CLI's default config.
fn radix_spec(threads: usize) -> ProfileSpec {
    ProfileSpec {
        packets: 40,
        seed: 42,
        threads,
        ..ProfileSpec::new(AppId::Ipv4Radix, TraceProfile::mra())
    }
}

fn check_golden(path: &str, current: &str, what: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("{path} missing; run with UPDATE_GOLDEN=1 to create"));
    assert!(
        golden == current,
        "{what} drifted from the golden fixture \
         (UPDATE_GOLDEN=1 to bless an intentional change).\n\
         --- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn profile_render_matches_golden_fixture() {
    let result = run_profile(&radix_spec(1)).unwrap();
    check_golden(GOLDEN_PROFILE, &result.render(), "pb profile output");
}

#[test]
fn deterministic_metrics_json_matches_golden_fixture() {
    let result = run_profile(&radix_spec(1)).unwrap();
    let doc = result.metrics_doc(true);
    check_golden(GOLDEN_METRICS, &doc.to_json(), "deterministic metrics JSON");
    check_golden(
        GOLDEN_PROM,
        &doc.to_prometheus(),
        "deterministic metrics Prometheus text",
    );
}

#[test]
fn profile_output_is_byte_identical_across_thread_counts() {
    let serial = run_profile(&radix_spec(1)).unwrap();
    for threads in [4, 7] {
        let parallel = run_profile(&radix_spec(threads)).unwrap();
        assert_eq!(
            serial.render(),
            parallel.render(),
            "pb profile output differs at {threads} threads"
        );
        // The deterministic export only varies in its worker list (one
        // entry per worker); histograms and totals must match exactly.
        assert_eq!(serial.hists, parallel.hists, "{threads} threads");
        assert_eq!(serial.heat, parallel.heat, "{threads} threads");
    }
}

#[test]
fn flow_profile_is_thread_invariant_despite_shared_state() {
    // Flow Classification is the stateful app: bucket sharding must keep
    // the streamed histograms and heat exact in parallel too.
    let spec = |threads| ProfileSpec {
        packets: 120,
        seed: 9,
        threads,
        config: WorkloadConfig::small(),
        ..ProfileSpec::new(AppId::FlowClass, TraceProfile::cos())
    };
    let serial = run_profile(&spec(1)).unwrap();
    let parallel = run_profile(&spec(5)).unwrap();
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn heat_map_agrees_with_analysis_block_structure() {
    use packetbench::analysis::TraceAnalysis;
    use packetbench::framework::{Detail, PacketBench};

    let spec = radix_spec(1);
    let result = run_profile(&spec).unwrap();

    // Recompute the analysis layer's per-packet block sets over the same
    // seeded trace.
    let app = App::build(spec.app, &spec.config).unwrap();
    let mut bench = PacketBench::with_config(app, &spec.config).unwrap();
    let block_map = bench.block_map().clone();
    let mut analysis = TraceAnalysis::new(bench.app().image().program(), &block_map);
    let trace = nettrace::synth::SyntheticTrace::new(spec.trace, spec.seed);
    bench
        .run_trace(trace.take(spec.packets), Detail::counts(), |_, r| {
            analysis.add(&block_map, &r)
        })
        .unwrap();

    let heat = &result.heat;
    assert_eq!(heat.num_blocks(), block_map.num_blocks());
    let packet_counts = analysis.block_packet_counts();
    let mut executed_blocks = 0;
    for (b, &packets) in packet_counts.iter().enumerate() {
        // A block entered by a packet is entered at least once for that
        // packet, and untouched blocks have no entries or instructions.
        assert!(
            heat.entries()[b] >= packets,
            "block {b}: {} entries < {packets} packets executing it",
            heat.entries()[b],
        );
        assert_eq!(
            heat.entries()[b] > 0,
            packets > 0,
            "block {b}: heat and analysis disagree about whether it ran"
        );
        assert_eq!(heat.instructions()[b] > 0, heat.entries()[b] > 0);
        if heat.entries()[b] > 0 {
            executed_blocks += 1;
        }
    }
    assert!(executed_blocks > 10, "radix should touch many blocks");
    // Per-block instruction counts are a partition of the retired total.
    let total: u64 = result.run.records.iter().map(|r| r.stats.instret).sum();
    assert_eq!(heat.total_instructions(), total);
    // And the streamed blocks-per-packet histogram saw the exact same
    // per-packet block counts as the analysis layer.
    let mut expected = npobs::Log2Histogram::new();
    for blocks in analysis.blocks_per_packet() {
        expected.record(blocks);
    }
    assert_eq!(result.hists.blocks, expected);
}
