//! The traced run: a subtraction ladder that splits each application's
//! end-to-end time into layers.
//!
//! Every rung is one of the program's public calls, timed from here
//! inside a span. A rung adds one layer to the one below it, so the step
//! between two rungs is that layer's cost:
//!
//! | rung | call | adds |
//! |---|---|---|
//! | S | `process_packet_via` with an interpreter that returns at once | staging: l3 check, packet copy, pad, boot |
//! | V | `process_packet_via` with one reused block-table `Cpu` | interpretation |
//! | I | `process_packet_into`, memo off | fixed cost: `Cpu` construction, stats reset, record |
//! | I_on | `process_packet_into`, memo on | memo probe and insert, minus the skipped work |
//! | E1 | `Engine::run`, 1 worker | build, record vector |
//! | EN | `Engine::run`, one worker per core | shard, fan-out, idle, ordered merge |
//! | R, F | pcap parse; `StreamAggregate::add_record` | source and fold of the stream/live paths |
//! | ST, LV | `run_streaming`, `run_live` | chunk queue; npring lanes |
//!
//! Rungs S, V and I run over the packets the workload's path interprets:
//! all of them without memo, the memo misses with it. Rungs run
//! interleaved, one round per application after another, until the time
//! is up, and each layer is the difference of its rungs' medians over the
//! rounds. The ladder telescopes, so the layers sum to the median of the
//! traced end-to-end calls; the ledger's residual compares that sum with
//! the median of the same calls made without spans in the same rounds.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use nettrace::pcap::PcapReader;
use nettrace::Packet;
use npsim::{
    BlockTable, Cpu, CpuState, Interpreter, Memory, Reg, RunConfig, RunStats, SimError, SysHandler,
};
use packetbench::analysis::StreamAggregate;
use packetbench::report::render_aggregate_report;
use packetbench::{App, AppId, BenchError, Detail, MemoMode, PacketRecord, WorkloadConfig};

use crate::gate::{fresh_bench, Digest, Tally};
use crate::spans::{nanos, Tracer};
use crate::stats::median;
use crate::workload::{self, Inputs, Mode, SetupSamples, Workload};
use crate::{Args, SETUP_REPS};

/// Traced/untraced pairs of each end-to-end call per round.
const PAIRS: usize = 2;
/// Timed rounds a traced run makes at least.
const MIN_ROUNDS: usize = 3;
/// Repetitions of one memo hit per round.
const HIT_REPS: u32 = 4096;
/// Repetitions of the report render per round.
const REPORT_REPS: u32 = 64;
/// The ROADMAP's estimate of the non-interpretation share of a trie or
/// flow packet, and how far a measurement may sit from it and still be
/// called consistent.
const ROADMAP_FIXED_SHARE: f64 = 2.0 / 3.0;
const ROADMAP_TOLERANCE: f64 = 0.10;

pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

/// An interpreter that does nothing: `process_packet_via` with it is the
/// framework's staging alone.
struct Stager {
    regs: [u32; 32],
    pc: u32,
}

impl Interpreter for Stager {
    fn reset(&mut self) {
        self.regs = [0; 32];
    }

    fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    fn state(&self) -> CpuState {
        CpuState {
            regs: self.regs,
            pc: self.pc,
        }
    }

    fn run_into(
        &mut self,
        _mem: &mut Memory,
        _config: &RunConfig,
        _handler: &mut dyn SysHandler,
        _stats: &mut RunStats,
    ) -> Result<(), SimError> {
        Ok(())
    }
}

/// Per-application state of the ladder.
struct Rungs<'a> {
    app: AppId,
    reference: &'a Digest,
    /// The packets the path interprets (memo misses under memo), when not
    /// all of them.
    misses: Option<Vec<Packet>>,
    memoizable: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Rungs<'_> {
    fn push(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    fn m(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| median(v))
    }

    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }
}

/// The sample key of a mode's untraced end-to-end calls.
fn untraced_key(d: Mode) -> &'static str {
    match d {
        Mode::Batch => "U.batch",
        Mode::Stream => "U.stream",
        Mode::Live => "U.live",
    }
}

/// Which layers sum to a workload's end-to-end time, in ledger order.
fn layers(w: &Workload) -> &'static [&'static str] {
    if w.modes == [Mode::Batch] {
        &[
            "setup",
            "framework.stage",
            "npsim.interpret",
            "framework.fixed",
            "engine.record",
            "engine.shard_merge",
        ]
    } else {
        &[
            "setup",
            "nettrace.pcap",
            "framework.stage",
            "npsim.interpret",
            "framework.fixed",
            "memo",
            "analysis.fold",
            "stream.transport",
            "ring.transport",
        ]
    }
}

fn err(e: BenchError) -> String {
    e.to_string()
}

pub fn run(
    w: &'static Workload,
    config: &WorkloadConfig,
    inputs: &Inputs,
    cores: usize,
    references: &[Digest],
    setup: &mut SetupSamples,
    args: &Args,
) -> Result<Report, String> {
    let mut tracer = Tracer::new(w.name);
    let mut rungs = Vec::with_capacity(w.apps.len());
    for (&app, reference) in w.apps.iter().zip(references) {
        let memoizable = fresh_bench(app, config, MemoMode::On)?.memo_active();
        // Under memo, the path interprets only the misses: find them once.
        let misses = if w.memo == MemoMode::On && memoizable {
            let mut bench = fresh_bench(app, config, MemoMode::On)?;
            let mut record = PacketRecord::empty();
            let mut misses = Vec::new();
            for p in &inputs.packets {
                let before = bench.memo_counters().misses;
                bench
                    .process_packet_into(p, Detail::counts(), &mut record)
                    .map_err(err)?;
                if bench.memo_counters().misses > before {
                    misses.push(p.clone());
                }
            }
            Some(misses)
        } else {
            None
        };
        rungs.push(Rungs {
            app,
            reference,
            misses,
            memoizable,
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
        });
    }

    let mut gate = Tally::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        let n = rungs.len();
        for k in 0..n {
            let r = &mut rungs[(k + round) % n];
            tracer
                .span("ladder.app", r.app.slug(), |t| {
                    ladder_round(t, w, config, inputs, cores, r, &mut gate, round)
                })
                .0?;
        }
        tracer
            .span("setup.build_init", "", |_| setup.rep(config))
            .0?;
        round += 1;
    }
    while setup.reps() < SETUP_REPS {
        setup.rep(config)?;
    }
    for (k, r) in rungs.iter_mut().enumerate() {
        derive(w, r, (setup.build_s(k) + setup.init_s(k)) * 1e9, cores);
    }

    let spans_path = crate::bench_dir()
        .join("out")
        .join(format!("spans-{}-seed{}.json", w.name, args.seed));
    tracer
        .write_json(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!(
        "# {} spans written to {}",
        tracer.len(),
        spans_path.display()
    );

    let mut metrics = vec![
        (
            "apps.build_ms",
            (0..w.apps.len()).map(|k| setup.build_s(k)).sum::<f64>() * 1e3,
            "ms",
        ),
        (
            "framework.init_ms",
            (0..w.apps.len()).map(|k| setup.init_s(k)).sum::<f64>() * 1e3,
            "ms",
        ),
    ];
    metrics.extend(summarize(w, inputs.packets.len() as f64, &rungs, round));
    Ok(Report {
        metrics,
        attempted: gate.attempted,
        failed: gate.failed,
    })
}

/// One round of every rung for one application.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn ladder_round(
    t: &mut Tracer,
    w: &Workload,
    config: &WorkloadConfig,
    inputs: &Inputs,
    cores: usize,
    r: &mut Rungs,
    gate: &mut Tally,
    round: usize,
) -> Result<(), String> {
    let slug = r.app.slug();
    let engine = w.engine(r.app, config);
    let packets = &inputs.packets;
    let interpreted: &[Packet] = r.misses.as_deref().unwrap_or(packets);

    // R: the pcap source alone.
    let (read, pcap) = t.span("nettrace.pcap_read", slug, |_| -> Result<u64, String> {
        let file = std::fs::File::open(&inputs.pcap.0).map_err(|e| e.to_string())?;
        let mut reader =
            PcapReader::new(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
        let mut n = 0;
        while let Some(p) = reader.next_packet().map_err(|e| e.to_string())? {
            black_box(&p);
            n += 1;
        }
        Ok(n)
    });
    gate.count(
        &format!("{slug} pcap packets"),
        0,
        read?,
        packets.len() as u64,
    );

    // S: staging only.
    let run_config = RunConfig::default();
    let mut bench = fresh_bench(r.app, config, MemoMode::Off)?;
    let mut record = PacketRecord::empty();
    let (res, stage) = t.span(
        "framework.stage_only",
        slug,
        |_| -> Result<(), BenchError> {
            let mut stager = Stager {
                regs: [0; 32],
                pc: 0,
            };
            for p in interpreted {
                bench.process_packet_via(&mut stager, p, &run_config, &mut record)?;
            }
            Ok(())
        },
    );
    res.map_err(err)?;

    // V: pre-staged interpretation on one reused CPU. The CPU borrows a
    // second build of the same program, since `process_packet_via`
    // borrows the bench mutably.
    let mut bench = fresh_bench(r.app, config, MemoMode::Off)?;
    let twin = App::build(r.app, config).map_err(err)?;
    let table = BlockTable::build(twin.image().program());
    let (res, via) = t.span(
        "npsim.interpret",
        slug,
        |_| -> Result<(u64, u64), BenchError> {
            let mut cpu = Cpu::new(twin.image().program(), twin.map()).with_blocks(&table);
            let mut insts = 0;
            for p in interpreted {
                bench.process_packet_via(&mut cpu, p, &run_config, &mut record)?;
                insts += record.stats.instret;
            }
            Ok((insts, cpu.block_bailouts()))
        },
    );
    let (via_insts, bailouts) = res.map_err(err)?;
    let trips = table.trace_stats();

    // I: the framework's per-packet call, memo off.
    let mut bench = fresh_bench(r.app, config, MemoMode::Off)?;
    let (res, into) = t.span(
        "framework.process_packet_into",
        slug,
        |_| -> Result<u64, BenchError> {
            let mut insts = 0;
            for p in interpreted {
                bench.process_packet_into(p, Detail::counts(), &mut record)?;
                insts += record.stats.instret;
            }
            Ok(insts)
        },
    );
    let into_insts = res.map_err(err)?;
    gate.count(
        &format!("{slug} interpret vs process_packet_into"),
        interpreted.len(),
        via_insts,
        into_insts,
    );
    if r.misses.is_none() {
        gate.count(
            &format!("{slug} process_packet_into"),
            0,
            into_insts,
            r.reference.aggregate.total_instructions(),
        );
    }

    // I_on and the hit loop: the memo layer, where the app passes the
    // static memo guard.
    let mut into_on = nanos(into) as f64;
    if r.memoizable {
        let mut bench = fresh_bench(r.app, config, MemoMode::On)?;
        let (res, d) = t.span(
            "memo.process_packet_into",
            slug,
            |_| -> Result<u64, BenchError> {
                let mut insts = 0;
                for p in packets {
                    bench.process_packet_into(p, Detail::counts(), &mut record)?;
                    insts += record.stats.instret;
                }
                Ok(insts)
            },
        );
        let insts = res.map_err(err)?;
        gate.count(
            &format!("{slug} memo-on process_packet_into"),
            packets.len(),
            insts,
            r.reference.aggregate.total_instructions(),
        );
        let c = bench.memo_counters();
        r.counts.insert("memo.hits", c.hits as f64);
        r.counts.insert("memo.misses", c.misses as f64);
        r.counts.insert("memo.evictions", c.evictions as f64);
        into_on = nanos(d) as f64;

        let mut bench = fresh_bench(r.app, config, MemoMode::On)?;
        bench
            .process_packet_into(&packets[0], Detail::counts(), &mut record)
            .map_err(err)?;
        let (res, d) = t.span("memo.hit_loop", slug, |_| -> Result<(), BenchError> {
            for _ in 0..HIT_REPS {
                bench.process_packet_into(&packets[0], Detail::counts(), &mut record)?;
            }
            Ok(())
        });
        res.map_err(err)?;
        if bench.memo_counters().hits != u64::from(HIT_REPS) {
            return Err(format!("{slug}: the repeated packet missed the memo"));
        }
        r.push("hit_ns", nanos(d) as f64 / f64::from(HIT_REPS));
    }

    // E1 and EN: the batch engine.
    let (run1, e1) = t.span("engine.run_1_worker", slug, |_| {
        engine.run(packets, Detail::counts(), 1)
    });
    let run1 = run1.map_err(err)?;
    gate.records(
        &format!("{slug} engine 1 worker"),
        &run1.records,
        r.reference,
    );
    let reference = r.reference;
    // A call of a run mode inside a span. On the workload's own path the same
    // call also runs without a span, next to it and in alternating order,
    // PAIRS times: the pairs give the untraced time the ledger must account
    // for, and the tracing overhead.
    let mut rung = |t: &mut Tracer,
                    r: &mut Rungs,
                    key: &'static str,
                    name: &'static str,
                    d: Mode,
                    threads: usize| {
        let on_path = w.modes.contains(&d);
        let mut last = None;
        for pair in 0..if on_path { PAIRS } else { 1 } {
            let traced_first = (round + pair).is_multiple_of(2);
            let plain = |gate: &mut Tally| {
                let c = workload::call(&engine, d, inputs, threads);
                gate.call(&format!("{slug} {} untraced", d.name()), &c, reference);
                nanos(c.wall) as f64 * c.threads as f64
            };
            let mut alone = 0.0;
            if on_path && !traced_first {
                alone = plain(gate);
            }
            // The span brackets the call alone; its digest comes after.
            let (timed, traced) = t.span(name, slug, |_| {
                workload::invoke(&engine, d, inputs, threads)
            });
            let c = timed.finish();
            gate.call(&format!("{slug} {}", d.name()), &c, reference);
            if on_path && traced_first {
                alone = plain(gate);
            }
            let traced = nanos(traced) as f64;
            r.push(key, traced);
            if on_path {
                r.push(untraced_key(d), alone);
                r.push("traced_over_untraced", traced * c.threads as f64 / alone);
            }
            last = Some(c);
        }
        last.expect("at least one call")
    };
    let run_n = rung(t, r, "EN", "engine.run_n_workers", Mode::Batch, cores);
    r.push("engine.util", run_n.worker_util());
    r.push("engine.merge_ns", nanos(run_n.merge) as f64);
    r.push("engine.imbalance", run_n.imbalance());
    drop(run_n);

    // F: the record fold the stream and live paths make.
    let (agg, fold) = t.span("analysis.fold", slug, |_| {
        let mut agg = StreamAggregate::new();
        for rec in &run1.records {
            agg.add_record(black_box(rec));
        }
        agg
    });
    drop(run1);
    let (_, render) = t.span("report.render", slug, |_| {
        for _ in 0..REPORT_REPS {
            black_box(render_aggregate_report(
                r.app,
                black_box(&agg),
                false,
                false,
            ));
        }
    });

    // ST and LV: the stream and live modes, one worker each.
    let st = rung(t, r, "ST", "stream.run_streaming", Mode::Stream, 1);
    let lv = rung(t, r, "LV", "live.run_live", Mode::Live, 1);
    r.push("report_ns", nanos(render) as f64 / f64::from(REPORT_REPS));
    r.push("stream.util", st.worker_util());
    r.push("live.util", lv.worker_util());
    if let Some((occupancy, burst)) = lv.ring {
        r.push("ring.occupancy", occupancy);
        r.push("ring.burst", burst);
    }

    let ns = |d: Duration| nanos(d) as f64;
    for (key, v) in [
        ("R", ns(pcap)),
        ("S", ns(stage)),
        ("V", ns(via)),
        ("I", ns(into)),
        ("I_on", into_on),
        ("E1", ns(e1)),
        ("F", ns(fold)),
    ] {
        r.push(key, v);
    }
    r.counts.insert("via.insts", via_insts as f64);
    r.counts.insert("via.bailouts", bailouts as f64);
    r.counts.insert("trace.hits", trips.hits as f64);
    r.counts
        .insert("trace.guard_exits", trips.guard_exits as f64);
    Ok(())
}

/// Derives the layers from the rungs' medians. `b` is one set-up (build +
/// init) in ns, the median over the whole run.
fn derive(w: &Workload, r: &mut Rungs, b: f64, cores: usize) {
    let t_n = cores as f64;
    let k = w.modes.len() as f64;
    let x = |key: &str| r.m(key);
    let (pcap, stage, via, into, into_on) = (x("R"), x("S"), x("V"), x("I"), x("I_on"));
    let (e1, en, fold, st, lv) = (x("E1"), x("EN"), x("F"), x("ST"), x("LV"));
    // The per-packet work of the path: memo on where the path memoizes.
    let path = if w.memo == MemoMode::On {
        into_on
    } else {
        into
    };
    let core = pcap + path + fold + b;
    let mut steps = vec![
        ("engine.record", e1 - path - b),
        ("engine.shard_merge", t_n * en - e1 - (t_n - 1.0) * b),
        ("stream.transport", st - core),
        ("ring.transport", lv - core),
        ("framework.stage", stage),
        ("npsim.interpret", via - stage),
        ("framework.fixed", into - via),
    ];
    if w.modes == [Mode::Batch] {
        steps.push(("setup", t_n * b));
    } else {
        // Every layer below the transport runs once per call.
        for step in steps.iter_mut().skip(4) {
            step.1 *= k;
        }
        steps.extend([
            ("setup", k * b),
            ("nettrace.pcap", k * pcap),
            ("memo", k * (into_on - into)),
            ("analysis.fold", k * fold),
        ]);
    }
    for (key, v) in steps {
        r.push(key, v);
    }
}

/// Turns the rounds into the per-layer metrics and prints the ledger.
fn summarize(
    w: &Workload,
    packets: f64,
    rungs: &[Rungs],
    rounds: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let sum = |f: &dyn Fn(&Rungs) -> f64| rungs.iter().map(f).sum::<f64>();
    let interpreted = |r: &Rungs| r.misses.as_ref().map_or(packets, |m| m.len() as f64);
    let calls = if w.modes == [Mode::Batch] {
        1.0
    } else {
        w.modes.len() as f64
    };
    let unit = if w.modes == [Mode::Batch] {
        "worker-ns"
    } else {
        "ns"
    };

    println!(
        "# ledger ({rounds} rounds; {unit} per packet of each end-to-end call; layers from rung medians):"
    );
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    let mut untraced_total = 0.0;
    let mut ledger_total = 0.0;
    for r in rungs {
        let per_pkt = packets * calls;
        let untraced: f64 = w.modes.iter().map(|&d| r.m(untraced_key(d))).sum();
        let mut sum_layers = 0.0;
        println!("#   {}:", r.app.slug());
        for &layer in layers(w) {
            let v = r.m(layer);
            sum_layers += v;
            *totals.entry(layer).or_default() += v;
            println!(
                "#     {layer:<20} {:>12.1} ({:>5.1}%)",
                v / per_pkt,
                v / untraced * 100.0
            );
        }
        let residual = (untraced - sum_layers) / untraced * 100.0;
        println!(
            "#     {:<20} {:>12.1}   untraced {:.1}, residual {residual:+.2}% ({})",
            "sum",
            sum_layers / per_pkt,
            untraced / per_pkt,
            if residual.abs() <= 5.0 {
                "within 5%"
            } else {
                "OUTSIDE 5%"
            }
        );
        untraced_total += untraced;
        ledger_total += sum_layers;
        // The ROADMAP's estimate is for a packet that is interpreted.
        if matches!(r.app, AppId::Ipv4Trie | AppId::FlowClass) && r.misses.is_none() {
            let share = (r.m("I") - (r.m("V") - r.m("S"))) / r.m("I");
            let verdict = if (share - ROADMAP_FIXED_SHARE).abs() <= ROADMAP_TOLERANCE {
                "consistent with"
            } else {
                "CONTRADICTS"
            };
            println!(
                "#     non-interpretation share of a serial {} packet: {:.1}% ({verdict} the ROADMAP estimate of about two-thirds)",
                r.app.slug(),
                share * 100.0
            );
        }
    }
    let mut ranked: Vec<(&str, f64)> = totals.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    if let Some((name, v)) = ranked.first() {
        println!(
            "# largest layer on {}: {name} ({:.1}% of the ledger)",
            w.name,
            v / ledger_total * 100.0
        );
    }

    let memo: Vec<&Rungs> = rungs.iter().filter(|r| r.memoizable).collect();
    let msum = |f: &dyn Fn(&Rungs) -> f64| memo.iter().map(|r| f(r)).sum::<f64>();
    let hits = msum(&|r| r.count("memo.hits"));
    let misses = msum(&|r| r.count("memo.misses"));
    let trace_hits = sum(&|r| r.count("trace.hits"));
    let overhead: Vec<f64> = rungs
        .iter()
        .flat_map(|r| {
            r.samples
                .get("traced_over_untraced")
                .cloned()
                .unwrap_or_default()
        })
        .collect();
    let imbalance = if w.modes == [Mode::Batch] {
        median(
            &rungs
                .iter()
                .map(|r| r.m("engine.imbalance"))
                .collect::<Vec<_>>(),
        )
    } else {
        0.0
    };
    let served = if w.memo == MemoMode::On {
        hits / (packets * memo.len().max(1) as f64)
    } else {
        0.0
    };
    let fixed_share = sum(&|r| r.m("I") - (r.m("V") - r.m("S"))) / sum(&|r| r.m("I"));
    println!("# property shares:");
    println!(
        "#   instructions per packet:        {:.1}",
        sum(&|r| r.reference.aggregate.total_instructions() as f64)
            / (packets * rungs.len() as f64)
    );
    println!("#   packets served by the memo:     {served:.4}");
    println!("#   fixed-cost share of packet time: {fixed_share:.4} (process_packet_into minus interpretation)");
    println!("#   worker load imbalance:          {imbalance:.4}");

    let all = packets * rungs.len() as f64;
    vec![
        ("nettrace.pcap_ns_per_pkt", sum(&|r| r.m("R")) / all, "ns"),
        (
            "npsim.ns_per_inst",
            sum(&|r| r.m("V") - r.m("S")) / sum(&|r| r.count("via.insts")),
            "ns",
        ),
        (
            "npsim.insts_per_pkt",
            sum(&|r| r.reference.aggregate.total_instructions() as f64) / all,
            "count",
        ),
        (
            "npsim.trace_trip_ratio",
            if trace_hits > 0.0 {
                (trace_hits - sum(&|r| r.count("trace.guard_exits"))) / trace_hits
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "npsim.bailouts_per_pkt",
            sum(&|r| r.count("via.bailouts")) / sum(&interpreted),
            "count",
        ),
        (
            "framework.stage_ns_per_pkt",
            sum(&|r| r.m("S")) / sum(&interpreted),
            "ns",
        ),
        (
            "framework.fixed_ns_per_pkt",
            sum(&|r| r.m("I") - r.m("V")) / sum(&interpreted),
            "ns",
        ),
        (
            "memo.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "memo.hit_ns",
            msum(&|r| r.m("hit_ns")) / memo.len().max(1) as f64,
            "ns",
        ),
        (
            "memo.miss_extra_ns",
            if misses > 0.0 {
                msum(&|r| r.m("I_on") - r.m("I") - r.count("memo.hits") * r.m("hit_ns")) / misses
            } else {
                0.0
            },
            "ns",
        ),
        (
            "memo.evictions_per_kpkt",
            msum(&|r| r.count("memo.evictions")) / all * 1e3,
            "count",
        ),
        (
            "engine.shard_merge_ns_per_pkt",
            sum(&|r| r.m("engine.shard_merge")) / all,
            "ns",
        ),
        (
            "engine.record_ns_per_pkt",
            sum(&|r| r.m("engine.record")) / all,
            "ns",
        ),
        (
            "engine.merge_ms",
            sum(&|r| r.m("engine.merge_ns")) / 1e6,
            "ms",
        ),
        (
            "engine.worker_util",
            median(&rungs.iter().map(|r| r.m("engine.util")).collect::<Vec<_>>()),
            "ratio",
        ),
        ("analysis.fold_ns_per_pkt", sum(&|r| r.m("F")) / all, "ns"),
        (
            "stream.overhead_ns_per_pkt",
            sum(&|r| r.m("stream.transport")) / all,
            "ns",
        ),
        (
            "stream.worker_util",
            median(&rungs.iter().map(|r| r.m("stream.util")).collect::<Vec<_>>()),
            "ratio",
        ),
        (
            "ring.overhead_ns_per_pkt",
            sum(&|r| r.m("ring.transport")) / all,
            "ns",
        ),
        (
            "ring.occupancy_mean",
            median(
                &rungs
                    .iter()
                    .map(|r| r.m("ring.occupancy"))
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        (
            "ring.burst_mean",
            median(&rungs.iter().map(|r| r.m("ring.burst")).collect::<Vec<_>>()),
            "count",
        ),
        (
            "live.worker_util",
            median(&rungs.iter().map(|r| r.m("live.util")).collect::<Vec<_>>()),
            "ratio",
        ),
        ("report.render_us", sum(&|r| r.m("report_ns")) / 1e3, "us"),
        (
            "ledger.residual_pct",
            (untraced_total - ledger_total) / untraced_total * 100.0,
            "%",
        ),
        ("trace.overhead_pct", (median(&overhead) - 1.0) * 100.0, "%"),
        ("workload.memo_served_share", served, "ratio"),
        ("workload.fixed_cost_share", fixed_share, "ratio"),
        ("workload.load_imbalance", imbalance, "ratio"),
    ]
}
