//! The correctness gate: every timed call must reproduce the simulated
//! statistics of an untimed, golden-model-verified reference pass.
//!
//! Simulated statistics are checked, never reported as performance: the
//! model has no hardware reference, and a change to the simulator's
//! speed must leave them bit-identical.

use nettrace::Packet;
use packetbench::analysis::StreamAggregate;
use packetbench::{
    AppId, BenchError, Detail, Engine, MemoMode, PacketBench, PacketRecord, Verdict, WorkloadConfig,
};

use crate::workload::Call;

/// What a call must reproduce: the exact aggregate (packets, total
/// instructions, packet and non-packet accesses, and the per-packet
/// instruction histogram) plus, where the call returns records, the
/// verdict counts. Stream and live calls return only the aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub aggregate: StreamAggregate,
    /// Forwarded, dropped, returned.
    pub verdicts: Option<[u64; 3]>,
}

impl Digest {
    pub fn of_records(records: &[PacketRecord]) -> Digest {
        let mut aggregate = StreamAggregate::new();
        let mut verdicts = [0u64; 3];
        for r in records {
            aggregate.add_record(r);
            verdicts[match r.verdict {
                Verdict::Forwarded(_) => 0,
                Verdict::Dropped => 1,
                Verdict::Returned => 2,
            }] += 1;
        }
        Digest {
            aggregate,
            verdicts: Some(verdicts),
        }
    }

    pub fn of_aggregate(aggregate: StreamAggregate) -> Digest {
        Digest {
            aggregate,
            verdicts: None,
        }
    }

    pub fn packets(&self) -> u64 {
        self.aggregate.packets()
    }

    /// Checks this call's digest against the reference.
    pub fn check(&self, reference: &Digest) -> Result<(), String> {
        if self.aggregate != reference.aggregate {
            return Err(format!(
                "aggregate differs: got {}, reference {}",
                self.summary(),
                reference.summary()
            ));
        }
        if let (Some(got), Some(want)) = (self.verdicts, reference.verdicts) {
            if got != want {
                return Err(format!(
                    "verdict counts differ: got {got:?}, reference {want:?}"
                ));
            }
        }
        Ok(())
    }

    pub fn summary(&self) -> String {
        let a = &self.aggregate;
        format!(
            "{} packets, {} instructions, {:.3} packet + {:.3} non-packet accesses/packet",
            a.packets(),
            a.total_instructions(),
            a.avg_packet_mem(),
            a.avg_non_packet_mem()
        )
    }
}

/// The untimed reference pass: golden-model checks on, memo off, so the
/// reference never depends on the layers being measured.
pub fn reference(
    app: AppId,
    config: &WorkloadConfig,
    packets: &[Packet],
    threads: usize,
) -> Result<Digest, BenchError> {
    let run =
        Engine::with_config(app, *config)
            .verify(true)
            .run(packets, Detail::counts(), threads)?;
    Ok(Digest::of_records(&run.records))
}

/// A fresh framework around a freshly built app, with memo set.
pub fn fresh_bench(
    app: AppId,
    config: &WorkloadConfig,
    memo: MemoMode,
) -> Result<PacketBench, String> {
    let built = packetbench::App::build(app, config).map_err(|e| e.to_string())?;
    let mut bench = PacketBench::with_config(built, config).map_err(|e| e.to_string())?;
    bench.set_memo(memo);
    Ok(bench)
}

/// Counts packets through the gate: attempted, and failed (offered but
/// not returned as a verified record).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Gates one call.
    pub fn call(&mut self, what: &str, c: &Call, reference: &Digest) {
        self.attempted += c.offered;
        let lost = c.failed(reference);
        if lost > 0 {
            let why = match &c.digest {
                Ok(d) => d
                    .check(reference)
                    .err()
                    .unwrap_or_else(|| format!("{} packets dropped", c.dropped)),
                Err(e) => e.clone(),
            };
            println!("# GATE FAILED {what}: {why}");
        }
        self.failed += lost;
    }

    /// Gates the records of one `Engine::run`.
    pub fn records(&mut self, what: &str, records: &[PacketRecord], reference: &Digest) {
        self.attempted += records.len() as u64;
        if let Err(e) = Digest::of_records(records).check(reference) {
            println!("# GATE FAILED {what}: {e}");
            self.failed += records.len() as u64;
        }
    }

    /// Checks a count a rung must reproduce; `packets` are counted as
    /// attempted, and as failed on a mismatch.
    pub fn count(&mut self, what: &str, packets: usize, got: u64, want: u64) {
        self.attempted += packets as u64;
        if got != want {
            println!("# GATE FAILED {what}: {got}, expected {want}");
            self.failed += packets as u64;
        }
    }
}

/// Proves the gate can fail: a memo-on pass whose cache is corrupted
/// halfway through must no longer match the reference.
pub fn memo_fault_self_test(
    app: AppId,
    config: &WorkloadConfig,
    packets: &[Packet],
    reference: &Digest,
) -> Result<(), String> {
    let mut bench = fresh_bench(app, config, MemoMode::On)?;
    let mut records = Vec::with_capacity(packets.len());
    let mut corrupted = 0;
    for (i, packet) in packets.iter().enumerate() {
        if i == packets.len() / 2 {
            corrupted = bench.corrupt_memo_entries();
        }
        let mut record = PacketRecord::empty();
        bench
            .process_packet_into(packet, Detail::counts(), &mut record)
            .map_err(|e| e.to_string())?;
        records.push(record);
    }
    if corrupted == 0 {
        return Err(format!("{}: no memo entry to corrupt", app.slug()));
    }
    match Digest::of_records(&records).check(reference) {
        Err(_) => Ok(()),
        Ok(()) => Err(format!(
            "{}: {corrupted} corrupted memo entries went unnoticed",
            app.slug()
        )),
    }
}
