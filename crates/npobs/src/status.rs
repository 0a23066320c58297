//! A shared, rate-limited status-line writer for stderr.
//!
//! Several parts of a run want to talk on stderr while workers are busy:
//! the engine's periodic `--progress` line, the flow-memoization summary,
//! and the `--watch` live timeline refresh. Each used to call
//! `eprintln!` on its own, which takes the stderr lock per *fragment* —
//! two threads printing at once could interleave mid-line. [`StatusLine`]
//! fixes both problems at once:
//!
//! * every line is formatted into a buffer first and emitted with one
//!   `write_all`, so a line is the atomic unit on the stream;
//! * an internal mutex serializes writers, so concurrent lines queue
//!   instead of shredding each other;
//! * [`StatusLine::emit_throttled`] drops lines arriving faster than the
//!   configured minimum interval, keeping long soaks readable;
//! * when stderr is a terminal, [`StatusLine::refresh`] redraws in place
//!   with `\r` (and clears the tail); when it is a pipe or file, each
//!   refresh becomes an ordinary line so logs stay greppable.
//!
//! [`MonitorCounters`] holds what the `--progress`/`--watch` line shows:
//! live sums of every worker's [`WorkerStat`] columns, and the loop that
//! redraws the line from them.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::export::WorkerStat;

#[derive(Debug)]
struct Inner {
    /// Last time a throttled emit was let through.
    last: Option<Instant>,
    /// Columns written by the last in-place refresh (for clearing).
    refresh_len: usize,
}

/// A mutex-guarded stderr line writer shared by everything that reports
/// during a run. Cheap to share by reference across scoped threads.
#[derive(Debug)]
pub struct StatusLine {
    inner: Mutex<Inner>,
    min_interval: Duration,
    is_tty: bool,
}

impl Default for StatusLine {
    fn default() -> StatusLine {
        StatusLine::new(Duration::from_millis(200))
    }
}

impl StatusLine {
    /// A writer that lets throttled lines through at most once per
    /// `min_interval`.
    pub fn new(min_interval: Duration) -> StatusLine {
        StatusLine {
            inner: Mutex::new(Inner {
                last: None,
                refresh_len: 0,
            }),
            min_interval,
            is_tty: std::io::stderr().is_terminal(),
        }
    }

    /// Whether stderr is a terminal (refreshes redraw in place).
    pub fn is_tty(&self) -> bool {
        self.is_tty
    }

    /// Writes one complete line, unconditionally. The trailing newline is
    /// added here; `line` must not contain one.
    pub fn emit(&self, line: &str) {
        let mut inner = self.inner.lock().unwrap();
        self.write_line(&mut inner, line);
    }

    /// Writes the line only if at least the minimum interval has passed
    /// since the last throttled write. Returns whether it was written.
    pub fn emit_throttled(&self, line: &str) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let now = Instant::now();
        if let Some(last) = inner.last {
            if now.duration_since(last) < self.min_interval {
                return false;
            }
        }
        inner.last = Some(now);
        self.write_line(&mut inner, line);
        true
    }

    /// Redraws a live status in place (`\r`, no newline) on a terminal;
    /// degrades to a throttled ordinary line otherwise.
    pub fn refresh(&self, line: &str) {
        if !self.is_tty {
            self.emit_throttled(line);
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let pad = inner.refresh_len.saturating_sub(line.chars().count());
        let mut buf = String::with_capacity(line.len() + pad + 1);
        buf.push('\r');
        buf.push_str(line);
        for _ in 0..pad {
            buf.push(' ');
        }
        inner.refresh_len = line.chars().count();
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(buf.as_bytes());
        let _ = err.flush();
    }

    /// Ends an in-place refresh, moving to a fresh line so subsequent
    /// output does not overwrite the last status.
    pub fn finish_refresh(&self) {
        if !self.is_tty {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.refresh_len > 0 {
            inner.refresh_len = 0;
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(b"\n");
            let _ = err.flush();
        }
    }

    fn write_line(&self, inner: &mut Inner, line: &str) {
        let mut buf = String::with_capacity(line.len() + 2);
        if self.is_tty && inner.refresh_len > 0 {
            // A full line interrupting an in-place refresh gets its own
            // row; the next refresh redraws below it.
            buf.push('\n');
            inner.refresh_len = 0;
        }
        buf.push_str(line);
        buf.push('\n');
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(buf.as_bytes());
        let _ = err.flush();
    }
}

/// Live per-column sums of every worker's [`WorkerStat`] counters, read
/// by the `--progress`/`--watch` status line. Workers add with `Relaxed`
/// increments: the sums order nothing.
pub struct MonitorCounters([AtomicU64; WorkerStat::COLUMNS.len()]);

impl Default for MonitorCounters {
    fn default() -> MonitorCounters {
        MonitorCounters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl MonitorCounters {
    /// Adds what `now` gained over `seen`, then records `now` as seen.
    pub fn publish(&self, now: &WorkerStat, seen: &mut WorkerStat) {
        let columns = self.0.iter().zip(now.counters()).zip(seen.counters_mut());
        for ((sum, value), last) in columns {
            if value > *last {
                sum.fetch_add(value - *last, Ordering::Relaxed);
                *last = value;
            }
        }
    }

    /// The sums so far.
    pub fn snapshot(&self) -> WorkerStat {
        let mut row = WorkerStat::default();
        for (value, sum) in row.counters_mut().into_iter().zip(&self.0) {
            *value = sum.load(Ordering::Relaxed);
        }
        row
    }

    /// Redraws `status` from the sums about once a second until `done`
    /// (an unpark wakes the loop early). The line is `progress(n)` for
    /// `n` packets plus ` dropped N` once a ring dropped a packet. With
    /// `watch` it is redrawn in place and adds packets/sec since `start`,
    /// ` memo NN%` once the memo was looked up, and ` trace NN/NN`
    /// (trips/guard exits) once a trace completed.
    pub fn report(
        &self,
        status: &StatusLine,
        watch: bool,
        start: Instant,
        done: &AtomicBool,
        progress: impl Fn(u64) -> String,
    ) {
        while !done.load(Ordering::Acquire) {
            std::thread::park_timeout(Duration::from_secs(1));
            let now = self.snapshot();
            if done.load(Ordering::Acquire) || now.packets == 0 {
                continue;
            }
            let text = progress(now.packets);
            let drops = match now.ring_dropped {
                0 => String::new(),
                dropped => format!(" dropped {dropped}"),
            };
            if !watch {
                status.emit(&format!("{text}{drops}"));
                continue;
            }
            let memo = match now.memo_hits + now.memo_misses {
                0 => String::new(),
                n => format!(" memo {:.0}%", now.memo_hits as f64 / n as f64 * 100.0),
            };
            let trace = match now.trace_hits {
                0 => String::new(),
                hits => format!(" trace {hits}/{}", now.trace_guard_exits),
            };
            let pps = now.packets as f64 / start.elapsed().as_secs_f64().max(1e-9);
            status.refresh(&format!("{text} {pps:.0} pps{memo}{trace}{drops}"));
        }
        if watch {
            status.finish_refresh();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_drops_rapid_lines() {
        let status = StatusLine::new(Duration::from_secs(3600));
        assert!(status.emit_throttled("first"));
        assert!(!status.emit_throttled("second"));
        assert!(!status.emit_throttled("third"));
    }

    #[test]
    fn zero_interval_never_drops() {
        let status = StatusLine::new(Duration::ZERO);
        assert!(status.emit_throttled("a"));
        assert!(status.emit_throttled("b"));
    }

    #[test]
    fn unthrottled_emit_does_not_consume_the_budget() {
        let status = StatusLine::new(Duration::from_secs(3600));
        status.emit("always");
        assert!(status.emit_throttled("first throttled"));
    }

    #[test]
    fn shared_across_threads() {
        let status = StatusLine::new(Duration::ZERO);
        std::thread::scope(|s| {
            for i in 0..4 {
                let status = &status;
                s.spawn(move || {
                    for j in 0..10 {
                        status.emit(&format!("worker {i} line {j}"));
                    }
                });
            }
        });
    }
}
