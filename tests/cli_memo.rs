//! End-to-end tests of the `memo:` line `pb run`, `pb stream` and
//! `pb live` print on stderr under `--memo`: traffic counts when the memo
//! ran, and otherwise the reason it was skipped.

use std::process::{Command, Output};

fn pb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pb"))
        .args(args)
        .output()
        .expect("pb runs")
}

/// The stderr `memo:` line of a successful run.
fn memo_line(args: &[&str]) -> String {
    let out = pb(args);
    let err = String::from_utf8(out.stderr).expect("stderr is utf-8");
    assert!(out.status.success(), "pb {args:?} failed: {err}");
    let line = err.lines().find(|l| l.starts_with("memo:"));
    line.unwrap_or_else(|| panic!("no memo line: {err}"))
        .to_string()
}

#[test]
fn memoizable_app_reports_traffic() {
    let line = memo_line(&[
        "run", "--app", "radix", "--trace", "zipf", "-n", "400", "--memo", "on",
    ]);
    assert!(
        line.contains(" hits / ") && line.contains("% hit rate"),
        "{line}"
    );
}

#[test]
fn uarch_run_names_the_detail_level_not_the_guard() {
    // radix passes the static guard; the memo is skipped only because
    // uarch models make the run more than counts-only.
    for args in [
        &[
            "run", "--app", "radix", "-n", "50", "--memo", "on", "--uarch",
        ][..],
        &[
            "stream",
            "radix",
            "synth:mra:seed=3:packets=50",
            "--memo",
            "on",
            "--uarch",
        ],
    ] {
        let line = memo_line(args);
        assert!(
            line.contains("inactive (the memo serves counts-only runs"),
            "{line}"
        );
        assert!(
            !line.contains("guard") && !line.contains("memo key"),
            "{line}"
        );
    }
}

#[test]
fn tsa_names_the_store_the_write_guard_rejects() {
    let line = memo_line(&["run", "--app", "tsa", "-n", "50", "--memo", "on"]);
    assert!(line.contains("inactive (write guard: store `"), "{line}");
    assert!(
        line.contains("targets statically unresolvable memory"),
        "{line}"
    );
}

#[test]
fn stateful_app_names_the_missing_key() {
    let line = memo_line(&[
        "live",
        "flow",
        "synth:mra:seed=3:packets=50",
        "--memo",
        "on",
    ]);
    assert_eq!(
        line,
        "memo:                   inactive (application declares no memo key)"
    );
}

#[test]
fn empty_trace_is_not_called_unmemoizable() {
    let line = memo_line(&["run", "--app", "trie", "-n", "0", "--memo", "check"]);
    assert_eq!(line, "memo:                   active, no packets looked up");
}
