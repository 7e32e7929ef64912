//! Both binaries refuse a command line they do not fully understand: an
//! unknown flag, a flag without its value, a number that does not parse
//! or a zero count or length exits with status 2 and the usage on
//! stderr, before any socket is bound or any swarm runs. A run that
//! cannot read its input or create its journal exits with status 1 and
//! one line on stderr, not a panic.
//!
//! The `pictor-serve` cases also pass `--replay` of a missing file, so a
//! binary that ignored the bad flag would fail to read the journal (or
//! exit 0) rather than listen forever.

use std::process::Command;

use pictor_serve::{IngressEvent, JournalWriter};

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .env("PICTOR_SECS", "1")
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

fn missing_journal() -> String {
    let path = std::env::temp_dir().join("pictor-cli-test-no-such.journal");
    path.to_string_lossy().into_owned()
}

#[test]
fn pictor_serve_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_pictor-serve");
    let journal = missing_journal();
    let j = journal.as_str();
    for args in [
        vec!["--replay", j, "--shards", "2"],
        vec!["--replay", j, "--no-such-flag"],
        vec!["--replay", j, "--servers"],
        vec!["--replay", j, "--servers", "x"],
        vec!["--replay", j, "--servers", "0"],
        vec!["--replay", j, "--slots", "0"],
        vec!["--replay", j, "--epochs", "0"],
        vec!["--replay", j, "--epoch-ms", "0"],
        vec!["--replay", j, "--threads", "0"],
    ] {
        assert_usage_error(bin, &args);
    }
}

/// Runs `pictor-serve --replay journal` and checks it failed with status
/// 1 and the one-line `pictor-serve: <what>: <error>` message, no panic.
fn assert_replay_error(journal: &str, what: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_pictor-serve"))
        .args(["--replay", journal])
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("pictor-serve: {what} ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn pictor_serve_reports_a_missing_journal() {
    assert_replay_error(&missing_journal(), "read");
}

#[test]
fn pictor_serve_reports_a_journal_whose_stamps_go_backwards() {
    let mut journal = JournalWriter::new();
    for at_ns in [2_000, 1_000] {
        journal.record(&IngressEvent::Snapshot { conn: 0, at_ns });
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("backwards.journal");
    std::fs::write(&path, journal.into_bytes()).expect("write the journal");
    assert_replay_error(&path.to_string_lossy(), "replay");
}

#[test]
fn pictor_serve_reports_a_journal_it_cannot_create() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("no-such-dir")
        .join("x.journal");
    let out = Command::new(env!("CARGO_BIN_EXE_pictor-serve"))
        .args(["--addr", "127.0.0.1:0", "--record", &path.to_string_lossy()])
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("pictor-serve: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stdout.contains("listening"), "{stdout}");
}

#[test]
fn pictor_load_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_pictor-load");
    assert_usage_error(bin, &["--full"]);
    assert_usage_error(bin, &["--shards", "2"]);
    assert_usage_error(bin, &["--secs", "0"]);
    assert_usage_error(bin, &["--rate", "-1"]);
    for flag in [
        "--drivers",
        "--threads",
        "--servers",
        "--slots",
        "--epochs",
        "--epoch-ms",
    ] {
        assert_usage_error(bin, &[flag, "0", "--secs", "1"]);
    }
}
