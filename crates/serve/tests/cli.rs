//! Both binaries refuse a command line they do not fully understand: an
//! unknown flag, a flag without its value or a number that does not
//! parse exits with status 2 and the usage on stderr, before any socket
//! is bound or any swarm runs.
//!
//! The `pictor-serve` cases also pass `--replay` of a missing file, so a
//! binary that ignored the bad flag would fail to read the journal (or
//! exit 0) rather than listen forever.

use std::process::Command;

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
    ] {
        assert_usage_error(bin, &args);
    }
}

#[test]
fn pictor_load_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_pictor-load");
    assert_usage_error(bin, &["--full"]);
    assert_usage_error(bin, &["--shards", "2"]);
}
