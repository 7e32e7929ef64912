//! Record/replay determinism for the serving daemon, pinned by a
//! committed golden.
//!
//! A recorded in-process run (virtual clock, pinned seeds) journals its
//! stamped ingress stream; replaying that journal through a fresh engine
//! must reproduce the daemon's `ServeReport` JSON **byte for byte** —
//! the core claim of the stamping/apply split. The golden pins both
//! artifacts: the journal bytes (the swarm's request stream is itself
//! deterministic under a virtual clock) and the report JSON. Drift in
//! either means the protocol, swarm, or engine semantics changed and
//! must be blessed: `PICTOR_BLESS=1 cargo test --test serve_replay`.

use std::path::PathBuf;

use pictor::serve::{
    decode_journal_entries, replay, run_in_process, serve_engine, LoadSpec, ServeOptions,
};

/// The pinned probe: a 4×4-slot fleet over a 6 s horizon (24 × 250 ms
/// epochs) with a small lobby, driven by 64 closed-loop clients plus a
/// 32-client flash crowd at t = 3 s — oversubscribed enough that every
/// decision branch (admit, reject, park) appears in the journal.
fn probe() -> pictor::core::fleet::FleetEngine {
    serve_engine(4, 4, 24, 250, 2020, 8)
}

fn swarm() -> LoadSpec {
    let mut spec = LoadSpec::closed(64, 6, 2020);
    spec.flash_at_secs = 3;
    spec.flash_burst = 32;
    spec
}

const THREADS: usize = 2;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

#[test]
fn replay_reproduces_live_report_and_matches_golden() {
    let opts = ServeOptions {
        virtual_clock: true,
        record: true,
        threads: THREADS,
        ..ServeOptions::default()
    };
    let run = run_in_process(&probe(), &opts, &swarm());
    let live_json = run.outcome.report.to_json();
    let journal = run.outcome.journal.as_deref().expect("recorded journal");

    // The probe exercises what the golden claims to pin.
    assert!(run.outcome.report.ingress.opens > 0, "swarm sent no opens");
    assert!(run.outcome.report.ingress.admitted > 0, "nothing admitted");
    assert!(
        run.outcome.report.ingress.rejected + run.outcome.report.ingress.parked > 0,
        "probe is not oversubscribed — golden would not cover backpressure"
    );
    assert!(run.outcome.report.decisions_balance());

    // Replay: a fresh engine fed the recorded stream reproduces the
    // report byte for byte. Transport-only diagnostics are excluded from
    // the report by construction, so this equality is exact.
    let entries = decode_journal_entries(journal).expect("journal decodes");
    assert_eq!(
        entries.len() as u64,
        run.outcome.report.ingress.journaled_events
    );
    let replayed = replay(&probe(), 1, &entries, THREADS);
    assert_eq!(
        replayed.report.to_json(),
        live_json,
        "replayed report differs from live report"
    );

    // Re-record: the whole pipeline is a pure function of (engine, spec).
    let again = run_in_process(&probe(), &opts, &swarm());
    assert_eq!(
        again.outcome.journal.as_deref().expect("recorded journal"),
        journal,
        "re-recorded journal differs — swarm is not deterministic"
    );

    // Golden pinning.
    let journal_path = golden("serve_run.journal");
    let report_path = golden("serve_report.json");
    if std::env::var("PICTOR_BLESS").is_ok() {
        std::fs::write(&journal_path, journal).expect("write journal golden");
        std::fs::write(&report_path, &live_json).expect("write report golden");
        eprintln!(
            "blessed {} journal bytes ({} events) and {} report bytes",
            journal.len(),
            entries.len(),
            live_json.len()
        );
        return;
    }
    let want_journal = std::fs::read(&journal_path).unwrap_or_else(|e| {
        panic!("missing golden {journal_path:?} ({e}); run with PICTOR_BLESS=1 to create it")
    });
    let want_report = std::fs::read_to_string(&report_path).unwrap_or_else(|e| {
        panic!("missing golden {report_path:?} ({e}); run with PICTOR_BLESS=1 to create it")
    });
    assert_eq!(
        journal,
        &want_journal[..],
        "journal drifted from golden (PICTOR_BLESS=1 cargo test --test serve_replay to accept)"
    );
    assert_eq!(
        live_json, want_report,
        "serve report drifted from golden (PICTOR_BLESS=1 cargo test --test serve_replay to accept)"
    );
}

/// The committed artifacts stand on their own: replaying the golden
/// journal from disk yields the golden report, with no live run in the
/// loop. This is the workflow `pictor-serve --replay` ships.
#[test]
fn golden_journal_replays_to_golden_report() {
    if std::env::var("PICTOR_BLESS").is_ok() {
        return; // the recording test owns blessing
    }
    let journal = std::fs::read(golden("serve_run.journal")).unwrap_or_else(|e| {
        panic!("missing golden journal ({e}); run with PICTOR_BLESS=1 to create it")
    });
    let want = std::fs::read_to_string(golden("serve_report.json")).unwrap_or_else(|e| {
        panic!("missing golden report ({e}); run with PICTOR_BLESS=1 to create it")
    });
    let entries = decode_journal_entries(&journal).expect("golden journal decodes");
    let outcome = replay(&probe(), 1, &entries, THREADS);
    assert_eq!(
        outcome.report.to_json(),
        want,
        "golden journal no longer replays to the golden report"
    );
    assert!(outcome.report.decisions_balance());
}
