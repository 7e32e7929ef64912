//! Sharded daemon core: partitioning, deterministic routing, and
//! sharded record/replay byte-identity.
//!
//! Sharding must never touch the determinism contract: the stamped
//! ingress stream plus the recorded shard assignments are the whole
//! truth, so a sharded run records a journal whose replay reproduces the
//! merged report byte for byte, and re-running the same configuration
//! reproduces both artifacts exactly. (The single-shard path is pinned
//! separately by the `serve_replay` golden, which this PR keeps
//! unchanged.)

use pictor::serve::{
    decode_journal_entries, replay, run_in_process, serve_engine, shard_engines, LoadSpec,
    ServeOptions,
};
use pictor::sim::Histogram;

fn probe() -> pictor::core::fleet::FleetEngine {
    // 8 servers in one stock group: divisible by 1, 2, 4 shards.
    serve_engine(8, 2, 24, 250, 2020, 16)
}

fn swarm() -> LoadSpec {
    let mut spec = LoadSpec::closed(96, 6, 11);
    spec.flash_at_secs = 3;
    spec.flash_burst = 32;
    spec
}

const THREADS: usize = 2;

#[test]
fn shard_engines_partitions_and_decorrelates() {
    let base = probe();
    let shards = shard_engines(&base, 4);
    assert_eq!(shards.len(), 4);
    for (s, e) in shards.iter().enumerate() {
        assert_eq!(
            e.groups.iter().map(|g| g.servers).sum::<usize>(),
            2,
            "each shard owns an equal fleet slice"
        );
        if s == 0 {
            assert_eq!(e.seed, base.seed, "shard 0 keeps the base seed");
        } else {
            assert_ne!(e.seed, base.seed, "shard {s} must decorrelate its seed");
        }
    }
    // All decorrelated seeds are distinct.
    let mut seeds: Vec<u64> = shards.iter().map(|e| e.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 4);
}

#[test]
#[should_panic(expected = "not divisible")]
fn shard_engines_rejects_uneven_fleets() {
    shard_engines(&serve_engine(6, 2, 8, 250, 1, 4), 4);
}

#[test]
fn sharded_record_replay_is_byte_identical_and_deterministic() {
    for shards in [2usize, 4] {
        let opts = ServeOptions {
            virtual_clock: true,
            record: true,
            threads: THREADS,
            shards,
            ..ServeOptions::default()
        };
        let run = run_in_process(&probe(), &opts, &swarm());
        let live_json = run.outcome.report.to_json();
        let journal = run.outcome.journal.as_deref().expect("recorded journal");
        let entries = decode_journal_entries(journal).expect("journal decodes");

        // The router actually spread load: at least two distinct shard
        // assignments appear in the journal.
        let mut used: Vec<u16> = entries.iter().map(|e| e.shard).collect();
        used.sort_unstable();
        used.dedup();
        assert!(
            used.len() >= 2,
            "{shards}-shard journal routed everything to one shard"
        );
        assert!(
            used.iter().all(|&s| (s as usize) < shards),
            "journal names a shard out of range"
        );

        // The merged ledger balances and the run actually served.
        assert!(run.outcome.report.ingress.admitted > 0);
        assert!(run.outcome.report.decisions_balance());
        assert_eq!(run.outcome.shards.len(), shards);

        // Replay of the recorded entries reproduces the merged report
        // byte for byte.
        let replayed = replay(&probe(), shards, &entries, THREADS);
        assert_eq!(
            replayed.report.to_json(),
            live_json,
            "{shards}-shard replay diverged from the live report"
        );

        // And the whole pipeline is a pure function of (engine, spec).
        let again = run_in_process(&probe(), &opts, &swarm());
        assert_eq!(
            again.outcome.journal.as_deref().expect("journal"),
            journal,
            "{shards}-shard re-record produced a different journal"
        );
        assert_eq!(again.outcome.report.to_json(), live_json);
    }
}

/// Every shard layout keeps the merged ledger internally consistent:
/// each open gets exactly one decision, the per-shard fleet slices sum
/// to the full fleet, the merged tails are those of the shards' merged
/// histograms, and the merged report stays schema-stable. (The
/// absolute counts legitimately differ across layouts — the closed-loop
/// swarm reacts to decisions, and each shard admits against its own
/// fleet slice.)
#[test]
fn sharding_preserves_the_ingress_ledger() {
    for shards in [1usize, 2, 4] {
        let opts = ServeOptions {
            virtual_clock: true,
            threads: THREADS,
            shards,
            ..ServeOptions::default()
        };
        let run = run_in_process(&probe(), &opts, &swarm());
        let i = &run.outcome.report.ingress;
        assert_eq!(
            i.opens,
            i.admitted + i.rejected + i.parked + i.past_horizon + i.bad_app,
            "{shards}-shard ledger out of balance"
        );
        assert!(run.outcome.report.decisions_balance());
        assert!(i.admitted > 0, "{shards}-shard run admitted nothing");
        assert_eq!(
            run.outcome
                .shards
                .iter()
                .map(|s| s.fleet.servers)
                .sum::<usize>(),
            8,
            "{shards}-shard slices must cover the full fleet"
        );
        let (mut fps, mut rtt) = (Histogram::new(), Histogram::new());
        for s in &run.outcome.shards {
            fps.merge(&s.fleet.fps);
            rtt.merge(&s.fleet.rtt);
        }
        let r = &run.outcome.report;
        assert_eq!(fps.count(), r.session_epochs);
        assert_eq!(
            [r.fps_p50, r.rtt_p50, r.rtt_p95, r.rtt_p99],
            [fps.p50(), rtt.p50(), rtt.p95(), rtt.p99()],
            "{shards}-shard report tails differ from the merged shard histograms"
        );
        assert!(run.outcome.report.to_json().contains("pictor-serve/v1"));
    }
}
