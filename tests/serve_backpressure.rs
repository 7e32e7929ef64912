//! Backpressure under a flash crowd, end to end: a saturating burst
//! against a tiny serving fleet must flow through the bounded retry
//! lobby without losing a single request from the ledger.
//!
//! Three layers are reconciled against each other:
//!
//! * **Swarm counters** (what clients saw on the wire) must equal the
//!   daemon's ingress counters — every request got exactly one decision.
//! * **Ingress counters** must bridge to the engine's [`FleetAudit`]
//!   conservation ledger: placement offers = client opens inside the
//!   horizon + internal backpressure retries.
//! * **The audit ledger itself** must balance (offered = admitted +
//!   rejected + queued; queued = retried + expired) with the pending
//!   queue never exceeding its configured bound.

use pictor::serve::{run_in_process, serve_engine, LoadSpec, ServeOptions};

const QUEUE_LIMIT: usize = 4;

#[test]
fn flash_crowd_conserves_every_request_through_the_bounded_queue() {
    // 2 servers × 2 slots over a 5 s horizon; a 256-client flash at
    // t = 1 s plus a 40 req/s open-loop stream over 16 closed-loop
    // clients — far beyond what 4 slots can admit.
    let engine = serve_engine(2, 2, 20, 250, 2020, QUEUE_LIMIT);
    let mut spec = LoadSpec::closed(16, 5, 2020);
    spec.flash_at_secs = 1;
    spec.flash_burst = 256;
    spec.open_rate_per_sec = 40.0;
    let opts = ServeOptions {
        virtual_clock: true,
        record: false,
        threads: 2,
        ..ServeOptions::default()
    };
    let run = run_in_process(&engine, &opts, &spec);
    let load = &run.load;
    let ingress = run.outcome.report.ingress;
    let audit = &run.outcome.audit;

    // The probe actually saturates: every pressure path fires.
    assert!(
        load.requests > 256,
        "flash did not land ({} requests)",
        load.requests
    );
    assert!(load.admitted > 0, "nothing admitted");
    assert!(load.rejected > 0, "saturation never rejected");
    assert!(load.parked > 0, "lobby never parked");
    assert!(audit.retried > 0, "parked requests never retried");

    // Wire ↔ daemon: the swarm's view of every decision matches the
    // daemon's ingress counters exactly.
    assert_eq!(load.requests, ingress.opens);
    assert_eq!(load.admitted, ingress.admitted);
    assert_eq!(load.rejected, ingress.rejected);
    assert_eq!(load.parked, ingress.parked);
    assert_eq!(load.past_horizon, ingress.past_horizon);
    assert_eq!(load.bad_app, ingress.bad_app);
    assert!(run.outcome.report.decisions_balance());

    // Daemon ↔ engine: placement offers are exactly the in-horizon
    // client opens plus the engine's own backpressure re-offers.
    assert_eq!(
        audit.offered,
        ingress.opens - ingress.past_horizon - ingress.bad_app + audit.retried
    );

    // Engine ledger conservation, with the queue bound honored.
    assert_eq!(
        audit.offered,
        audit.admitted + audit.rejected + audit.queued
    );
    assert_eq!(audit.queued, audit.retried + audit.expired);
    assert!(
        audit.peak_queue <= QUEUE_LIMIT,
        "pending queue {} exceeded its bound {QUEUE_LIMIT}",
        audit.peak_queue
    );
    assert!(audit.dropped > 0, "queue bound never turned anyone away");

    // The sealed report republishes the same ledger.
    let report = &run.outcome.report;
    assert_eq!(report.fleet_offered, audit.offered);
    assert_eq!(report.fleet_admitted, audit.admitted);
    assert_eq!(report.fleet_rejected, audit.rejected);
    assert_eq!(report.fleet_queued, audit.queued);
    assert_eq!(report.fleet_retried, audit.retried);
    assert_eq!(report.peak_queue, audit.peak_queue);
}
