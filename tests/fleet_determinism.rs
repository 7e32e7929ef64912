//! Tier-1 invariant of the fleet runner: the same fleet grid emits
//! byte-identical reports whether its servers advance on one OS thread or
//! many.
//!
//! This is what makes fleet-scale parallel simulation trustworthy —
//! interval seeds derive from (server, epoch) *names*, placement runs on
//! one thread, and the data plane is folded per worker, merged exactly,
//! so completion order cannot show.

use pictor::apps::AppId;
use pictor::core::fleet::{
    ArrivalConfig, FirstFit, FleetEngine, FleetGrid, FleetSpec, InterferenceAware, LeastContended,
    WorkloadMix,
};

use std::sync::Arc;

fn mix() -> WorkloadMix {
    WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd])
}

fn grid() -> FleetGrid {
    FleetGrid::new("fleet_determinism_probe", mix(), 2020)
        .size(8)
        .rate(ArrivalConfig::moderate())
        .rate(ArrivalConfig::saturating().labelled("hot"))
        .policy(FirstFit)
        .policy(LeastContended)
        .policy(InterferenceAware)
        .epochs(2)
}

#[test]
fn one_thread_and_many_threads_emit_identical_fleet_reports() {
    let serial = grid().run_with_threads(1);
    let parallel = grid().run_with_threads(8);
    // Byte-identical machine-readable reports…
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    // …and identical human-readable summaries.
    assert_eq!(serial.summary_table(), parallel.summary_table());
    // Sanity: the probe actually admitted sessions and measured tails.
    assert_eq!(serial.cells().len(), 6);
    assert!(serial.cells().iter().all(|c| c.admitted > 0));
    assert!(serial.cells().iter().all(|c| c.fps.p50() > 0.0));
    assert!(serial.cells().iter().all(|c| c.rtt.p99() > 0.0));
}

#[test]
fn rerunning_the_same_fleet_is_reproducible() {
    let a = grid().run_with_threads(4);
    let b = grid().run_with_threads(4);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn single_fleet_spec_is_thread_invariant_too() {
    // The grid runs each cell through FleetEngine::from_spec; pin the
    // invariant at that level as well, with the policy whose placement
    // depends on the most state.
    let spec = FleetSpec::new(8, mix(), Arc::new(InterferenceAware), 99)
        .epochs(3)
        .arrivals(ArrivalConfig::saturating());
    let one = FleetEngine::from_spec(&spec).live().finish(1).0;
    let many = FleetEngine::from_spec(&spec).live().finish(6).0;
    assert_eq!(one.metrics(), many.metrics());
    assert_eq!(one.admitted, many.admitted);
}
