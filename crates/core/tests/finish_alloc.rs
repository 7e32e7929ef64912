//! Sealing a run hands the engine's segment table to the audit instead
//! of copying it: `LiveFleet::finish` builds `FleetAudit::placements` in
//! the segment table's own allocation, so the calling thread allocates
//! less than the placement table's size while it seals. A `finish` that
//! built the table afresh would allocate at least that much on its own.

use std::mem::size_of;
use std::sync::Arc;

use counting_alloc::CountingAlloc;
use pictor_apps::AppId;
use pictor_core::fleet::{
    ArrivalConfig, BackpressureConfig, DataPlane, FirstFit, FleetEngine, FleetSpec,
    MigrationConfig, Placement, WorkloadMix,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// 64 servers over 400 epochs on the surrogate data plane, with open
/// demand at about 110% of the fleet: `fleet_control`'s per-server
/// arrival profile, migration and backpressure, without its autoscale,
/// faults or GPU groups.
fn engine() -> FleetEngine {
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let spec = FleetSpec::new(64, mix, Arc::new(FirstFit), 23).epochs(400);
    let mut eng = FleetEngine::from_spec(&spec);
    eng.arrivals = ArrivalConfig {
        label: "scale".into(),
        open_rate_per_sec: 0.55,
        closed_clients: 1,
        mean_session_secs: 8.0,
        mean_think_secs: 6.0,
    };
    eng.data_plane = DataPlane::Surrogate;
    eng.migration = Some(MigrationConfig::contention_relief());
    eng.backpressure = Some(BackpressureConfig {
        queue_limit: 8,
        retry_after_epochs: 1,
    });
    eng
}

#[test]
fn finish_reuses_the_segment_table_for_the_audit() {
    let eng = engine();
    let mut live = eng.live();
    let horizon = live.horizon_ns();
    live.step_to(horizon);

    counting_alloc::reset();
    let (report, audit) = live.finish(1);
    let allocated = counting_alloc::allocated_bytes();

    let table = audit.placements.len() * size_of::<Placement>();
    assert!(
        audit.placements.len() as u64 >= report.admitted,
        "every admitted session has a placement"
    );
    assert!(
        allocated < table as u64,
        "finish allocated {allocated} bytes on the calling thread, not less than \
         the {table}-byte placement table ({} placements)",
        audit.placements.len()
    );
}
