//! Live serving mode for the Pictor fleet: a control-plane daemon
//! (`pictor-serve`) and a synthetic client swarm (`pictor-load`).
//!
//! Without this crate a fleet runs **offline**: one
//! [`LiveFleet::finish`](pictor_core::fleet::LiveFleet::finish) call
//! drives it from first arrival to sealed report. This crate turns the
//! same engine into a *server*: a long-running daemon owns a
//! [`LiveFleet`](pictor_core::fleet::LiveFleet), admits and places
//! sessions as requests arrive over a small versioned wire protocol
//! ([`protocol`]), streams per-session FPS/RTT telemetry and fleet
//! snapshots, and journals its ingress stream so any live run can be
//! replayed bit for bit ([`journal`]).
//!
//! The architecture keeps the determinism discipline intact by splitting
//! the daemon at the clock:
//!
//! ```text
//!  TCP readers ──┐                      ┌─ daemon report (ServeReport)
//!  channel conns ─┼→ stamp → journal → apply → LiveFleet ─ seal ┤
//!       (bytes)  ─┘   (the only        (pure function           └─ fleet
//!                      wall-clock read)  of the stream)            report
//! ```
//!
//! * **Stamping** (wall or virtual [`SimClock`](pictor_sim::SimClock))
//!   is the only nondeterministic step; its output is what the journal
//!   records.
//! * **Apply** is a pure function of the stamped stream — replaying a
//!   journal reproduces the [`ServeReport`](report::ServeReport) byte
//!   for byte (`tests/serve_replay.rs` pins this with a golden).
//! * Wall-clock truths — achieved throughput, admit-latency tails —
//!   live in the *client-side* [`LoadReport`](load::LoadReport), so the
//!   daemon report stays golden-able.

pub mod daemon;
pub mod journal;
pub mod load;
pub mod protocol;
pub mod report;
pub mod transport;

use std::sync::Arc;

use pictor_apps::AppId;
use pictor_core::fleet::{
    ArrivalConfig, BackpressureConfig, DataPlane, FirstFit, FleetEngine, FleetSpec, WorkloadMix,
};
use pictor_sim::SimDuration;

pub use daemon::{
    replay, replay_with, run_daemon, run_daemon_from, shard_engines, DaemonMsg, ReplySink,
    ServeCore, ServeOptions, ServeOutcome, TransportStats,
};
pub use journal::{
    decode_journal, decode_journal_entries, IngressEvent, JournalEntry, JournalReader,
    JournalWriter, RecoveredJournal,
};
pub use load::{
    run_in_process, run_swarm, run_swarm_threaded, InProcessRun, LoadReport, LoadSpec, LOAD_SCHEMA,
};
pub use protocol::{
    ErrCode, FrameDecoder, Msg, Outcome, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use report::{IngressCounters, ServeReport, ShardOutcome, SERVE_SCHEMA};
pub use transport::{tcp_listen, ChannelConn, Conn, TcpConn};

/// The serving-mode arrival profile: **no** internal arrival streams —
/// every session comes from an external client through the protocol.
/// (Backpressure retries and fault-recovery re-offers are still
/// internal, as in any engine run.)
pub fn external_arrivals() -> ArrivalConfig {
    ArrivalConfig {
        label: "external".into(),
        open_rate_per_sec: 0.0,
        closed_clients: 0,
        mean_session_secs: 8.0,
        mean_think_secs: 4.0,
    }
}

/// The standard serving engine the binaries and tests share: first-fit
/// placement over `servers × slots` stock machines, surrogate data
/// plane (cheap enough to serve online), external arrivals only, and a
/// bounded backpressure lobby of `queue_limit` (retry after one epoch).
pub fn serve_engine(
    servers: usize,
    slots: usize,
    epochs: u64,
    epoch_ms: u64,
    seed: u64,
    queue_limit: usize,
) -> FleetEngine {
    let mix = WorkloadMix::uniform(AppId::ALL);
    let spec = FleetSpec::new(servers, mix, Arc::new(FirstFit), seed)
        .epochs(epochs)
        .slots_per_server(slots);
    let mut eng = FleetEngine::from_spec(&spec);
    eng.epoch = SimDuration::from_millis(epoch_ms);
    eng.arrivals = external_arrivals();
    eng.data_plane = DataPlane::Surrogate;
    eng.backpressure = Some(BackpressureConfig {
        queue_limit: queue_limit.max(1),
        retry_after_epochs: 1,
    });
    eng
}
