//! End-of-run reports for the serving daemon.
//!
//! [`ServeReport`] is the daemon-side report and it is **deterministic**:
//! every field is a pure function of the stamped ingress event stream plus
//! the engine configuration — no wall-clock quantities, no thread-count
//! dependence. That is what makes the record/replay golden meaningful:
//! replaying a journal must reproduce the JSON byte for byte.
//!
//! Wall-clock measurements (achieved request throughput, admit-latency
//! percentiles) belong to the *client* side — see
//! [`LoadReport`](crate::load::LoadReport).

use std::fmt::Write as _;

use pictor_core::fleet::{FleetAudit, FleetReport};
use pictor_core::report::{csv_field, json_num};

/// Schema identifier embedded in the JSON document.
pub const SERVE_SCHEMA: &str = "pictor-serve/v1";

/// Ingress counters the daemon accumulates while serving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressCounters {
    /// `Open` requests received.
    pub opens: u64,
    /// Opens admitted.
    pub admitted: u64,
    /// Opens rejected.
    pub rejected: u64,
    /// Opens parked in the backpressure queue.
    pub parked: u64,
    /// Opens arriving at or past the horizon.
    pub past_horizon: u64,
    /// Opens naming an unknown app code.
    pub bad_app: u64,
    /// Telemetry polls served.
    pub polls: u64,
    /// Fleet snapshots served.
    pub snapshots: u64,
    /// Events written to the journal (0 when not recording; replay sets
    /// it to the journal length so the reports compare byte-equal).
    pub journaled_events: u64,
}

// Transport-layer mishaps (malformed frames, clamped wall-clock
// timestamps) are deliberately *not* in this struct: they are not
// reproducible from the journal, so including them would break the
// replay-is-byte-identical guarantee. They live in
// [`TransportStats`](crate::daemon::TransportStats) instead.

/// The daemon's deterministic end-of-run report: ingress ledger plus the
/// sealed fleet summary.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Fleet size, servers.
    pub servers: usize,
    /// Session slots per server.
    pub slots_per_server: usize,
    /// Serving horizon, epochs.
    pub epochs: u64,
    /// Epoch length, nanoseconds.
    pub epoch_ns: u64,
    /// Engine master seed.
    pub seed: u64,
    /// True when ingress was stamped by the driver's virtual clock
    /// (replay, tests); false for a live wall clock.
    pub virtual_clock: bool,
    /// Ingress counters.
    pub ingress: IngressCounters,
    /// Placement attempts in the sealed fleet ledger (externals +
    /// internal retries).
    pub fleet_offered: u64,
    /// Sessions admitted in the sealed ledger.
    pub fleet_admitted: u64,
    /// Attempts rejected in the sealed ledger.
    pub fleet_rejected: u64,
    /// Attempts parked (every park counts).
    pub fleet_queued: u64,
    /// Parked attempts re-offered.
    pub fleet_retried: u64,
    /// Parked attempts expiring past the horizon.
    pub fleet_expired: u64,
    /// Largest pending queue observed.
    pub peak_queue: usize,
    /// Peak concurrent sessions.
    pub peak_sessions: usize,
    /// Occupied slot-epochs over available slot-epochs.
    pub utilization: f64,
    /// Measured session-epoch samples.
    pub session_epochs: u64,
    /// Median server FPS across session-epochs.
    pub fps_p50: f64,
    /// Median RTT across tracked inputs, ms.
    pub rtt_p50: f64,
    /// p95 RTT, ms.
    pub rtt_p95: f64,
    /// p99 RTT, ms.
    pub rtt_p99: f64,
}

impl ServeReport {
    /// Assembles the report from the ingress ledger and the sealed fleet
    /// report + audit.
    pub fn new(
        ingress: IngressCounters,
        virtual_clock: bool,
        fleet: &FleetReport,
        audit: &FleetAudit,
    ) -> Self {
        ServeReport {
            servers: fleet.servers,
            slots_per_server: fleet.slots_per_server,
            epochs: fleet.epochs,
            epoch_ns: fleet.epoch.as_nanos(),
            seed: fleet.seed,
            virtual_clock,
            ingress,
            fleet_offered: audit.offered,
            fleet_admitted: audit.admitted,
            fleet_rejected: audit.rejected,
            fleet_queued: audit.queued,
            fleet_retried: audit.retried,
            fleet_expired: audit.expired,
            peak_queue: audit.peak_queue,
            peak_sessions: fleet.peak_sessions,
            utilization: fleet.utilization,
            session_epochs: fleet.session_epochs,
            fps_p50: fleet.fps.p50(),
            rtt_p50: fleet.rtt.p50(),
            rtt_p95: fleet.rtt.p95(),
            rtt_p99: fleet.rtt.p99(),
        }
    }

    /// Serializes as `pictor-serve/v1` JSON. Deterministic: same ingress
    /// stream + engine → byte-identical output.
    pub fn to_json(&self) -> String {
        let i = &self.ingress;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SERVE_SCHEMA}\",");
        let _ = writeln!(out, "  \"servers\": {},", self.servers);
        let _ = writeln!(out, "  \"slots_per_server\": {},", self.slots_per_server);
        let _ = writeln!(out, "  \"epochs\": {},", self.epochs);
        let _ = writeln!(out, "  \"epoch_ns\": {},", self.epoch_ns);
        let _ = writeln!(out, "  \"seed\": \"{}\",", self.seed);
        let _ = writeln!(out, "  \"virtual_clock\": {},", self.virtual_clock);
        out.push_str("  \"ingress\": {");
        let _ = write!(
            out,
            "\"opens\": {}, \"admitted\": {}, \"rejected\": {}, \"parked\": {}, \
             \"past_horizon\": {}, \"bad_app\": {}, \"polls\": {}, \"snapshots\": {}, \
             \"journaled_events\": {}",
            i.opens,
            i.admitted,
            i.rejected,
            i.parked,
            i.past_horizon,
            i.bad_app,
            i.polls,
            i.snapshots,
            i.journaled_events
        );
        out.push_str("},\n");
        out.push_str("  \"fleet\": {");
        let _ = write!(
            out,
            "\"offered\": {}, \"admitted\": {}, \"rejected\": {}, \"queued\": {}, \
             \"retried\": {}, \"expired\": {}, \"peak_queue\": {}, \"peak_sessions\": {}, \
             \"utilization\": {}, \"session_epochs\": {}, \"fps_p50\": {}, \
             \"rtt_p50_ms\": {}, \"rtt_p95_ms\": {}, \"rtt_p99_ms\": {}",
            self.fleet_offered,
            self.fleet_admitted,
            self.fleet_rejected,
            self.fleet_queued,
            self.fleet_retried,
            self.fleet_expired,
            self.peak_queue,
            self.peak_sessions,
            json_num(self.utilization),
            self.session_epochs,
            json_num(self.fps_p50),
            json_num(self.rtt_p50),
            json_num(self.rtt_p95),
            json_num(self.rtt_p99)
        );
        out.push_str("}\n");
        out.push_str("}\n");
        out
    }

    /// One-row CSV (header + values), same fields as the JSON.
    pub fn to_csv(&self) -> String {
        let i = &self.ingress;
        let mut out = String::new();
        out.push_str(
            "schema,servers,slots_per_server,epochs,epoch_ns,seed,virtual_clock,\
             opens,admitted,rejected,parked,past_horizon,bad_app,polls,snapshots,\
             journaled_events,\
             fleet_offered,fleet_admitted,fleet_rejected,fleet_queued,fleet_retried,\
             fleet_expired,peak_queue,peak_sessions,utilization,session_epochs,\
             fps_p50,rtt_p50_ms,rtt_p95_ms,rtt_p99_ms\n",
        );
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(SERVE_SCHEMA),
            self.servers,
            self.slots_per_server,
            self.epochs,
            self.epoch_ns,
            self.seed,
            self.virtual_clock,
            i.opens,
            i.admitted,
            i.rejected,
            i.parked,
            i.past_horizon,
            i.bad_app,
            i.polls,
            i.snapshots,
            i.journaled_events,
            self.fleet_offered,
            self.fleet_admitted,
            self.fleet_rejected,
            self.fleet_queued,
            self.fleet_retried,
            self.fleet_expired,
            self.peak_queue,
            self.peak_sessions,
            json_num(self.utilization),
            self.session_epochs,
            json_num(self.fps_p50),
            json_num(self.rtt_p50),
            json_num(self.rtt_p95),
            json_num(self.rtt_p99)
        );
        out
    }

    /// Sanity-checks the decision ledger: every open got exactly one
    /// outcome.
    pub fn decisions_balance(&self) -> bool {
        let i = &self.ingress;
        i.opens == i.admitted + i.rejected + i.parked + i.past_horizon + i.bad_app
    }
}
