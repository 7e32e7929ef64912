//! Fleet report types and deterministic emitters.
//!
//! [`FleetReport`] is the reduced outcome of one fleet run;
//! [`FleetSuiteReport`] aggregates a grid of them with JSON/CSV emitters
//! whose bytes depend only on (grid, seed) — never on thread count. Runs
//! with dynamic policies enabled (autoscaling, migration, backpressure,
//! faults) attach a [`FleetDynamics`] section; static runs leave it `None`,
//! so their bytes carry no dynamics fields at all.

use std::fmt::Write as _;

use pictor_sim::{Histogram, SimDuration};

use crate::report::{csv_field, json_escape, json_num, Table};

use super::{cell_name, SloSpec};

// ---------------------------------------------------------------------------
// dynamics
// ---------------------------------------------------------------------------

/// Autoscaler outcome counters for one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoscaleStats {
    /// Servers activated (warm-up scheduled) by grow decisions.
    pub grow_events: u64,
    /// Servers deactivated by shrink decisions.
    pub shrink_events: u64,
    /// Smallest active-server count observed at any evaluation.
    pub min_active_servers: usize,
    /// Largest active-server count observed at any evaluation.
    pub max_active_servers: usize,
    /// Slot-epochs actually provisioned (active servers only) — the
    /// denominator of utilization under autoscaling.
    pub active_slot_epochs: u64,
}

/// Migration outcome counters for one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Epoch-boundary evaluations that looked for a contended server.
    pub evaluations: u64,
    /// Sessions actually moved to a cooler server.
    pub migrations: u64,
}

/// Admission-backpressure outcome counters for one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackpressureStats {
    /// Arrivals parked in the pending queue instead of being rejected.
    pub queued: u64,
    /// Parked arrivals re-offered to placement after their retry-after.
    pub retried: u64,
    /// Parked arrivals whose retry fell past the horizon.
    pub expired: u64,
    /// Arrivals refused because the pending queue was full.
    pub dropped: u64,
    /// Largest pending-queue length observed.
    pub peak_queue: usize,
}

/// The fault ledger of one engine run under a non-empty
/// [`FaultPlan`](super::FaultPlan): injections by class, downtime
/// accounting, the orphan-recovery balance and the SLO impact
/// attributable to faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crash injections applied (including drained crashes).
    pub crashes: u64,
    /// GPU-memory degradation injections applied.
    pub gpu_degrades: u64,
    /// Network-brownout injections applied.
    pub brownouts: u64,
    /// Injections skipped because the target was not serving.
    pub skipped: u64,
    /// Server-epochs spent `Down`.
    pub downtime_epochs: u64,
    /// Server-epochs spent `WarmingUp` after a restart.
    pub warming_epochs: u64,
    /// Server-epochs spent `Draining` before a notified crash.
    pub draining_epochs: u64,
    /// Sessions orphaned by crashes.
    pub orphaned: u64,
    /// Sessions evicted by capacity degradation.
    pub evicted: u64,
    /// Orphaned/evicted sessions successfully re-placed.
    pub recovered: u64,
    /// Orphaned/evicted sessions lost for good (queue full, attempts
    /// exhausted, or retry past the horizon).
    pub lost: u64,
    /// Re-placement attempts offered for orphaned/evicted sessions.
    pub recovery_retries: u64,
    /// Total epochs between orphaning and re-placement, over recovered
    /// sessions.
    pub recovery_latency_epochs: u64,
    /// RTT SLO violations that only happened because a brownout inflated
    /// the sample (the clean sample was inside the SLO).
    pub fault_rtt_violations: u64,
}

impl FaultStats {
    /// Mean epochs from orphaning to re-placement (0 when nothing
    /// recovered).
    pub fn mean_recovery_epochs(&self) -> f64 {
        if self.recovered == 0 {
            0.0
        } else {
            self.recovery_latency_epochs as f64 / self.recovered as f64
        }
    }
}

/// Dynamic-policy outcomes attached to a [`FleetReport`] when the online
/// engine runs with autoscaling, migration, backpressure or fault
/// injection enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetDynamics {
    /// Present when autoscaling was configured.
    pub autoscale: Option<AutoscaleStats>,
    /// Present when migration was configured.
    pub migration: Option<MigrationStats>,
    /// Present when backpressure was configured.
    pub backpressure: Option<BackpressureStats>,
    /// Present when a non-empty fault plan was configured.
    pub faults: Option<FaultStats>,
}

impl FleetDynamics {
    /// The flat numeric metrics of the dynamics section, in a fixed order
    /// shared by the JSON/CSV emitters and the golden tests. Only
    /// configured policies contribute entries.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut m = Vec::new();
        if let Some(a) = &self.autoscale {
            m.push(("autoscale_grow_events", a.grow_events as f64));
            m.push(("autoscale_shrink_events", a.shrink_events as f64));
            m.push(("autoscale_min_active", a.min_active_servers as f64));
            m.push(("autoscale_max_active", a.max_active_servers as f64));
            m.push(("autoscale_active_slot_epochs", a.active_slot_epochs as f64));
        }
        if let Some(mg) = &self.migration {
            m.push(("migration_evaluations", mg.evaluations as f64));
            m.push(("migrations", mg.migrations as f64));
        }
        if let Some(b) = &self.backpressure {
            m.push(("backpressure_queued", b.queued as f64));
            m.push(("backpressure_retried", b.retried as f64));
            m.push(("backpressure_expired", b.expired as f64));
            m.push(("backpressure_dropped", b.dropped as f64));
            m.push(("backpressure_peak_queue", b.peak_queue as f64));
        }
        if let Some(f) = &self.faults {
            m.push(("fault_crashes", f.crashes as f64));
            m.push(("fault_gpu_degrades", f.gpu_degrades as f64));
            m.push(("fault_brownouts", f.brownouts as f64));
            m.push(("fault_skipped", f.skipped as f64));
            m.push(("fault_downtime_epochs", f.downtime_epochs as f64));
            m.push(("fault_warming_epochs", f.warming_epochs as f64));
            m.push(("fault_draining_epochs", f.draining_epochs as f64));
            m.push(("fault_orphaned", f.orphaned as f64));
            m.push(("fault_evicted", f.evicted as f64));
            m.push(("fault_recovered", f.recovered as f64));
            m.push(("fault_lost", f.lost as f64));
            m.push(("fault_recovery_retries", f.recovery_retries as f64));
            m.push(("fault_mean_recovery_epochs", f.mean_recovery_epochs()));
            m.push(("fault_rtt_violations", f.fault_rtt_violations as f64));
        }
        m
    }
}

// ---------------------------------------------------------------------------
// fleet report
// ---------------------------------------------------------------------------

/// The reduced outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Number of servers.
    pub servers: usize,
    /// Session slots per server.
    pub slots_per_server: usize,
    /// Fleet horizon in epochs.
    pub epochs: u64,
    /// Epoch length.
    pub epoch: SimDuration,
    /// Placement-policy label.
    pub policy: String,
    /// Arrival-profile label.
    pub arrivals: String,
    /// Master seed.
    pub seed: u64,
    /// Placement attempts (open arrivals + closed joins/retries).
    pub offered: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Attempts rejected.
    pub rejected: u64,
    /// Peak concurrent sessions across the fleet.
    pub peak_sessions: usize,
    /// Occupied slot-epochs over available slot-epochs.
    pub utilization: f64,
    /// Measured (session × epoch) samples behind the FPS tail.
    pub session_epochs: u64,
    /// Tracked RTT samples behind the RTT tail.
    pub tracked_inputs: u64,
    /// Server-FPS histogram over session-epoch samples; its quantiles are
    /// within 2⁻⁸ of the exact percentiles.
    pub fps: Histogram,
    /// RTT histogram over every tracked input, ms.
    pub rtt: Histogram,
    /// The SLO targets the violation counts refer to.
    pub slo: SloSpec,
    /// Session-epochs below [`SloSpec::min_fps`].
    pub fps_violations: u64,
    /// Tracked inputs above [`SloSpec::max_rtt_ms`].
    pub rtt_violations: u64,
    /// Dynamic-policy outcomes — `None` for static runs (no autoscale,
    /// migration, backpressure or non-empty fault plan).
    pub dynamics: Option<FleetDynamics>,
}

impl FleetReport {
    /// Rejected attempts over offered attempts (zero when nothing was
    /// offered).
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }

    /// Fraction of session-epochs violating the FPS floor.
    pub fn fps_violation_rate(&self) -> f64 {
        if self.session_epochs == 0 {
            0.0
        } else {
            self.fps_violations as f64 / self.session_epochs as f64
        }
    }

    /// Fraction of tracked inputs violating the RTT ceiling.
    pub fn rtt_violation_rate(&self) -> f64 {
        if self.tracked_inputs == 0 {
            0.0
        } else {
            self.rtt_violations as f64 / self.tracked_inputs as f64
        }
    }

    /// The flat numeric metrics of the report, in a fixed order shared by
    /// the JSON/CSV emitters and the golden tests. Dynamics metrics are
    /// *not* included — they live in [`FleetDynamics::metrics`] so static
    /// reports keep their historical shape.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("offered", self.offered as f64),
            ("admitted", self.admitted as f64),
            ("rejected", self.rejected as f64),
            ("rejection_rate", self.rejection_rate()),
            ("utilization", self.utilization),
            ("peak_sessions", self.peak_sessions as f64),
            ("session_epochs", self.session_epochs as f64),
            ("tracked_inputs", self.tracked_inputs as f64),
            ("fps_p50", self.fps.p50()),
            ("fps_p95", self.fps.p95()),
            ("fps_p99", self.fps.p99()),
            ("fps_min", self.fps.min()),
            ("rtt_p50", self.rtt.p50()),
            ("rtt_p95", self.rtt.p95()),
            ("rtt_p99", self.rtt.p99()),
            ("rtt_max", self.rtt.max()),
            ("slo_fps_violation_rate", self.fps_violation_rate()),
            ("slo_rtt_violation_rate", self.rtt_violation_rate()),
        ]
    }

    /// Paths of every non-finite metric (empty when clean).
    pub fn non_finite_paths(&self) -> Vec<String> {
        let mut bad: Vec<String> = self
            .metrics()
            .into_iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(k, v)| format!("{k} = {v}"))
            .collect();
        if let Some(d) = &self.dynamics {
            bad.extend(
                d.metrics()
                    .into_iter()
                    .filter(|(_, v)| !v.is_finite())
                    .map(|(k, v)| format!("dynamics/{k} = {v}")),
            );
        }
        bad
    }
}

// ---------------------------------------------------------------------------
// fleet suite report
// ---------------------------------------------------------------------------

/// The unified outcome of a fleet grid run, with deterministic JSON/CSV
/// emitters mirroring [`SuiteReport`](crate::SuiteReport).
pub struct FleetSuiteReport {
    name: String,
    seed: u64,
    cells: Vec<FleetReport>,
}

impl FleetSuiteReport {
    /// Assembles a suite report from already-run cells, in grid order.
    /// Public so the differential suite can reduce engine-run cells
    /// through the exact emitters [`FleetGrid::run`](super::FleetGrid::run)
    /// uses.
    pub fn from_cells(name: &str, seed: u64, cells: Vec<FleetReport>) -> Self {
        FleetSuiteReport {
            name: name.into(),
            seed,
            cells,
        }
    }

    /// The grid name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Every cell, in grid order (sizes outermost, policies innermost).
    pub fn cells(&self) -> &[FleetReport] {
        &self.cells
    }

    /// The unique cell with these axis values.
    ///
    /// # Panics
    ///
    /// Panics if no cell matches.
    pub fn cell(&self, servers: usize, rate: &str, policy: &str) -> &FleetReport {
        self.cells
            .iter()
            .find(|c| c.servers == servers && c.arrivals == rate && c.policy == policy)
            .unwrap_or_else(|| {
                panic!(
                    "fleet suite {}: no cell {}",
                    self.name,
                    cell_name(servers, rate, policy)
                )
            })
    }

    /// Paths of every non-finite metric in the report (empty when clean).
    pub fn non_finite_paths(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for cell in &self.cells {
            let name = cell_name(cell.servers, &cell.arrivals, &cell.policy);
            for path in cell.non_finite_paths() {
                bad.push(format!("{name}/{path}"));
            }
        }
        bad
    }

    /// Asserts the report contains no NaN or infinite metric.
    ///
    /// # Panics
    ///
    /// Panics listing every offending metric path.
    pub fn assert_finite(&self) {
        let bad = self.non_finite_paths();
        assert!(
            bad.is_empty(),
            "fleet suite {} has non-finite metrics:\n  {}",
            self.name,
            bad.join("\n  ")
        );
    }

    /// Serializes the report as JSON. Deterministic: same grid + seed →
    /// byte-identical output, independent of thread count. Cells without
    /// dynamics emit exactly the historical byte layout; a `"dynamics"`
    /// object follows `"metrics"` only when present.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"suite\": {},", json_escape(&self.name));
        let _ = writeln!(out, "  \"seed\": \"{}\",", self.seed);
        out.push_str("  \"cells\": [\n");
        for (ci, cell) in self.cells.iter().enumerate() {
            let name = cell_name(cell.servers, &cell.arrivals, &cell.policy);
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_escape(&name));
            let _ = writeln!(out, "      \"servers\": {},", cell.servers);
            let _ = writeln!(
                out,
                "      \"slots_per_server\": {},",
                cell.slots_per_server
            );
            let _ = writeln!(out, "      \"rate\": {},", json_escape(&cell.arrivals));
            let _ = writeln!(out, "      \"policy\": {},", json_escape(&cell.policy));
            let _ = writeln!(out, "      \"epochs\": {},", cell.epochs);
            let _ = writeln!(out, "      \"epoch_ns\": {},", cell.epoch.as_nanos());
            let _ = writeln!(out, "      \"seed\": \"{}\",", cell.seed);
            let _ = writeln!(
                out,
                "      \"slo_max_rtt_ms\": {},",
                json_num(cell.slo.max_rtt_ms)
            );
            let _ = writeln!(
                out,
                "      \"slo_min_fps\": {},",
                json_num(cell.slo.min_fps)
            );
            out.push_str("      \"metrics\": {");
            let metrics = cell.metrics();
            for (mi, (key, v)) in metrics.iter().enumerate() {
                if mi > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", json_escape(key), json_num(*v));
            }
            match &cell.dynamics {
                None => out.push_str("}\n"),
                Some(d) => {
                    out.push_str("},\n");
                    out.push_str("      \"dynamics\": {");
                    for (mi, (key, v)) in d.metrics().iter().enumerate() {
                        if mi > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{}: {}", json_escape(key), json_num(*v));
                    }
                    out.push_str("}\n");
                }
            }
            let comma = if ci + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes the report as CSV: one row per (cell, metric).
    /// Deterministic like [`FleetSuiteReport::to_json`]. Dynamics metrics
    /// append extra rows per cell only when present.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("cell,servers,rate,policy,seed,metric,value\n");
        for cell in &self.cells {
            let name = cell_name(cell.servers, &cell.arrivals, &cell.policy);
            let mut metrics = cell.metrics();
            if let Some(d) = &cell.dynamics {
                metrics.extend(d.metrics());
            }
            for (key, v) in metrics {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{}",
                    csv_field(&name),
                    cell.servers,
                    csv_field(&cell.arrivals),
                    csv_field(&cell.policy),
                    cell.seed,
                    csv_field(key),
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        String::new()
                    }
                );
            }
        }
        out
    }

    /// Renders a compact human-readable summary (one row per cell).
    pub fn summary_table(&self) -> String {
        let mut t = Table::new(
            [
                "cell",
                "offered",
                "admitted",
                "rej %",
                "util %",
                "FPS p50/p99",
                "RTT p50/p99 ms",
                "SLO viol %",
            ]
            .map(String::from)
            .to_vec(),
        );
        for cell in &self.cells {
            t.row(vec![
                cell_name(cell.servers, &cell.arrivals, &cell.policy),
                cell.offered.to_string(),
                cell.admitted.to_string(),
                format!("{:.1}", cell.rejection_rate() * 100.0),
                format!("{:.1}", cell.utilization * 100.0),
                format!("{:.1}/{:.1}", cell.fps.p50(), cell.fps.p99()),
                format!("{:.1}/{:.1}", cell.rtt.p50(), cell.rtt.p99()),
                format!(
                    "{:.1}/{:.1}",
                    cell.fps_violation_rate() * 100.0,
                    cell.rtt_violation_rate() * 100.0
                ),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_cell() -> FleetReport {
        FleetReport {
            servers: 2,
            slots_per_server: 4,
            epochs: 3,
            epoch: SimDuration::from_secs(1),
            policy: "first-fit".into(),
            arrivals: "moderate".into(),
            seed: 9,
            offered: 10,
            admitted: 8,
            rejected: 2,
            peak_sessions: 5,
            utilization: 0.5,
            session_epochs: 12,
            tracked_inputs: 40,
            fps: Histogram::new(),
            rtt: Histogram::new(),
            slo: SloSpec::interactive(),
            fps_violations: 1,
            rtt_violations: 2,
            dynamics: None,
        }
    }

    #[test]
    fn dynamics_section_only_appears_when_present() {
        let plain = FleetSuiteReport::from_cells("t", 1, vec![static_cell()]);
        assert!(!plain.to_json().contains("\"dynamics\""));
        assert!(!plain.to_csv().contains("backpressure_queued"));

        let mut dynamic = static_cell();
        dynamic.dynamics = Some(FleetDynamics {
            autoscale: None,
            migration: Some(MigrationStats {
                evaluations: 3,
                migrations: 1,
            }),
            backpressure: Some(BackpressureStats {
                queued: 4,
                retried: 3,
                expired: 1,
                dropped: 0,
                peak_queue: 2,
            }),
            faults: None,
        });
        let suite = FleetSuiteReport::from_cells("t", 1, vec![dynamic]);
        let json = suite.to_json();
        assert!(json.contains("\"dynamics\": {\"migration_evaluations\": 3"));
        assert!(json.contains("\"backpressure_peak_queue\": 2"));
        let csv = suite.to_csv();
        assert!(csv.contains("migrations,1"));
        assert!(csv.contains("backpressure_queued,4"));
    }

    #[test]
    fn dynamics_metrics_respect_configured_sections() {
        let d = FleetDynamics {
            autoscale: Some(AutoscaleStats::default()),
            migration: None,
            backpressure: None,
            faults: None,
        };
        let keys: Vec<&str> = d.metrics().into_iter().map(|(k, _)| k).collect();
        assert!(keys.iter().all(|k| k.starts_with("autoscale_")));
        assert_eq!(keys.len(), 5);
    }

    #[test]
    fn fault_ledger_metrics_appear_with_a_plan() {
        let mut cell = static_cell();
        cell.dynamics = Some(FleetDynamics {
            faults: Some(FaultStats {
                crashes: 2,
                orphaned: 5,
                evicted: 1,
                recovered: 4,
                lost: 2,
                recovery_latency_epochs: 8,
                ..FaultStats::default()
            }),
            ..FleetDynamics::default()
        });
        let f = cell.dynamics.unwrap().faults.unwrap();
        assert_eq!(f.mean_recovery_epochs(), 2.0);
        let suite = FleetSuiteReport::from_cells("t", 1, vec![cell]);
        let json = suite.to_json();
        assert!(json.contains("\"fault_crashes\": 2"));
        assert!(json.contains("\"fault_mean_recovery_epochs\": 2"));
        let csv = suite.to_csv();
        assert!(csv.contains("fault_recovered,4"));
        assert!(csv.contains("fault_lost,2"));
        assert_eq!(FaultStats::default().mean_recovery_epochs(), 0.0);
    }
}
