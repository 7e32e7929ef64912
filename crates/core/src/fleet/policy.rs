//! Placement policies: pure decision functions over per-server load
//! snapshots.
//!
//! The fleet engine offers every candidate session to a
//! [`PlacementPolicy`] against [`ServerLoad`] bookkeeping snapshots;
//! policies must be deterministic pure functions of their inputs — fleet
//! determinism rides on it.

use pictor_apps::App;
use pictor_render::contention::contention_states;

/// Pure bookkeeping snapshot of one server at a placement decision: what a
/// real cluster scheduler would know without touching the data plane.
#[derive(Debug, Clone)]
pub struct ServerLoad {
    /// Server index within the fleet.
    pub index: usize,
    /// Whether the candidate session fits here for its *entire* span
    /// (session slots and GPU memory, per epoch). Policies must only pick
    /// servers that fit.
    pub fits: bool,
    /// Sessions resident in the candidate's start epoch.
    pub sessions: usize,
    /// Session slots per server.
    pub slots: usize,
    /// Free GPU memory in the start epoch, MiB.
    pub gpu_free_mib: u64,
    /// Sum of resident apps' CPU cache pressure.
    pub cpu_pressure: f64,
    /// Sum of resident apps' GPU cache pressure.
    pub gpu_pressure: f64,
    /// Apps resident in the start epoch, in session order.
    pub apps: Vec<App>,
}

/// A placement policy: given the candidate session's app and per-server
/// load snapshots, pick a server index (or `None` to reject).
///
/// Implementations must be deterministic pure functions of their inputs —
/// fleet determinism rides on it.
pub trait PlacementPolicy: Send + Sync {
    /// The policy's axis label.
    fn label(&self) -> &str;

    /// Chooses a server for `app`, or `None` to reject the session. Only
    /// servers with [`ServerLoad::fits`] may be returned; a non-fitting
    /// choice is treated as a rejection.
    fn place(&self, app: &App, servers: &[ServerLoad]) -> Option<usize>;
}

/// First-fit: the lowest-indexed server with room — the baseline any
/// smarter policy must beat.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn label(&self) -> &str {
        "first-fit"
    }

    fn place(&self, _app: &App, servers: &[ServerLoad]) -> Option<usize> {
        servers.iter().find(|s| s.fits).map(|s| s.index)
    }
}

/// Least-contended: among fitting servers, the one whose resident apps
/// exert the least combined CPU+GPU cache pressure (ties break to the
/// lower index).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastContended;

impl PlacementPolicy for LeastContended {
    fn label(&self) -> &str {
        "least-contended"
    }

    fn place(&self, _app: &App, servers: &[ServerLoad]) -> Option<usize> {
        servers
            .iter()
            .filter(|s| s.fits)
            .min_by(|a, b| {
                let pa = a.cpu_pressure + a.gpu_pressure;
                let pb = b.cpu_pressure + b.gpu_pressure;
                pa.partial_cmp(&pb)
                    .expect("finite pressure")
                    .then(a.index.cmp(&b.index))
            })
            .map(|s| s.index)
    }
}

/// Interference-aware: evaluates the *post-placement* contention state of
/// every fitting server with the paper's cache model
/// ([`contention_states`]) and picks the one where the resulting aggregate
/// slowdown — summed over residents and the newcomer — is smallest.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterferenceAware;

impl PlacementPolicy for InterferenceAware {
    fn label(&self) -> &str {
        "interference-aware"
    }

    fn place(&self, app: &App, servers: &[ServerLoad]) -> Option<usize> {
        let tuning = pictor_render::StageTuning::default();
        servers
            .iter()
            .filter(|s| s.fits)
            .map(|s| {
                let profiles: Vec<_> = s
                    .apps
                    .iter()
                    .chain(std::iter::once(app))
                    .map(|a| &a.profile)
                    .collect();
                let mults = vec![1.0; profiles.len()];
                let states = contention_states(&profiles, &tuning, &mults);
                let cost: f64 = states
                    .iter()
                    .map(|st| (1.0 - st.app_speed) + (1.0 - st.vnc_speed))
                    .sum();
                (s.index, cost)
            })
            .min_by(|(ia, ca), (ib, cb)| ca.partial_cmp(cb).expect("finite cost").then(ia.cmp(ib)))
            .map(|(i, _)| i)
    }
}

// ---------------------------------------------------------------------------
// victim policies (fault-driven eviction)
// ---------------------------------------------------------------------------

/// One evictable session on a server that lost capacity: what the fault
/// injector knows when GPU-memory degradation forces residents out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimCandidate {
    /// Session id.
    pub session: u64,
    /// GPU memory the session holds, MiB.
    pub gpu_mib: u64,
    /// Epochs the session still has to run on this server.
    pub remaining_epochs: u64,
    /// The session's own CPU+GPU cache pressure.
    pub pressure: f64,
}

/// Orders capacity-driven eviction when a degradation event shrinks a
/// server below its residents' footprint. Like [`PlacementPolicy`],
/// implementations must be deterministic pure functions of their inputs —
/// fault-run determinism rides on it.
pub trait VictimPolicy: Send + Sync {
    /// The policy's label (reports and debugging).
    fn label(&self) -> &str;

    /// Picks the index of the next victim among `candidates` (never
    /// empty). The engine evicts and re-asks until capacity holds.
    fn pick(&self, candidates: &[VictimCandidate]) -> usize;
}

/// Evict the session holding the most GPU memory first — fewest evictions
/// to get back under capacity (ties break to the lower session id, the
/// longest-resident session).
#[derive(Debug, Clone, Copy, Default)]
pub struct LargestMemoryFirst;

impl VictimPolicy for LargestMemoryFirst {
    fn label(&self) -> &str {
        "largest-memory-first"
    }

    fn pick(&self, candidates: &[VictimCandidate]) -> usize {
        candidates
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                a.gpu_mib
                    .cmp(&b.gpu_mib)
                    .then(b.session.cmp(&a.session))
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i)
            .expect("candidates must be non-empty")
    }
}

/// Evict the session closest to finishing first — it loses the least
/// remaining service (ties break to the larger memory footprint, then the
/// lower session id).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestRemainingFirst;

impl VictimPolicy for ShortestRemainingFirst {
    fn label(&self) -> &str {
        "shortest-remaining-first"
    }

    fn pick(&self, candidates: &[VictimCandidate]) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| {
                a.remaining_epochs
                    .cmp(&b.remaining_epochs)
                    .then(b.gpu_mib.cmp(&a.gpu_mib))
                    .then(a.session.cmp(&b.session))
                    .then(ia.cmp(ib))
            })
            .map(|(i, _)| i)
            .expect("candidates must be non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pictor_apps::AppId;

    fn load(index: usize, fits: bool, sessions: usize) -> ServerLoad {
        ServerLoad {
            index,
            fits,
            sessions,
            slots: 4,
            gpu_free_mib: 8 * 1024,
            cpu_pressure: sessions as f64 * 0.5,
            gpu_pressure: sessions as f64 * 0.3,
            apps: Vec::new(),
        }
    }

    #[test]
    fn first_fit_picks_lowest_fitting_index() {
        let app: App = AppId::Dota2.into();
        let mut loads = vec![load(0, false, 4), load(1, true, 2), load(2, true, 0)];
        assert_eq!(FirstFit.place(&app, &loads), Some(1));
        loads[1].fits = false;
        assert_eq!(FirstFit.place(&app, &loads), Some(2));
        loads[2].fits = false;
        assert_eq!(FirstFit.place(&app, &loads), None);
    }

    #[test]
    fn least_contended_avoids_pressure() {
        let app: App = AppId::Dota2.into();
        let mut heavy = load(0, true, 2);
        heavy.cpu_pressure = 3.0;
        heavy.gpu_pressure = 2.0;
        let light = load(1, true, 2);
        assert_eq!(LeastContended.place(&app, &[heavy, light]), Some(1));
    }

    #[test]
    fn victim_policies_order_deterministically() {
        let c = |session, gpu_mib, remaining_epochs, pressure| VictimCandidate {
            session,
            gpu_mib,
            remaining_epochs,
            pressure,
        };
        let cands = [c(3, 2048, 5, 0.4), c(1, 4096, 9, 0.8), c(7, 4096, 2, 0.1)];
        // Largest memory first; the memory tie breaks to the lower id.
        assert_eq!(LargestMemoryFirst.pick(&cands), 1);
        // Shortest remaining first.
        assert_eq!(ShortestRemainingFirst.pick(&cands), 2);
        let solo = [c(9, 512, 1, 0.2)];
        assert_eq!(LargestMemoryFirst.pick(&solo), 0);
        assert_eq!(ShortestRemainingFirst.pick(&solo), 0);
    }

    #[test]
    fn interference_aware_prefers_gentle_coherents() {
        // STK is the paper's most contentious co-runner, 0AD the least:
        // the interference-aware policy must steer a newcomer away from
        // the STK-loaded server when an 0AD-loaded one fits.
        let app: App = AppId::RedEclipse.into();
        let mut stk = load(0, true, 1);
        stk.apps = vec![AppId::SuperTuxKart.into()];
        let mut zad = load(1, true, 1);
        zad.apps = vec![AppId::ZeroAd.into()];
        assert_eq!(InterferenceAware.place(&app, &[stk, zad]), Some(1));
    }
}
