//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed changes under it. On the
//! 2-vCPU VM it was tuned on, the same fixed work ran 1.3–1.6x slower for
//! seconds to minutes at a time, with the process's CPU time equal to its
//! wall time: no time was taken from the process, the core it ran on got
//! slower, the way a core does when a neighbour runs on its other hardware
//! thread. No statistic over a run removes a slowdown that covers the whole
//! run, so timed stretches of CPU-bound work are bracketed by a fixed
//! calibration kernel — the benchmark's own code, which no change to the
//! program can speed up — and divided by the host's slowness over the
//! stretch: the kernel's time now over its time on the nominal host.
//!
//! The kernel is a sort of 4096 pseudo-random keys: branchy integer work in
//! L1, like the workloads' control paths. Probes alongside the
//! `fleet_control` and `ic_colocated` operations found its time tracking
//! theirs through the slow spells (their ratio stayed within ~5% while the
//! operations slowed by up to 1.6x), where a pointer chase through 16 MiB,
//! a floating-point recurrence and a small matrix product slowed by only
//! 1.1x or jumped about on their own.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median_of, Samples};

/// Keys sorted by one kernel unit (32 KiB).
const KEYS: usize = 4096;
/// Kernel units per calibration between short stretches of work.
pub const UNITS: usize = 5;
/// Kernel units per calibration around a single call of seconds: the
/// speed right before and after it stands for the whole call, so it is
/// sampled for longer.
pub const LONG_UNITS: usize = 60;
/// One kernel unit on the nominal host, s: the fast state of the 2-vCPU VM
/// the benchmark was tuned on. Timings divided by slowness read as on that
/// host.
pub const NOMINAL_UNIT_S: f64 = 50e-6;

/// The calibration kernel's data.
pub struct Calibrator {
    keys: Vec<u64>,
    work: RefCell<Vec<u64>>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys = (0..KEYS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x
            })
            .collect();
        Calibrator {
            keys,
            work: RefCell::new(vec![0; KEYS]),
        }
    }

    /// One kernel unit's wall time, s.
    pub fn unit(&self) -> f64 {
        let mut work = self.work.borrow_mut();
        work.copy_from_slice(&self.keys);
        let t = Instant::now();
        work.sort_unstable();
        black_box(work[KEYS / 2]);
        t.elapsed().as_secs_f64()
    }

    /// The host's slowness on this thread now: the median of `units`
    /// kernel units over the nominal unit (2.0 = twice as slow as the
    /// nominal host). The median keeps an interrupt inside one unit out.
    pub fn slowness(&self, units: usize) -> f64 {
        median_of(&(0..units).map(|_| self.unit()).collect::<Vec<_>>()) / NOMINAL_UNIT_S
    }
}

/// Rescales consecutive timed stretches of work to the nominal host.
pub struct HostClock {
    cal: Calibrator,
    last: f64,
    laps: Samples,
}

impl HostClock {
    pub fn new() -> Self {
        let cal = Calibrator::new();
        let last = cal.slowness(UNITS);
        HostClock {
            cal,
            last,
            laps: Samples::new(),
        }
    }

    /// Calibrates again and returns the slowness over the stretch since the
    /// previous calibration: the mean of the two that bracket it.
    pub fn lap(&mut self) -> f64 {
        self.lap_with(UNITS)
    }

    /// [`HostClock::lap`] with `units` kernel units.
    pub fn lap_with(&mut self, units: usize) -> f64 {
        let now = self.cal.slowness(units);
        let s = (self.last + now) / 2.0;
        self.last = now;
        self.laps.push(s);
        s
    }

    /// Starts a new stretch now, without one that ends here.
    pub fn restart(&mut self) {
        self.restart_with(UNITS);
    }

    /// [`HostClock::restart`] with `units` kernel units.
    pub fn restart_with(&mut self, units: usize) {
        self.last = self.cal.slowness(units);
    }

    /// Median slowness over the laps so far, and their count.
    pub fn median(&mut self) -> (f64, usize) {
        (self.laps.median(), self.laps.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_sorts_the_same_keys_every_unit() {
        let cal = Calibrator::new();
        assert!(cal.unit() > 0.0);
        let first = cal.work.borrow().clone();
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        cal.unit();
        assert_eq!(*cal.work.borrow(), first);
        assert_ne!(cal.keys, first, "the keys start out of order");
    }

    #[test]
    fn laps_bracket_the_stretch() {
        let mut clock = HostClock::new();
        let first = clock.last;
        let s = clock.lap();
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(s, (first + clock.last) / 2.0);
        assert_eq!(clock.median().1, 1);
    }
}
