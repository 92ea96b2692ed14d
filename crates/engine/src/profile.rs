//! Per-phase cycle-time profiling for the engine's step loop.
//!
//! The simulator is generic over `const PROFILE: bool` in the same
//! compile-away discipline as [`Sink::ENABLED`](wormsim_obs::Sink): every
//! stamp site is guarded by `if PROFILE`, so the default `PROFILE =
//! false` instantiation carries no timers, no branches, and no behavior
//! change — reports (and their committed fingerprints) and the
//! zero-allocation steady state are untouched. A `PROFILE = true`
//! simulator accumulates wall-clock nanoseconds per phase into
//! [`PhaseTimes`]; timing observes, it never perturbs (no RNG draws, no
//! simulation state reads).
//!
//! Phase boundaries map onto the numbered sections of
//! `Simulator::step`:
//!
//! | phase      | step sections                                          |
//! |------------|--------------------------------------------------------|
//! | `inject`   | 0–2: fault poll, traffic generation, backoff requeue, injection-port promotion |
//! | `route`    | 3: service-order construction (shuffle / ordered mirror) |
//! | `allocate` | 4: routing decisions + VC allocation for headers       |
//! | `move`     | 5: flit movement                                       |
//! | `recover`  | 6–8: watchdog scan, recoveries, stats/cleanup, delivery window |

use std::time::Duration;

/// Number of profiled phases per cycle.
pub const NUM_PHASES: usize = 5;

/// One profiled section of the step loop. See the module docs for the
/// mapping onto `Simulator::step`'s numbered sections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Fault poll, traffic generation, backoff requeue, port promotion.
    Inject = 0,
    /// Service-order construction (arbitration).
    Route = 1,
    /// Routing decisions + VC allocation for headers.
    Allocate = 2,
    /// Flit movement.
    Move = 3,
    /// Watchdog, recoveries, and the stats/cleanup/delivery-window tail.
    Recover = 4,
}

impl Phase {
    /// Every phase, in step order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Inject,
        Phase::Route,
        Phase::Allocate,
        Phase::Move,
        Phase::Recover,
    ];

    /// Stable lowercase name (used in bench records and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Inject => "inject",
            Phase::Route => "route",
            Phase::Allocate => "allocate",
            Phase::Move => "move",
            Phase::Recover => "recover",
        }
    }
}

/// Accumulated wall-clock nanoseconds per phase, the number of profiled
/// cycles, how much the `move` phase walked (worms visited and the stages,
/// i.e. held VCs, they held) and what the `allocate` phase did: live
/// headers visited, `route()` calls, and blocked headers that only ticked
/// their wait counter. Copyable data; `reset` clears it along with
/// the rest of the simulator's run state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; NUM_PHASES],
    cycles: u64,
    worms: u64,
    stage_visits: u64,
    alloc_visits: u64,
    route_calls: u64,
    blocked_ticks: u64,
}

impl PhaseTimes {
    /// All-zero accumulator.
    pub fn new() -> Self {
        PhaseTimes::default()
    }

    /// Add one measured span to a phase (saturating).
    #[inline]
    pub fn add(&mut self, phase: Phase, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.nanos[phase as usize] = self.nanos[phase as usize].saturating_add(ns);
    }

    /// Count one completed profiled cycle.
    #[inline]
    pub fn tick_cycle(&mut self) {
        self.cycles += 1;
    }

    /// Count one worm walked by the movement pass, holding `stages` VCs.
    #[inline]
    pub fn count_worm(&mut self, stages: usize) {
        self.worms += 1;
        self.stage_visits += stages as u64;
    }

    #[inline]
    pub(crate) fn count_alloc_visit(&mut self) {
        self.alloc_visits += 1;
    }

    #[inline]
    pub(crate) fn count_route_call(&mut self) {
        self.route_calls += 1;
    }

    #[inline]
    pub(crate) fn count_blocked_tick(&mut self) {
        self.blocked_ticks += 1;
    }

    /// Live messages the allocation pass visited, whatever their phase.
    pub fn alloc_visits(&self) -> u64 {
        self.alloc_visits
    }

    /// `route()` calls the allocation pass made.
    pub fn route_calls(&self) -> u64 {
        self.route_calls
    }

    /// Blocked headers the allocation pass only ticked (no `route()`).
    pub fn blocked_ticks(&self) -> u64 {
        self.blocked_ticks
    }

    /// Worms the movement pass walked (stalled and queued ones excluded).
    pub fn worms(&self) -> u64 {
        self.worms
    }

    /// Held stages those worms walked.
    pub fn stage_visits(&self) -> u64 {
        self.stage_visits
    }

    /// `move`-phase nanoseconds per stage visit (0 before any visit).
    pub fn ns_per_stage_visit(&self) -> f64 {
        if self.stage_visits == 0 {
            0.0
        } else {
            self.nanos(Phase::Move) as f64 / self.stage_visits as f64
        }
    }

    /// Accumulated nanoseconds for a phase.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Total accumulated nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Profiled cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Mean nanoseconds per cycle for a phase (0 before any cycle).
    pub fn mean_ns_per_cycle(&self, phase: Phase) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.nanos(phase) as f64 / self.cycles as f64
        }
    }

    /// A phase's share of the total profiled time (0 when nothing is
    /// accumulated).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos(phase) as f64 / total as f64
        }
    }

    /// Zero the accumulator.
    pub fn clear(&mut self) {
        *self = PhaseTimes::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_summarizes() {
        let mut t = PhaseTimes::new();
        t.add(Phase::Move, Duration::from_nanos(300));
        t.add(Phase::Move, Duration::from_nanos(200));
        t.add(Phase::Inject, Duration::from_nanos(500));
        t.tick_cycle();
        t.tick_cycle();
        assert_eq!(t.nanos(Phase::Move), 500);
        assert_eq!(t.total_nanos(), 1000);
        assert_eq!(t.cycles(), 2);
        assert_eq!(t.mean_ns_per_cycle(Phase::Inject), 250.0);
        t.count_worm(3);
        t.count_worm(7);
        assert_eq!((t.worms(), t.stage_visits()), (2, 10));
        assert_eq!(t.ns_per_stage_visit(), 50.0);
        t.count_alloc_visit();
        t.count_alloc_visit();
        t.count_route_call();
        t.count_blocked_tick();
        assert_eq!(
            (t.alloc_visits(), t.route_calls(), t.blocked_ticks()),
            (2, 1, 1)
        );
        assert_eq!(t.share(Phase::Recover), 0.0);
        assert!((t.share(Phase::Move) - 0.5).abs() < 1e-12);
        t.clear();
        assert_eq!(t.total_nanos(), 0);
        assert_eq!(t.cycles(), 0);
        assert_eq!(t.stage_visits(), 0);
        assert_eq!(t.alloc_visits(), 0);
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: std::collections::BTreeSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), NUM_PHASES);
        assert_eq!(Phase::ALL[0].name(), "inject");
        assert_eq!(Phase::ALL[4].name(), "recover");
    }
}
