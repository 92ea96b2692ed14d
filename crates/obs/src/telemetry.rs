//! Per-window cycle telemetry: coarse time series over a run, folded
//! from the trace-event stream.
//!
//! The engine's report answers "how did the run do overall"; telemetry
//! answers "when did it change". [`TelemetrySink`] folds the events of
//! each fixed-width window of cycles into a [`TelemetryWindow`] —
//! injection, delivery and blocking rates, VC occupancy and f-ring
//! crossings *over time* — the view that makes fault activations and
//! congestion collapses visible.

use crate::event::{EventKind, TraceEvent};
use crate::sink::Sink;
use serde::{Deserialize, Serialize};

/// Aggregates for one window of consecutive cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryWindow {
    /// First cycle of the window (measured from simulation start).
    pub start_cycle: u64,
    /// Cycles covered (the final window may be shorter).
    pub cycles: u64,
    /// Messages injected into the network (queue → injection port).
    pub injected: u64,
    /// Messages whose tail flit drained at the destination.
    pub delivered_messages: u64,
    /// Blocked-cycle count: one per message per cycle spent waiting.
    pub blocked_waits: u64,
    /// Mean VC slots held across the window's cycles.
    pub mean_vc_held: f64,
    /// Hops taken on fault-ring overlay VCs during the window.
    pub ring_crossings: u64,
}

impl TelemetryWindow {
    /// Injection rate in messages/cycle over this window.
    pub fn injection_rate(&self) -> f64 {
        self.injected as f64 / self.cycles.max(1) as f64
    }

    /// Delivery rate in messages/cycle over this window.
    pub fn delivery_rate(&self) -> f64 {
        self.delivered_messages as f64 / self.cycles.max(1) as f64
    }

    /// Mean messages blocked per cycle over this window.
    pub fn mean_blocked(&self) -> f64 {
        self.blocked_waits as f64 / self.cycles.max(1) as f64
    }
}

/// The complete time series for one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CycleTelemetry {
    /// Configured window width in cycles.
    pub window: u64,
    /// Consecutive windows, oldest first; the last may be partial.
    pub windows: Vec<TelemetryWindow>,
}

impl CycleTelemetry {
    /// Total messages injected across all windows.
    pub fn total_injected(&self) -> u64 {
        self.windows.iter().map(|w| w.injected).sum()
    }

    /// Total messages delivered across all windows.
    pub fn total_delivered(&self) -> u64 {
        self.windows.iter().map(|w| w.delivered_messages).sum()
    }

    /// The window with the highest mean blocked-message count.
    pub fn peak_blocked_window(&self) -> Option<&TelemetryWindow> {
        self.windows
            .iter()
            .max_by(|a, b| a.mean_blocked().total_cmp(&b.mean_blocked()))
    }
}

/// A [`Sink`] that folds the event stream into [`CycleTelemetry`], one
/// [`TelemetryWindow`] per `window` cycles from cycle 0.
///
/// Each field comes from events: `Inject` and `Deliver` are counted;
/// `VcAcquire` minus `VcRelease` is the number of VC slots held at the
/// end of every cycle, events or none; a `VcAcquire` on an overlay VC is
/// a ring crossing. A header blocks from its `Block` until its next
/// `RouteDecision`, `Abort` or `Recover`, and counts one wait for every
/// cycle in which the allocation pass found it asleep: that includes the
/// `Block` cycle and the cycle of a `Recover` (the watchdog runs after
/// allocation), but not the cycle of a `RouteDecision` that does not
/// block again, nor of an `Abort` (fault activation runs before it).
#[derive(Clone, Debug)]
pub struct TelemetrySink {
    window: u64,
    /// Bit `vc` set iff VC index `vc` belongs to the fault-ring overlay.
    overlay_vcs: u32,
    windows: Vec<TelemetryWindow>,
    /// The window being filled; `cycles` counts its closed cycles and
    /// `mean_vc_held` is unused until it closes.
    open: TelemetryWindow,
    /// First cycle not yet closed: events of earlier cycles are final.
    cycle: u64,
    /// VC slots held now.
    vc_held: u64,
    /// `vc_held` summed over the open window's closed cycles.
    vc_held_sum: u64,
    /// Per message id: its header is asleep since a `Block`.
    asleep: Vec<bool>,
    /// Headers asleep now.
    blocked: u64,
    /// Headers recovered this cycle while asleep: they still count as
    /// blocked in it.
    recovered_asleep: u64,
}

impl TelemetrySink {
    /// A sink closing one window per `window` cycles (`window ≥ 1`);
    /// bit `vc` of `overlay_vcs` marks VC index `vc` as an overlay VC.
    pub fn new(window: u64, overlay_vcs: u32) -> Self {
        assert!(window >= 1, "telemetry window must be at least 1 cycle");
        TelemetrySink {
            window,
            overlay_vcs,
            windows: Vec::new(),
            open: TelemetryWindow::default(),
            cycle: 0,
            vc_held: 0,
            vc_held_sum: 0,
            asleep: Vec::new(),
            blocked: 0,
            recovered_asleep: 0,
        }
    }

    /// Close every cycle before `cycle`. The state between events is
    /// constant, so a gap closes in one step per window it touches.
    fn close_until(&mut self, cycle: u64) {
        while self.cycle < cycle {
            let n = (cycle - self.cycle).min(self.window - self.open.cycles);
            self.open.blocked_waits += self.blocked * n + self.recovered_asleep;
            self.recovered_asleep = 0;
            self.vc_held_sum += self.vc_held * n;
            self.open.cycles += n;
            self.cycle += n;
            if self.open.cycles == self.window {
                self.close_window();
            }
        }
    }

    fn close_window(&mut self) {
        let next = TelemetryWindow {
            start_cycle: self.cycle,
            ..TelemetryWindow::default()
        };
        let mut w = std::mem::replace(&mut self.open, next);
        w.mean_vc_held = self.vc_held_sum as f64 / w.cycles as f64;
        self.vc_held_sum = 0;
        self.windows.push(w);
    }

    /// Whether message `msg`'s header was asleep; it is awake from now.
    fn wake(&mut self, msg: u32) -> bool {
        match self.asleep.get_mut(msg as usize) {
            Some(a) if *a => {
                *a = false;
                self.blocked -= 1;
                true
            }
            _ => false,
        }
    }

    /// The time series of a run that simulated `cycles_run` cycles; the
    /// last window is partial unless `window` divides `cycles_run`.
    pub fn finish(mut self, cycles_run: u64) -> CycleTelemetry {
        self.close_until(cycles_run);
        if self.open.cycles > 0 {
            self.close_window();
        }
        CycleTelemetry {
            window: self.window,
            windows: self.windows,
        }
    }
}

impl Sink for TelemetrySink {
    fn record(&mut self, e: TraceEvent) {
        debug_assert!(e.cycle >= self.cycle, "events arrive in cycle order");
        self.close_until(e.cycle);
        match e.kind {
            EventKind::Inject => self.open.injected += 1,
            EventKind::Deliver => self.open.delivered_messages += 1,
            EventKind::VcAcquire => {
                self.vc_held += 1;
                if self.overlay_vcs >> e.vc & 1 != 0 {
                    self.open.ring_crossings += 1;
                }
            }
            EventKind::VcRelease => self.vc_held -= 1,
            EventKind::Block => {
                let i = e.msg as usize;
                if self.asleep.len() <= i {
                    self.asleep.resize(i + 1, false);
                }
                self.asleep[i] = true;
                self.blocked += 1;
            }
            EventKind::RouteDecision | EventKind::Abort => {
                self.wake(e.msg);
            }
            EventKind::Recover => {
                if self.wake(e.msg) {
                    self.recovered_asleep += 1;
                }
            }
            EventKind::Wake => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind, msg: u32) -> TraceEvent {
        TraceEvent::new(cycle, kind, msg)
    }

    fn acquire(cycle: u64, msg: u32, vc: u8) -> TraceEvent {
        ev(cycle, EventKind::VcAcquire, msg).at(0).on(0, vc)
    }

    fn release(cycle: u64, msg: u32, vc: u8) -> TraceEvent {
        ev(cycle, EventKind::VcRelease, msg).at(0).on(0, vc)
    }

    fn fold(window: u64, events: &[TraceEvent], cycles_run: u64) -> CycleTelemetry {
        let mut s = TelemetrySink::new(window, 0);
        for &e in events {
            s.record(e);
        }
        s.finish(cycles_run)
    }

    #[test]
    fn windows_close_at_width_and_partial_tail_survives() {
        let events: Vec<TraceEvent> = (0..10).map(|c| ev(c, EventKind::Inject, 0)).collect();
        let t = fold(4, &events, 10);
        assert_eq!(t.window, 4);
        let spans: Vec<(u64, u64)> = t
            .windows
            .iter()
            .map(|w| (w.start_cycle, w.cycles))
            .collect();
        assert_eq!(
            spans,
            [(0, 4), (4, 4), (8, 2)],
            "two full windows + partial tail"
        );
        assert_eq!(t.windows[0].injected, 4);
        assert_eq!(t.windows[2].injected, 2);
        assert_eq!(t.total_injected(), 10);
    }

    #[test]
    fn windows_tile_the_run_exactly() {
        for (window, cycles_run) in [(3, 0), (3, 9), (3, 10), (7, 1), (50, 3_000), (64, 3_001)] {
            let events = [ev(cycles_run / 2, EventKind::Deliver, 0)];
            let t = fold(window, &events[..usize::from(cycles_run > 0)], cycles_run);
            let mut next = 0;
            for w in &t.windows {
                assert_eq!(w.start_cycle, next, "window {window}: gap or overlap");
                assert!(w.cycles >= 1 && w.cycles <= window);
                next += w.cycles;
            }
            assert_eq!(
                next, cycles_run,
                "window {window}: windows must sum to the run"
            );
            assert_eq!(t.windows.len() as u64, cycles_run.div_ceil(window));
            assert_eq!(t.total_delivered(), u64::from(cycles_run > 0));
        }
    }

    #[test]
    fn windows_with_no_events_still_integrate_held_vcs_and_waits() {
        // One slot held from cycle 1 to 8 and a header asleep from cycle
        // 2 (counted) to its re-route at 7 (not counted); nothing at all
        // happens in the window [4, 6).
        let events = [
            acquire(1, 0, 3),
            ev(2, EventKind::RouteDecision, 1),
            ev(2, EventKind::Block, 1),
            ev(7, EventKind::RouteDecision, 1),
            release(8, 0, 3),
        ];
        let t = fold(2, &events, 10);
        let held: Vec<f64> = t.windows.iter().map(|w| w.mean_vc_held).collect();
        assert_eq!(held, [0.5, 1.0, 1.0, 1.0, 0.0]);
        let waits: Vec<u64> = t.windows.iter().map(|w| w.blocked_waits).collect();
        assert_eq!(waits, [0, 2, 2, 1, 0]);
        assert_eq!(t.windows[2].injected + t.windows[2].delivered_messages, 0);
    }

    #[test]
    fn abort_ends_a_wait_before_its_cycle_and_recover_after_it() {
        let events = [
            ev(0, EventKind::Block, 4),
            ev(0, EventKind::Block, 5),
            ev(3, EventKind::Abort, 4),
            ev(3, EventKind::Recover, 5),
        ];
        let t = fold(1, &events, 5);
        let waits: Vec<u64> = t.windows.iter().map(|w| w.blocked_waits).collect();
        assert_eq!(waits, [2, 2, 2, 1, 0]);
    }

    #[test]
    fn window_of_one_cycle_closes_every_cycle() {
        let events = [
            ev(0, EventKind::Inject, 0),
            acquire(0, 0, 0),
            ev(2, EventKind::Block, 0),
            ev(3, EventKind::Recover, 0),
            release(3, 0, 0),
        ];
        let t = fold(1, &events, 5);
        assert_eq!(t.windows.len(), 5);
        assert!(t
            .windows
            .iter()
            .enumerate()
            .all(|(c, w)| w.start_cycle == c as u64 && w.cycles == 1));
        let held: Vec<f64> = t.windows.iter().map(|w| w.mean_vc_held).collect();
        assert_eq!(held, [1.0, 1.0, 1.0, 0.0, 0.0]);
        let waits: Vec<u64> = t.windows.iter().map(|w| w.blocked_waits).collect();
        assert_eq!(waits, [0, 0, 1, 1, 0]);
    }

    #[test]
    fn ring_crossings_count_only_overlay_vcs() {
        let mut s = TelemetrySink::new(2, 0b1100_0000);
        for (cycle, vc) in [(0, 5), (0, 6), (1, 7), (2, 8), (3, 6)] {
            s.record(acquire(cycle, 0, vc));
        }
        let t = s.finish(4);
        let crossings: Vec<u64> = t.windows.iter().map(|w| w.ring_crossings).collect();
        assert_eq!(crossings, [2, 1]);
    }

    #[test]
    fn rates_and_peak_window() {
        let events = [
            ev(0, EventKind::Inject, 0),
            ev(0, EventKind::Inject, 1),
            ev(0, EventKind::Inject, 2),
            ev(0, EventKind::Inject, 3),
            ev(1, EventKind::Deliver, 0),
            ev(1, EventKind::Deliver, 1),
            ev(2, EventKind::Block, 2),
            ev(2, EventKind::Block, 3),
        ];
        let t = fold(2, &events, 4);
        assert_eq!(t.windows[0].injection_rate(), 2.0);
        assert_eq!(t.windows[0].delivery_rate(), 1.0);
        assert_eq!(t.windows[1].mean_blocked(), 2.0);
        assert_eq!(t.peak_blocked_window().unwrap().start_cycle, 2);
    }

    #[test]
    fn serde_round_trip() {
        let events = [
            ev(0, EventKind::Inject, 0),
            acquire(1, 0, 6),
            ev(2, EventKind::Block, 0),
            ev(5, EventKind::Deliver, 0),
        ];
        let mut s = TelemetrySink::new(3, 1 << 6);
        for e in events {
            s.record(e);
        }
        let t = s.finish(7);
        let json = serde_json::to_string(&t).unwrap();
        assert!(!json.contains("delivered_flits"));
        let back: CycleTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
