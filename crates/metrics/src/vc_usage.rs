//! Per-virtual-channel utilization (paper Figure 3).

use serde::{DeError, Deserialize, Serialize, Serializer, Value};

/// Accumulates, per VC index, the number of (physical channel × cycle)
/// slots in which that VC was held by a message. Normalizing by the number
/// of existing physical channels and measured cycles yields the paper's
/// "average usage of virtual channels".
///
/// Counting is incremental: the engine calls [`VcUsageStats::acquire`] /
/// [`VcUsageStats::release`] as messages claim and free VC slots, and
/// [`VcUsageStats::tick`] folds the currently-held counts into the busy
/// totals once per measured cycle — no per-cycle scan over message paths.
/// The explicit [`VcUsageStats::record_busy`] remains for accumulators
/// fed from an external scan.
#[derive(Clone, Debug)]
pub struct VcUsageStats {
    busy: Vec<u64>,
    channels: u64,
    cycles: u64,
    /// Slots currently held per VC index — live engine state, not a
    /// statistic. Excluded from serialization and `merge`.
    held: Vec<u64>,
}

impl VcUsageStats {
    /// Accumulator for `num_vcs` VC indices over `channels` physical
    /// channels.
    pub fn new(num_vcs: u8, channels: usize) -> Self {
        VcUsageStats {
            busy: vec![0; num_vcs as usize],
            channels: channels as u64,
            cycles: 0,
            held: vec![0; num_vcs as usize],
        }
    }

    /// Record that VC `vc` (on some channel) was busy this cycle.
    #[inline]
    pub fn record_busy(&mut self, vc: u8) {
        self.busy[vc as usize] += 1;
    }

    /// A message claimed a slot on VC `vc` (any channel).
    #[inline]
    pub fn acquire(&mut self, vc: u8) {
        self.held[vc as usize] += 1;
    }

    /// A message freed a slot on VC `vc` (any channel).
    #[inline]
    pub fn release(&mut self, vc: u8) {
        let h = &mut self.held[vc as usize];
        debug_assert!(*h > 0, "release of VC {vc} with no held slot");
        *h -= 1;
    }

    /// Slots currently held per VC index (live state; see `acquire`).
    pub fn held_counts(&self) -> &[u64] {
        &self.held
    }

    /// Advance the measured-cycle count, folding the currently-held slot
    /// counts into the busy totals.
    #[inline]
    pub fn tick(&mut self) {
        self.cycles += 1;
        for (b, &h) in self.busy.iter_mut().zip(&self.held) {
            *b += h;
        }
    }

    /// Number of VC indices tracked.
    pub fn num_vcs(&self) -> usize {
        self.busy.len()
    }

    /// Busy-slot counts per VC index.
    pub fn busy_counts(&self) -> &[u64] {
        &self.busy
    }

    /// Utilization fraction (0..=1) of each VC index, averaged over all
    /// physical channels and measured cycles.
    pub fn utilization(&self) -> Vec<f64> {
        let denom = (self.channels * self.cycles) as f64;
        self.busy
            .iter()
            .map(|&b| if denom > 0.0 { b as f64 / denom } else { 0.0 })
            .collect()
    }

    /// Utilization as percentages (the paper's Fig 3 y-axis).
    pub fn utilization_percent(&self) -> Vec<f64> {
        self.utilization().into_iter().map(|u| u * 100.0).collect()
    }

    /// Coefficient of variation of the per-VC utilizations — a scalar
    /// "balance" measure (0 = perfectly even use; large = a few VCs hog).
    pub fn imbalance(&self) -> f64 {
        let u = self.utilization();
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = u.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / u.len() as f64;
        var.sqrt() / mean
    }

    /// Merge another accumulator (same shape) into this one. Only the
    /// statistics merge; live held counts are per-engine state.
    pub fn merge(&mut self, other: &VcUsageStats) {
        assert_eq!(self.busy.len(), other.busy.len());
        assert_eq!(self.channels, other.channels);
        for (a, b) in self.busy.iter_mut().zip(&other.busy) {
            *a += b;
        }
        self.cycles += other.cycles;
    }
}

// Manual impls rather than derives: `held` is live engine state, not a
// statistic, and keeping it out of the wire format preserves report
// compatibility (and byte-identity for fixed-seed runs).
impl Serialize for VcUsageStats {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_map();
        s.field("busy", &self.busy);
        s.field("channels", &self.channels);
        s.field("cycles", &self.cycles);
        s.end_map();
    }
}

impl Deserialize for VcUsageStats {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let busy: Vec<u64> = serde::__field(v, "busy")?;
        let held = vec![0; busy.len()];
        Ok(VcUsageStats {
            busy,
            channels: serde::__field(v, "channels")?,
            cycles: serde::__field(v, "cycles")?,
            held,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_normalizes_by_channels_and_cycles() {
        let mut v = VcUsageStats::new(4, 10);
        for _ in 0..100 {
            v.tick();
        }
        // VC 0 busy on 5 channels for all 100 cycles.
        for _ in 0..500 {
            v.record_busy(0);
        }
        let u = v.utilization();
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert_eq!(u[1], 0.0);
        assert_eq!(v.utilization_percent()[0], 50.0);
    }

    #[test]
    fn imbalance_zero_when_even() {
        let mut v = VcUsageStats::new(3, 1);
        v.tick();
        for vc in 0..3 {
            v.record_busy(vc);
        }
        assert!(v.imbalance() < 1e-12);
    }

    #[test]
    fn imbalance_positive_when_skewed() {
        let mut v = VcUsageStats::new(3, 1);
        v.tick();
        v.record_busy(0);
        assert!(v.imbalance() > 1.0);
    }

    #[test]
    fn incremental_acquire_release_drives_tick() {
        let mut v = VcUsageStats::new(4, 10);
        v.acquire(0);
        v.acquire(0);
        v.acquire(2);
        v.tick(); // busy += held: [2, 0, 1, 0]
        v.release(0);
        v.tick(); // busy += held: [1, 0, 1, 0]
        v.release(0);
        v.release(2);
        v.tick(); // nothing held
        assert_eq!(v.busy_counts(), &[3, 0, 2, 0]);
        assert_eq!(v.held_counts(), &[0, 0, 0, 0]);
    }

    #[test]
    fn held_state_stays_out_of_serialization() {
        let mut v = VcUsageStats::new(2, 5);
        v.acquire(1);
        v.tick();
        let json = {
            let mut s = serde::Serializer::compact();
            v.serialize(&mut s);
            s.finish()
        };
        assert_eq!(json, r#"{"busy":[0,1],"channels":5,"cycles":1}"#);
        let back = VcUsageStats::deserialize(&serde::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.busy_counts(), v.busy_counts());
        assert_eq!(back.held_counts(), &[0, 0], "held resets on deserialize");
    }

    #[test]
    fn merge_adds_busy_and_cycles() {
        let mut a = VcUsageStats::new(2, 5);
        a.tick();
        a.record_busy(0);
        let mut b = VcUsageStats::new(2, 5);
        b.tick();
        b.record_busy(0);
        b.record_busy(1);
        a.merge(&b);
        assert_eq!(a.busy_counts(), &[2, 1]);
        let u = a.utilization();
        assert!((u[0] - 0.2).abs() < 1e-12); // 2 / (5 channels × 2 cycles)
    }
}
