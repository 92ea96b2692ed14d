//! Seed → inputs. Every input a workload feeds the program is derived
//! from `--seed` here, so the same seed gives the same inputs and the
//! program itself sees only generated inputs.

/// splitmix64: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent seed for item `index` of input stream `stream`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut mix = SplitMix::new(
        seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ index.wrapping_mul(0xA076_1D64_78BD_642F),
    );
    mix.next_u64()
}

/// A workload's repeat count at `scale` (1.0 = the size `BENCHMARK.json`
/// runs; `--smoke` is 1/20), never below `floor`.
pub fn scaled(full: usize, scale: f64, floor: usize) -> usize {
    ((full as f64 * scale).round() as usize).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut m = SplitMix::new(42);
            (0..8).map(|_| m.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut m = SplitMix::new(42);
            (0..8).map(|_| m.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = SplitMix::new(43);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn derived_seeds_separate_streams_and_items() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 2, 3), derive(2, 2, 3));
    }

    #[test]
    fn scaling_rounds_and_respects_the_floor() {
        assert_eq!(scaled(36, 1.0, 1), 36);
        assert_eq!(scaled(36, 0.05, 1), 2);
        assert_eq!(scaled(6, 0.05, 1), 1);
        assert_eq!(scaled(30_000, 0.05, 1), 1_500);
    }
}
