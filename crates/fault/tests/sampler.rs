//! The fault axis's sampler, `random_pattern`: its draws are pinned, and
//! on a mesh small enough to enumerate it is uniform over exactly the
//! seed sets the reading accepts (k seed failures, a connected healthy
//! remainder, at most 3k nodes unavailable after the convex closure).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_topology::{Coord, Mesh};

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The seed failures of `pattern` as a bit set over node indices.
fn seed_mask(mesh: &Mesh, pattern: &FaultPattern) -> u32 {
    mesh.nodes()
        .filter(|&n| pattern.is_seed_faulty(n))
        .fold(0, |m, n| m | 1 << n.index())
}

/// Hash of the regions and seed sets of 50 draws at `k` seed failures.
fn draws_hash(k: usize) -> u64 {
    let mesh = Mesh::square(10);
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..50 {
        let pattern = random_pattern(&mesh, k, &mut rng).expect("pattern");
        for r in pattern.regions() {
            for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
                hash = fnv1a(hash, &v.to_le_bytes());
            }
        }
        hash = fnv1a(hash, b"|");
        for n in mesh.nodes().filter(|&n| pattern.is_seed_faulty(n)) {
            hash = fnv1a(hash, &(n.index() as u32).to_le_bytes());
        }
        hash = fnv1a(hash, b";");
    }
    hash
}

/// Recorded before the sampler lost its builder: the figures, the
/// benchmark's expected fingerprints and this hash all assume these
/// draws.
#[test]
fn draws_are_pinned() {
    assert_eq!(draws_hash(5), 0x25e8_53ad_5985_8be7);
    assert_eq!(draws_hash(10), 0xa467_cb39_5f08_3bb1);
}

/// Every `k`-subset of the 25 nodes of a 5×5 mesh, as bit sets, that the
/// reading accepts.
fn accepted_seed_sets(mesh: &Mesh, k: usize) -> Vec<u32> {
    let width = mesh.width();
    let mut accepted = Vec::new();
    // Gosper's hack: the next larger integer with the same popcount.
    let mut m: u32 = (1 << k) - 1;
    while m < 1 << mesh.num_nodes() {
        let coords = (0..mesh.num_nodes() as u16)
            .filter(|i| m & 1 << i != 0)
            .map(|i| Coord::new(i % width, i / width));
        if FaultPattern::from_faulty_coords(mesh, coords).is_ok_and(|p| p.num_faulty() <= 3 * k) {
            accepted.push(m);
        }
        let c = m & m.wrapping_neg();
        let r = m + c;
        m = (((r ^ m) >> 2) / c) | r;
    }
    accepted
}

#[test]
fn sampler_is_uniform_over_the_accepted_seed_sets() {
    let mesh = Mesh::square(5);
    for (k, expected_cells) in [(3, 2300), (4, 12562), (5, 50038)] {
        let cells = accepted_seed_sets(&mesh, k);
        assert_eq!(cells.len(), expected_cells, "accepted {k}-seed sets");
        let index: HashMap<u32, usize> = cells.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let per_cell = 10;
        let mut counts = vec![0u32; cells.len()];
        let mut rng = SmallRng::seed_from_u64(0x5A3F + k as u64);
        for _ in 0..per_cell * cells.len() {
            let pattern = random_pattern(&mesh, k, &mut rng).expect("pattern");
            let mask = seed_mask(&mesh, &pattern);
            let cell = index.get(&mask).unwrap_or_else(|| {
                panic!("k={k}: drew seed set {mask:#x}, which the reading rejects")
            });
            counts[*cell] += 1;
        }
        let expected = f64::from(per_cell as u32);
        let chi2: f64 = counts
            .iter()
            .map(|&o| (f64::from(o) - expected).powi(2) / expected)
            .sum();
        let df = (cells.len() - 1) as f64;
        let z = (chi2 - df) / (2.0 * df).sqrt();
        assert!(z < 5.0, "k={k}: χ² = {chi2:.0} over {df} df, z = {z:.2}");
    }
}
