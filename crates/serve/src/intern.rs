//! Fault-pattern interning.
//!
//! Building a `FaultPattern` from a wire request validates the fault list
//! (in-bounds, connected, not all-faulty) and coalesces it into block
//! regions. The interner canonicalizes each request's list (sorted,
//! deduplicated) and hands every identical list the same
//! `Arc<FaultPattern>`, so a repeated list skips that work.
//!
//! The map is bounded: at [`PatternInterner::DEFAULT_CAP`] entries it is
//! cleared outright rather than evicted piecemeal. Clearing only costs
//! future *sharing* — the next identical request re-validates and
//! re-interns under a fresh `Arc`; results are unaffected because the
//! dedup/cache identity is the pattern's content, never its pointer.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use wormsim_fault::{FaultPattern, PatternError};
use wormsim_topology::{Coord, Mesh};

/// Canonical interning key: mesh radix + sorted, deduplicated faults.
type PatternKey = (u16, Vec<Coord>);

/// Hands out one shared `Arc<FaultPattern>` per distinct
/// `(mesh size, fault set)`. Thread-safe; cheap to share behind an `Arc`.
pub struct PatternInterner {
    map: Mutex<HashMap<PatternKey, Arc<FaultPattern>>>,
    cap: usize,
}

impl Default for PatternInterner {
    fn default() -> Self {
        PatternInterner::with_capacity(Self::DEFAULT_CAP)
    }
}

impl PatternInterner {
    /// Default bound on distinct interned patterns.
    pub const DEFAULT_CAP: usize = 4096;

    /// An interner that clears itself upon reaching `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        PatternInterner {
            map: Mutex::new(HashMap::new()),
            cap: cap.max(1),
        }
    }

    /// The shared pattern for `faults` on a square `mesh_size` mesh,
    /// validating it (in-bounds, connected, not all-faulty) on first use.
    pub fn intern(
        &self,
        mesh_size: u16,
        faults: &[Coord],
    ) -> Result<Arc<FaultPattern>, PatternError> {
        let mut canonical = faults.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        let key = (mesh_size, canonical);
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = map.get(&key) {
            return Ok(p.clone());
        }
        let mesh = Mesh::square(mesh_size);
        let pattern = Arc::new(if key.1.is_empty() {
            FaultPattern::fault_free(&mesh)
        } else {
            FaultPattern::from_faulty_coords(&mesh, key.1.iter().copied())?
        });
        if map.len() >= self.cap {
            map.clear();
        }
        map.insert(key, pattern.clone());
        Ok(pattern)
    }

    /// Distinct patterns currently interned (test hook).
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no pattern is interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_fault_sets_share_one_arc() {
        let interner = PatternInterner::default();
        let a = interner
            .intern(8, &[Coord { x: 1, y: 2 }, Coord { x: 3, y: 3 }])
            .unwrap();
        // Different order, with a duplicate: same canonical set.
        let b = interner
            .intern(
                8,
                &[
                    Coord { x: 3, y: 3 },
                    Coord { x: 1, y: 2 },
                    Coord { x: 1, y: 2 },
                ],
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.len(), 1);
        // A different mesh size is a different pattern.
        let c = interner.intern(10, &[Coord { x: 1, y: 2 }]).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn out_of_bounds_faults_are_rejected() {
        let interner = PatternInterner::default();
        let err = interner.intern(6, &[Coord { x: 6, y: 0 }]).unwrap_err();
        assert!(matches!(err, PatternError::OutOfBounds(_)));
        assert_eq!(interner.len(), 0, "failed interns leave nothing behind");
    }

    #[test]
    fn reaching_the_cap_clears_but_keeps_working() {
        let interner = PatternInterner::with_capacity(3);
        let first = interner.intern(8, &[Coord { x: 0, y: 0 }]).unwrap();
        for x in 1..=3u16 {
            interner.intern(8, &[Coord { x, y: 1 }]).unwrap();
        }
        assert!(interner.len() <= 3);
        // The held Arc stays valid; re-interning just mints a new one.
        assert_eq!(first.num_faulty(), 1);
        let again = interner.intern(8, &[Coord { x: 0, y: 0 }]).unwrap();
        assert_eq!(again.num_faulty(), 1);
    }
}
