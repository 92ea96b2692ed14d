//! Result fingerprints.
//!
//! A **report fingerprint** is FNV-1a over a run's serialized
//! [`SimReport`]. Simulation results are deterministic per seed and
//! machine-independent, so the fingerprint is the result's identity:
//! `tests/golden_fingerprints.rs` and `tests/steady_state_alloc.rs` pin
//! recorded values, and the result cache in `wormsim-serve` stores it
//! alongside each cached report as an integrity check. A spec's identity
//! is not hashed: the serving layer keys on its canonical form
//! ([`CustomSpec::canonical`](crate::CustomSpec::canonical)), where
//! equality is spec equality and no collision can alias two simulations.

use wormsim_metrics::SimReport;

/// FNV-1a over a byte string: the workspace's standard cheap,
/// dependency-free, stable 64-bit hash (the constants every committed
/// fingerprint was recorded with).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fingerprint of a serialized report, formatted the way every
/// baseline and results artifact records it (16 lowercase hex digits).
pub fn report_json_fingerprint(report_json: &str) -> String {
    format!("{:016x}", fnv1a(report_json.as_bytes()))
}

/// Serialize `report` compactly and fingerprint it. The compact form is
/// the wire/cache form; the historical paper-run pin `6fea1f0c9bd99fc2`
/// is over the *pretty* form, so the two are distinct namespaces — never
/// compare one against the other.
pub fn report_fingerprint(report: &SimReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    report_json_fingerprint(&json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fingerprint_formats_as_16_hex_digits() {
        let fp = report_json_fingerprint("{}");
        assert_eq!(fp.len(), 16);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
