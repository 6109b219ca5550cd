//! Overhead accounting (§III-C): encryption, reports and storage.

/// Encryption/decryption overhead model (§III-C1).
///
/// Each leecher encrypts and decrypts the equivalent of the entire file
/// once; the overhead is that crypto time relative to the transfer time
/// at the given link rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncryptionOverhead {
    /// Seconds to encrypt (or decrypt) one byte.
    pub seconds_per_byte: f64,
}

impl EncryptionOverhead {
    /// The paper's cited figure (Sirivianos et al.): 0.715 ms per 128 KB
    /// piece.
    pub fn paper_cited() -> Self {
        EncryptionOverhead { seconds_per_byte: 0.715e-3 / (128.0 * 1024.0) }
    }

    /// From a measured cipher throughput in bytes/second (e.g.
    /// perfbench's `crypto.mib_s` on this machine).
    pub fn from_throughput(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "throughput must be positive");
        EncryptionOverhead { seconds_per_byte: 1.0 / bytes_per_sec }
    }

    /// Seconds to encrypt *and* decrypt `file_bytes`.
    pub fn crypto_seconds(&self, file_bytes: f64) -> f64 {
        2.0 * self.seconds_per_byte * file_bytes
    }

    /// Overhead fraction: crypto time over transfer time at
    /// `link_bytes_per_sec`.
    pub fn overhead_fraction(&self, file_bytes: f64, link_bytes_per_sec: f64) -> f64 {
        assert!(link_bytes_per_sec > 0.0, "link rate must be positive");
        self.crypto_seconds(file_bytes) / (file_bytes / link_bytes_per_sec)
    }
}

/// Storage overhead (§III-C3): one key (+nonce) retained per piece.
pub fn space_overhead_fraction(file_bytes: f64, piece_bytes: f64, key_bytes: f64) -> f64 {
    assert!(file_bytes > 0.0 && piece_bytes > 0.0, "positive sizes");
    let pieces = (file_bytes / piece_bytes).ceil();
    pieces * key_bytes / file_bytes
}

/// Report/latency overhead (§III-C2): consecutive transactions interleave,
/// so a single chain of `n` transactions completes within the time of
/// `n + 2` plain piece uploads.
pub fn chain_completion_slots(transactions: u64) -> u64 {
    transactions + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_encryption_overhead_below_1_2_percent() {
        // §III-C1: a 1 GB file needs ~12 s of crypto vs ~1024 s of
        // transfer at 8 Mbps ⇒ < 1.2 %.
        let e = EncryptionOverhead::paper_cited();
        let gb = 1024.0 * 1024.0 * 1024.0;
        let crypto = e.crypto_seconds(gb);
        assert!((11.0..13.0).contains(&crypto), "crypto {crypto} s");
        let mbps8 = 8_000_000.0 / 8.0;
        let frac = e.overhead_fraction(gb, mbps8);
        assert!(frac < 0.012, "overhead {frac}");
        assert!(frac > 0.008);
    }

    #[test]
    fn space_overhead_matches_paper() {
        // §III-C3: 1 GB file, 128 KB pieces, 256-bit keys ⇒ 256 KB
        // (~0.02 %).
        let gb = 1024.0 * 1024.0 * 1024.0;
        let frac = space_overhead_fraction(gb, 128.0 * 1024.0, 32.0);
        assert!((frac - 256.0 * 1024.0 / gb).abs() < 1e-12);
        assert!(frac < 0.0003);
    }

    #[test]
    fn chain_interleaving() {
        // §III-C2: n transactions take no more than n + 2 piece uploads.
        assert_eq!(chain_completion_slots(1), 3);
        assert_eq!(chain_completion_slots(100), 102);
    }

    #[test]
    fn from_measured_throughput() {
        // 1 GB/s cipher: a 128 MB file costs ~0.27 s of crypto.
        let e = EncryptionOverhead::from_throughput(1e9);
        let f = 128.0 * 1024.0 * 1024.0;
        assert!((e.crypto_seconds(f) - 2.0 * f / 1e9).abs() < 1e-12);
        // At 100 KB/s transfer the overhead is far below a percent.
        assert!(e.overhead_fraction(f, 100_000.0) < 0.001);
    }
}
