//! Bandwidth and size unit helpers.
//!
//! The paper quotes link speeds in Kbps (kilo*bits* per second) and sizes in
//! KB/MB. Internally everything is bytes and bytes-per-second; these helpers
//! keep the experiment code readable and the conversions in one place.

/// Bytes in one KiB.
pub const BYTES_PER_KIB: f64 = 1024.0;
/// Bytes in one MiB.
pub const BYTES_PER_MIB: f64 = 1024.0 * 1024.0;

/// Converts kilobits per second to bytes per second.
///
/// The paper's "400 Kbps" leecher uploads 50 000 bytes/s.
///
/// ```
/// assert_eq!(tchain_sim::kbps(400.0), 50_000.0);
/// ```
#[inline]
pub const fn kbps(v: f64) -> f64 {
    v * 1000.0 / 8.0
}

/// Converts KiB to bytes.
#[inline]
pub fn kib(v: f64) -> f64 {
    v * BYTES_PER_KIB
}

/// Converts MiB to bytes.
#[inline]
pub fn mib(v: f64) -> f64 {
    v * BYTES_PER_MIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kbps_matches_paper_numbers() {
        // A 6000 Kbps seeder moves 750 KB/s.
        assert!((kbps(6000.0) - 750_000.0).abs() < 1e-9);
    }

    #[test]
    fn size_helpers() {
        assert_eq!(kib(64.0), 65_536.0);
        assert_eq!(mib(128.0), 128.0 * 1024.0 * 1024.0);
        assert_eq!(mib(1.0), kib(1024.0));
    }

    #[test]
    fn transfer_time_of_one_gigabit_file_at_8mbps_is_1024_seconds() {
        // Sanity check against §III-C: "the 1024 seconds required to
        // transfer the file at 8Mbps" for a 1 GB (2^30-byte) file.
        let file = mib(1024.0);
        let rate = kbps(8000.0);
        let secs = file / rate;
        assert!((secs - 1073.7).abs() < 1.0);
    }
}
