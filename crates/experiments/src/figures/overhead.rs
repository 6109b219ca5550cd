//! §III-C overhead accounting, with the cipher *measured* on this machine
//! in the paper's own unit, one pass over a 128 KB piece (the code path
//! perfbench's `crypto.mib_s` times).

use crate::output::{persist, print_table, RunMeta};
use crate::runner::sweep_points;
use crate::scale::Scale;
use tchain_analysis::EncryptionOverhead;
use tchain_crypto::Keyring;
use tchain_obs::MetricMap;

tchain_obs::json_struct! {
    /// Measured overhead summary.
    #[derive(Debug, Default)]
    pub struct Data {
        /// Measured ChaCha20 throughput, bytes/second, over one 128 KiB
        /// piece: the fastest of [`BATCHES`] batches.
        pub cipher_bytes_per_sec: f64,
        /// The ChaCha20 kernel build that figure was measured with
        /// ([`tchain_crypto::chacha::kernel`]): it moves the figure 2–3×.
        pub cipher_kernel: String,
        /// Encryption+decryption overhead fraction for a 1 GB file at 8 Mbps
        /// (the paper's §III-C1 scenario; paper: < 1.2 %).
        pub encryption_overhead: f64,
        /// Key-storage overhead fraction for 1 GB / 128 KB pieces / 256-bit
        /// keys (paper: ~0.02 %).
        pub space_overhead: f64,
        /// Chain latency: piece-upload slots for a 100-transaction chain
        /// (paper §III-C2: n + 2).
        pub chain_slots_100: u64,
    }
}

/// The paper's piece: 128 KiB.
const PIECE: usize = 128 * 1024;
/// Timed batches; the fastest one is reported, so one preempted batch on a
/// shared machine does not move the figure.
const BATCHES: usize = 32;
/// Passes per batch (8 MiB a batch over a cache-resident piece).
const PASSES: u32 = 64;

/// Measures the cipher and prints the §III-C table.
pub fn run(scale: Scale) -> Data {
    let mut meta = RunMeta::default();
    let data = sweep_points(
        "overhead",
        &mut meta,
        &[()],
        |_| vec![0],
        |_| "cipher throughput measurement".to_string(),
        |_, _| {
            let mut ring = Keyring::new(1);
            let (_, key) = ring.mint();
            let mut piece = vec![0u8; PIECE];
            // Warm-up.
            key.apply(&mut piece);
            let batch = (0..BATCHES)
                .map(|_| {
                    let start = std::time::Instant::now();
                    for _ in 0..PASSES {
                        key.apply(std::hint::black_box(&mut piece));
                    }
                    start.elapsed()
                })
                .min()
                .expect("BATCHES > 0");
            let throughput = PIECE as f64 * f64::from(PASSES) / batch.as_secs_f64();
            let enc = EncryptionOverhead::from_throughput(throughput);
            let gb = 1024.0 * 1024.0 * 1024.0;
            let data = Data {
                cipher_bytes_per_sec: throughput,
                cipher_kernel: tchain_crypto::chacha::kernel().to_string(),
                encryption_overhead: enc.overhead_fraction(gb, 1_000_000.0),
                space_overhead: tchain_analysis::overhead::space_overhead_fraction(
                    gb,
                    128.0 * 1024.0,
                    32.0,
                ),
                chain_slots_100: tchain_analysis::overhead::chain_completion_slots(100),
            };
            (data, MetricMap::new())
        },
    )
    .into_iter()
    .flatten()
    .next()
    .unwrap_or_default();
    print_table(
        "§III-C overheads (measured cipher)",
        &["metric", "value", "paper"],
        &[
            vec![
                "cipher pass, 128 KB piece".into(),
                format!(
                    "{:.3} ms ({:.0} MB/s, {} kernel)",
                    PIECE as f64 / data.cipher_bytes_per_sec * 1e3,
                    data.cipher_bytes_per_sec / 1e6,
                    data.cipher_kernel
                ),
                "0.715 ms (179 MB/s)".into(),
            ],
            vec![
                "encryption overhead (1 GB @ 8 Mbps)".into(),
                format!("{:.2}%", data.encryption_overhead * 100.0),
                "< 1.2%".into(),
            ],
            vec![
                "key storage overhead".into(),
                format!("{:.3}%", data.space_overhead * 100.0),
                "~0.02%".into(),
            ],
            vec![
                "chain latency (100 txns)".into(),
                format!("{} piece slots", data.chain_slots_100),
                "n + 2".into(),
            ],
        ],
    );
    persist("overhead", scale.name(), &data, &meta);
    data
}
