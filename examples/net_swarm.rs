//! Boot a real in-process swarm on the `tchain-net` runtime.
//!
//! ```sh
//! cargo run --release --example net_swarm
//! ```
//!
//! Unlike `quickstart` (which runs the fluid simulator), every exchange
//! here moves actual bytes: eight peers on a deterministic channel mesh
//! trade genuinely ChaCha20-encrypted pieces, keys are released only
//! against reception reports (§II-B), and one peer free-rides to show
//! the incentive bite. Prints per-peer completions and chain stats.

use tchain_net::{run_swarm, Strategy, SwarmConfig};

fn main() {
    let cfg = SwarmConfig {
        peers: 8,
        strategies: vec![(7, Strategy::zero_upload())],
        seed: 0xCAFE,
        ..SwarmConfig::default()
    };
    let report = run_swarm(cfg).expect("mesh transport");

    println!(
        "tchain-net swarm — {} peers ({} free-riding) sharing {} pieces over `{}`",
        report.peers, report.free_riders, report.pieces, report.backend
    );
    println!(
        "  finished leechers : {}/{} compliant, {}/{} free-riders",
        report.completed_compliant,
        report.total_compliant,
        report.completed_free_riders,
        report.free_riders
    );
    println!(
        "  run               : {} ticks ({:.1} virtual s), frame digest {:016x}",
        report.ticks, report.elapsed, report.fingerprint
    );
    println!(
        "  plaintexts        : {}",
        if report.plaintext_ok { "byte-identical to the source" } else { "CORRUPT" }
    );
    println!(
        "  audit             : {} key releases checked, {} violations",
        report.key_releases,
        report.violations.len()
    );
    println!(
        "  traffic           : {} encrypted uploads, {} gifts, {} reports, {} escrow transfers",
        report.uploads, report.gifts, report.reports, report.escrow_transfers
    );
    println!(
        "  chains            : {} started, mean length {:.2}, max {}, {} terminated (§II-B3)",
        report.chains_started, report.mean_chain_len, report.max_chain_len, report.chains_terminated
    );

    println!("  per peer          :");
    for (id, c) in &report.peer_counters {
        let done = report
            .completion_times
            .iter()
            .find(|(p, _)| p == id)
            .map(|(_, t)| format!("done at {t:>6.1}s"))
            .unwrap_or_else(|| {
                if *id == 0 { "seeder       ".into() } else { "incomplete   ".into() }
            });
        println!(
            "    peer {id:>2}: {done}  {} decrypted, {} gifted, {} keys sent, {} reports sent, {} escrowed",
            c.decrypted, c.unencrypted, c.keys_sent, c.reports_sent, c.escrowed
        );
    }

    for v in &report.violations {
        eprintln!("  VIOLATION: {v}");
    }
    assert!(report.ok(), "run must satisfy every protocol invariant");
}
