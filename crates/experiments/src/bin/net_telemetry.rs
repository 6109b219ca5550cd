//! Swarm telemetry acceptance over the executable peer runtime
//! (`tchain-net`): causal cross-peer tracing, per-peer metric
//! histograms and Prometheus exposition. `--quick` / `--paper` flags or
//! `TCHAIN_SCALE=quick|paper`; `--seed N` reruns at a different master
//! seed (the CI acceptance job uses two).
//!
//! - `net_telemetry` — run the acceptance; exits nonzero if any
//!   invariant fails (safety, disabled-run bit-identity, fingerprint
//!   preservation under telemetry, causal consistency of the merge).
//! - `net_telemetry check <merged.jsonl> <exposition.prom>` — validate
//!   previously written artifacts: the merged trace against the JSONL
//!   schema (strict per-origin Lamport monotonicity included) and the
//!   exposition for the headline series; exits nonzero on failure.
fn main() {
    let args = tchain_experiments::parse_net_args("net_telemetry", 0x7E1E);
    if args.rest.first().map(String::as_str) == Some("check") {
        check(args.rest.get(1), args.rest.get(2));
        return;
    }
    let (scale, seed) = (args.scale, args.seed);
    println!("[net_telemetry | scale: {} | seed: {seed:#x}]", scale.name());
    let doc = tchain_experiments::figures::net_telemetry::run_with_seed(scale, seed);
    if !doc.safe {
        eprintln!("net_telemetry: ACCEPTANCE FAILURE — see output above");
        std::process::exit(1);
    }
}

fn check(merged: Option<&String>, prom: Option<&String>) {
    let (Some(merged), Some(prom)) = (merged, prom) else {
        eprintln!("usage: net_telemetry check <merged.jsonl> <exposition.prom>");
        std::process::exit(2);
    };
    let jsonl = read_or_die(merged);
    match tchain_obs::validate_jsonl(&jsonl) {
        Ok(n) => println!("{merged}: {n} records OK"),
        Err(e) => {
            eprintln!("{merged}: {e}");
            std::process::exit(1);
        }
    }
    let exposition = read_or_die(prom);
    for needle in [
        "# TYPE tchain_fairness_index gauge",
        "tchain_fairness_index ",
        "# TYPE tchain_chain_length histogram",
        "tchain_chain_length_bucket",
        "tchain_peer_uploads",
        "tchain_peer_goodwill",
    ] {
        if !exposition.contains(needle) {
            eprintln!("{prom}: missing expected series {needle:?}");
            std::process::exit(1);
        }
    }
    println!("{prom}: exposition OK ({} bytes)", exposition.len());
}

fn read_or_die(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("net_telemetry check: cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}
