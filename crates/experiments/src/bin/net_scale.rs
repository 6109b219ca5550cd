//! Scale sweep over the executable peer runtime (`tchain-net`):
//! N ∈ {16, 64, 256} with and without a proportional churn schedule.
//! `--quick` / `--paper` flags or `TCHAIN_SCALE=quick|paper`; `--seed N`
//! reruns the sweep at a different master seed (the CI job uses two).
//!
//! Exits nonzero if any cell violates a safety property — completion,
//! byte-exact plaintexts, zero unreciprocated key releases, ledger
//! consistency, same-seed bit-identity — so CI can gate on it directly.
fn main() {
    let args = tchain_experiments::parse_net_args("net_scale", 0x5CA1E);
    println!("[net_scale | scale: {} | seed: {:#x}]", args.scale.name(), args.seed);
    let doc = tchain_experiments::figures::net_scale::run_with_seed(args.scale, args.seed);
    if !doc.all_safe {
        eprintln!("net_scale: SAFETY VIOLATION — see table above");
        std::process::exit(1);
    }
}
