//! Byzantine chaos sweep over the executable peer runtime
//! (`tchain-net`): frame corruption, duplication, reordering, resets,
//! and crash-restart rejoin from checkpoints. `--quick` / `--paper`
//! flags or `TCHAIN_SCALE=quick|paper`; `--seed N` reruns the sweep at
//! a different master seed (the CI acceptance job uses two).
//!
//! Exits nonzero if any scenario violates a safety property, so CI can
//! gate on it directly.
fn main() {
    let args = tchain_experiments::parse_net_args("net_chaos", 0xC405);
    println!("[net_chaos | scale: {} | seed: {:#x}]", args.scale.name(), args.seed);
    let doc = tchain_experiments::figures::net_chaos::run_with_seed(args.scale, args.seed);
    if !doc.all_safe {
        eprintln!("net_chaos: SAFETY VIOLATION — see table above");
        std::process::exit(1);
    }
}
