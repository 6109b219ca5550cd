//! Strategic adversaries on the executable peer runtime
//! (`tchain-net`): §IV-C aggressive free-riders (large-view tracker
//! hammering + whitewash identity resets) and §IV-D collusion rings
//! filing false reports, plus the §III-A4 Sybil collision-rate
//! regression. `--quick` / `--paper` flags or
//! `TCHAIN_SCALE=quick|paper`; `--seed N` reruns the suite at a
//! different master seed (the CI acceptance job uses two).
//!
//! Exits nonzero if any scenario violates the compliant-peer incentive
//! guarantee, so CI can gate on it directly.
fn main() {
    let args = tchain_experiments::parse_net_args("net_attacks", 0xA77C);
    println!("[net_attacks | scale: {} | seed: {:#x}]", args.scale.name(), args.seed);
    let doc = tchain_experiments::figures::net_attacks::run_with_seed(args.scale, args.seed);
    if !doc.all_safe {
        eprintln!("net_attacks: INCENTIVE GUARANTEE VIOLATED — see table above");
        std::process::exit(1);
    }
}
