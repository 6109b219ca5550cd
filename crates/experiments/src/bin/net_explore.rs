//! PCT schedule exploration over the executable peer runtime
//! (`tchain-net`): a budgeted interleaving search across the
//! chaos × churn × attack scenario grid, with delta-debug shrinking of
//! any failing schedule to a replayable witness under `results/`.
//! `--quick` / `--paper` flags or `TCHAIN_SCALE=quick|paper`; `--seed N`
//! reruns at a different master seed (the CI job uses two);
//! `--budget N` overrides the per-scenario PCT run budget.
//!
//! Exits nonzero if any scenario misses this build's expectation:
//! normally that is *zero* oracle violations plus bit-identical
//! schedule replay; under `RUSTFLAGS="--cfg tchain_canary"` (the
//! mutation drill) the crash scenario must instead FIND the seeded
//! restore() ledger bug and shrink its witness to ≤ 50 choices.
fn main() {
    let args = tchain_experiments::parse_net_args("net_explore", 0xE5B0);
    let (scale, seed) = (args.scale, args.seed);
    let budget = args
        .rest
        .iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.rest.get(i + 1))
        .map(|v| tchain_experiments::parse_u64_flag("net_explore", "--budget", v) as u32);
    let canary = tchain_net::canary_armed();
    println!(
        "[net_explore | scale: {} | seed: {seed:#x}{}]",
        scale.name(),
        if canary { " | CANARY DRILL" } else { "" }
    );
    let doc = tchain_experiments::figures::net_explore::run_with_budget(scale, seed, budget);
    if !doc.all_safe {
        if canary {
            eprintln!(
                "net_explore: CANARY DRILL FAILED — the seeded restore() ledger bug was \
                 not found and shrunk within budget"
            );
        } else {
            eprintln!("net_explore: ORACLE VIOLATION — see table above and results/ witnesses");
        }
        std::process::exit(1);
    }
    if canary {
        println!("net_explore: canary drill passed — the seeded bug was found and shrunk");
    }
}
