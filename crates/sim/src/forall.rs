//! A property-test loop over [`SimRng`]: random cases, a size ramp, and a
//! failure report that names a reproducer.
//!
//! A property is a closure that draws its inputs from the `rng` it is
//! handed, scales its collection lengths by `size` (see [`sized`]) and
//! returns `Err(message)` — usually through [`ensure!`](crate::ensure)
//! or [`ensure_eq!`](crate::ensure_eq) — when the inputs refute it. A
//! panic inside the property counts as a failure too.

use crate::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The `size` at which collection lengths span their whole stated range.
pub const FULL_SIZE: usize = 100;

/// Runs `prop` on `cases` random inputs and panics on the first failure.
///
/// Case `i` draws from `SimRng::new(seed).fork(i)`, so any single case
/// can be replayed without the ones before it. `size` climbs linearly
/// from 1 to [`FULL_SIZE`] over the first half of the cases and stays
/// there. A failing case is re-run at half its size, repeatedly, while
/// it keeps failing; the panic names the smallest failing
/// `(seed, case, size)` together with the property's message.
pub fn forall(seed: u64, cases: u32, prop: impl Fn(&mut SimRng, usize) -> Result<(), String>) {
    let run = |case: u32, size: usize| {
        let mut rng = SimRng::new(seed).fork(u64::from(case));
        catch_unwind(AssertUnwindSafe(|| prop(&mut rng, size))).unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<String>().map(String::as_str);
            Err(format!("panicked: {}", text.or(panic.downcast_ref::<&str>().copied()).unwrap_or("?")))
        })
    };
    for case in 0..cases {
        let mut size = (2 * FULL_SIZE * (case as usize + 1) / cases as usize).clamp(1, FULL_SIZE);
        let Err(mut message) = run(case, size) else { continue };
        while size > 1 {
            let Err(smaller) = run(case, size / 2) else { break };
            (size, message) = (size / 2, smaller);
        }
        panic!("property failed at (seed {seed:#x}, case {case}, size {size}): {message}");
    }
}

/// A collection length in `lo..hi`, the upper end scaled down by `size`:
/// at [`FULL_SIZE`] the whole range, at size 1 about a hundredth of it.
pub fn sized(rng: &mut SimRng, size: usize, lo: usize, hi: usize) -> usize {
    lo + rng.below(((hi - lo) * size).div_ceil(FULL_SIZE))
}

/// Returns `Err` with the formatted message from the enclosing property
/// unless the condition holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => { $crate::ensure!($cond, "`{}` is false", stringify!($cond)) };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Returns `Err` from the enclosing property unless both sides are
/// equal; the message shows both, after any formatted context.
#[macro_export]
macro_rules! ensure_eq {
    ($left:expr, $right:expr) => { $crate::ensure_eq!($left, $right, "not equal") };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) if *l == *r => {}
            (l, r) => return Err(format!("{}: {l:?} != {r:?}", format_args!($($fmt)+))),
        }
    };
}
