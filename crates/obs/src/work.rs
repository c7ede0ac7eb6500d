//! Work counters: what tests count instead of timing.
//!
//! A time moves with the host; a count of the kernel operations a path
//! performs repeats exactly, seed for seed. Each counting site is one
//! [`add`] of a closed [`Unit`]: one thread-local `Cell` add, with no
//! atomic and no [`enabled`](crate::enabled) check. The counters exist in
//! every build profile, and neither the `disabled` feature nor
//! [`set_enabled`](crate::set_enabled) turns them off, so the counted
//! program is the shipped one.
//!
//! Counts are per thread: [`measure`] sees the work its closure does on
//! the calling thread, and nothing another thread does meanwhile.
//!
//! ```
//! use prever_obs::work::{self, Unit};
//! prever_obs::set_enabled(false); // metrics off; work is still counted
//! let ((), counts) = work::measure(|| work::add(Unit::MontMul, 3));
//! assert_eq!(counts[Unit::MontMul], 3);
//! ```

use std::cell::Cell;
use std::ops::{AddAssign, Index};

/// A kind of counted work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// One SHA-256 compression: a 64-byte block.
    Sha256Compress,
    /// One Montgomery multiplication (squarings included).
    MontMul,
    /// One descent of a table's primary-key map by key.
    KeyLookup,
    /// One constraint expression resolved against a layout.
    PlanBuilt,
}

/// How many units there are: `PlanBuilt` is the last variant.
const UNITS: usize = Unit::PlanBuilt as usize + 1;

impl Unit {
    /// Every unit, in [`Counts`] order.
    pub const ALL: [Unit; UNITS] =
        [Unit::Sha256Compress, Unit::MontMul, Unit::KeyLookup, Unit::PlanBuilt];

    /// The unit's `layer.operation` name.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Sha256Compress => "crypto.sha256_compress",
            Unit::MontMul => "crypto.mont_mul",
            Unit::KeyLookup => "storage.key_lookup",
            Unit::PlanBuilt => "constraints.plan_built",
        }
    }
}

thread_local! {
    static COUNTS: [Cell<u64>; UNITS] = const { [const { Cell::new(0) }; UNITS] };
}

/// Counts `n` units of work on this thread.
#[inline]
pub fn add(unit: Unit, n: u64) {
    COUNTS.with(|c| c[unit as usize].set(c[unit as usize].get() + n));
}

/// Work done on one thread, indexed by [`Unit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts([u64; UNITS]);

impl AddAssign for Counts {
    fn add_assign(&mut self, other: Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

impl Index<Unit> for Counts {
    type Output = u64;

    fn index(&self, unit: Unit) -> &u64 {
        &self.0[unit as usize]
    }
}

/// Runs `f` and returns its result with the work it did on this thread.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let now = || COUNTS.with(|c| c.each_ref().map(Cell::get));
    let before = now();
    let out = f();
    let after = now();
    (out, Counts(std::array::from_fn(|i| after[i] - before[i])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counts_only_the_calling_thread() {
        let ((), counts) = measure(|| {
            add(Unit::KeyLookup, 2);
            std::thread::spawn(|| add(Unit::KeyLookup, 5)).join().unwrap();
        });
        assert_eq!(counts[Unit::KeyLookup], 2);
        assert_eq!(counts[Unit::MontMul], 0);
    }

    #[test]
    fn nested_measures_each_see_the_inner_work() {
        let (((), inner), outer) = measure(|| {
            add(Unit::Sha256Compress, 1);
            measure(|| add(Unit::Sha256Compress, 4))
        });
        assert_eq!(inner[Unit::Sha256Compress], 4);
        assert_eq!(outer[Unit::Sha256Compress], 5);
    }

    #[test]
    fn unit_names_are_unique() {
        let names: HashSet<_> = Unit::ALL.map(Unit::name).into();
        assert_eq!(names.len(), UNITS);
        assert!(Unit::ALL.iter().enumerate().all(|(i, &u)| u as usize == i));
    }
}
