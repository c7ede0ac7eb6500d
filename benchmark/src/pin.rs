//! Pins the process to one CPU.
//!
//! Every workload has one load-generating thread, but `crypto::merkle`
//! hands half of every root over 4 096 leaves to a helper thread when
//! `available_parallelism()` says there is a second CPU. On this
//! machine the second CPU is the other vCPU of a shared host, placed on
//! a core of its own or on the first one's sibling hyperthread as the
//! host sees fit: unpinned, `audit-read`'s two-second rounds read from
//! 173 to 232 ops/s within one run in one half hour and a flat 201 to
//! 208 in the next. Pinned to one CPU the process reports a
//! parallelism of 1, the crate takes its sequential path, and the
//! benchmark measures the program on one core instead of the host's
//! scheduler. A change that adds threads therefore shows no gain here;
//! that is the price.

/// Restricts the process to the highest-numbered CPU it may run on
/// (interrupts favour CPU 0) and returns that CPU, or `None` where the
/// affinity cannot be read or set; the run goes on unpinned then.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes, which
    // is all the C library's wrapper writes to; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes that the call only
    // reads. It runs before any other thread exists, so the whole
    // process inherits the mask.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Other systems: not pinned.
#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Option<usize> {
    None
}
