//! CPU affinity of the harness and, by inheritance, of every thread
//! and node process it starts.
//!
//! The whole benchmark runs on one CPU. A closed-loop query is a
//! strictly serial chain of thread hand-offs, so there is no
//! parallelism to lose — but left unpinned on a two-vCPU host the
//! scheduler flips, for seconds at a time, between keeping the chain on
//! one CPU (p50 ≈ 210 µs on `narrow`) and spreading it over both, where
//! every hand-off pays an inter-processor interrupt and an idle exit
//! (p50 ≈ 440 µs). Lap medians then swing by ±20 % on unchanged code.
//! Pinned, they hold within a few percent.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, the kernel's `cpu_set_t`.
pub type CpuSet = [u64; 16];

/// The calling thread's allowed CPUs.
pub fn current() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(set)
}

/// Restrict the calling thread (and everything it later spawns) to
/// `set`.
pub fn set(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Number of CPUs in `set`.
pub fn count(set: &CpuSet) -> u32 {
    set.iter().map(|w| w.count_ones()).sum()
}

/// Pin the calling thread to the highest-numbered CPU it is allowed on
/// (CPU 0 takes most of the host's interrupts). Returns the CPU chosen.
pub fn pin_to_one() -> Result<usize, String> {
    let before = current()?;
    let (word, bits) = before
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    set(&one)?;
    Ok(word * 64 + bit)
}
