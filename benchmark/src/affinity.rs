//! Pinning the process to one core while a measurement runs, through the
//! C library `std` already links (there is no libc binding to depend on
//! and `std` has no affinity call of its own).

/// Words of a CPU mask: 1024 CPUs, the size of glibc's `cpu_set_t`.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's allowed CPUs, or `None` if the kernel refuses.
#[cfg(target_os = "linux")]
fn allowed() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn allow(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed, and the
    // call only reads it; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// The lowest CPU of `mask` alone.
#[cfg(target_os = "linux")]
fn lowest_only(mask: &[u64; MASK_WORDS]) -> Option<[u64; MASK_WORDS]> {
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << mask[word].trailing_zeros();
    Some(one)
}

/// Runs `f` with the calling thread — and every thread it spawns
/// meanwhile, which inherit the mask — confined to the lowest CPU it is
/// allowed on, then restores the mask. Where the mask cannot be read or
/// set (another OS, a sandbox that filters the call) `f` runs unpinned.
#[cfg(target_os = "linux")]
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    let Some(before) = allowed() else {
        return f();
    };
    let pinned = lowest_only(&before).is_some_and(|one| allow(&one));
    let out = f();
    if pinned {
        allow(&before);
    }
    out
}

#[cfg(not(target_os = "linux"))]
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn lowest_cpu_of_a_mask() {
        let mut mask = [0u64; MASK_WORDS];
        assert_eq!(lowest_only(&mask), None);
        mask[1] = 0b1100;
        mask[2] = 1;
        let one = lowest_only(&mask).unwrap();
        assert_eq!(one[1], 0b0100);
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn pins_inside_and_restores_after() {
        let Some(before) = allowed() else {
            return;
        };
        let inside = on_one_cpu(|| {
            // A spawned thread inherits the mask.
            std::thread::scope(|s| s.spawn(allowed).join().unwrap())
        });
        assert_eq!(inside, lowest_only(&before));
        assert_eq!(allowed(), Some(before));
    }
}
