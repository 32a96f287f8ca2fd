//! Host settings that keep one run's measurements comparable to the next:
//! the measuring thread moves from CPU to CPU, and the allocator keeps one
//! arena.
//!
//! On a shared virtual machine one CPU can run at two thirds of the
//! other's speed for tens of seconds at a time, while a tenant on the same
//! physical core is busy. A thread left on one CPU then measures that
//! tenant, and a whole run reads slow. Rotating the thread over every CPU
//! it may use gives each CPU a share of every phase's samples, and the
//! lower quartile the benchmark reports then comes from the faster ones.
//!
//! A campaign runs its cells on a short-lived worker thread, even with one
//! worker. glibc gives such a thread an allocator arena of its own, new or
//! left by an earlier worker, depending on when that worker exited; the
//! process's peak resident memory then varied by 15% from run to run.
//! With one arena it repeats.
//!
//! Elsewhere than on Linux (and, for the arena, glibc) both do nothing.

/// Makes every thread of the process allocate from glibc's main arena.
/// Call it before any thread starts.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// glibc's `M_ARENA_MAX` parameter.
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` takes two integers and touches no memory of ours.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    }
}

/// The CPUs the process may run on, and the next one to move to.
#[derive(Debug)]
pub struct Rotation {
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// A rotation over the CPUs the process may use now.
    pub fn new() -> Rotation {
        Rotation {
            cpus: affinity::allowed(),
            next: 0,
        }
    }

    /// Moves the calling thread to the next CPU of the rotation.
    pub fn advance(&mut self) {
        if self.cpus.len() > 1 {
            affinity::set(&[self.cpus[self.next]]);
            self.next = (self.next + 1) % self.cpus.len();
        }
    }

    /// Lets the calling thread run on every CPU of the rotation again.
    pub fn release(&self) {
        if self.cpus.len() > 1 {
            affinity::set(&self.cpus);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Bytes of glibc's `cpu_set_t`: 1024 CPUs.
    const SET_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    /// The CPUs the calling thread may run on; empty if unknown.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u8; SET_BYTES];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..SET_BYTES * 8)
            .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; a refusal leaves it as it
    /// was.
    pub fn set(cpus: &[usize]) {
        let mut mask = [0u8; SET_BYTES];
        for &cpu in cpus {
            mask[cpu / 8] |= 1 << (cpu % 8);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rotation_visits_every_cpu_and_releases_them() {
        let mut rotation = Rotation::new();
        let cpus = rotation.cpus.clone();
        for _ in 0..cpus.len() {
            rotation.advance();
        }
        assert_eq!(rotation.next, 0);
        rotation.release();
        assert_eq!(affinity::allowed(), cpus);
    }
}
