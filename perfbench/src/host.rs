//! Facts about the host a result was measured on, and the process's peak
//! resident set size.

use std::path::Path;

/// Logical cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The Cargo profile this binary was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_char;

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` is the first.
    #[repr(C)]
    pub struct RUsage {
        pub times: [i64; 4],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        /// `buf` stands in for `struct statfs` (120 bytes on 64-bit
        /// Linux, `f_type` first); 128 bytes leaves room to spare.
        pub fn statfs(path: *const c_char, buf: *mut [i64; 16]) -> i32;
        /// `mask` stands in for a 1024-bit `cpu_set_t`.
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut [u64; 16]) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const [u64; 16]) -> i32;
        pub fn mallopt(param: i32, value: i32) -> i32;
    }
}

/// Fixes glibc's mmap and trim thresholds at the values its adaptive rule
/// converges to on 64-bit (32 MiB and 64 MiB). Left adaptive, the first
/// free of a large block raises them, so whether a later large block comes
/// from the heap or from `mmap` depends on which block was freed first;
/// across runs that moved the serve daemon's peak resident set between
/// ~64 and ~87 MB. Fixed, the process starts where a long-running one ends
/// up, and `VmHWM` repeats (86.0–86.4 MB over six seeds).
pub fn settle_malloc_thresholds() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's tunables; it is called before any thread starts.
        unsafe {
            sys::mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && sys::mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Pins the process to the highest-numbered CPU it may run on, so every
/// thread started afterwards shares that CPU. The closed loop has one
/// request in flight at a time, so a second CPU would only add cross-CPU
/// wake-ups and migrations to each round trip. Returns the CPU, or `None`
/// where the platform does not support pinning.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut allowed = [0u64; 16];
        // SAFETY: the mask buffer is exactly the size passed; pid 0 is
        // the calling thread.
        if unsafe { sys::sched_getaffinity(0, 128, &mut allowed) } != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        (unsafe { sys::sched_setaffinity(0, 128, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`, read through
/// `getrusage`), or `None` where the platform does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let mut usage = sys::RUsage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` matches the kernel's struct layout on 64-bit
        // Linux and outlives the call; RUSAGE_SELF is 0.
        let rc = unsafe { sys::getrusage(0, &mut usage) };
        (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The filesystem type holding `path` (`tmpfs`, `ext4`, ...), so a store
/// timing can be read against the medium it ran on.
pub fn fs_type(path: &Path) -> String {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::ffi::OsStrExt;
        let Ok(c_path) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
            return "unknown".to_string();
        };
        let mut buf = [0i64; 16];
        // SAFETY: `c_path` is NUL-terminated and `buf` is larger than
        // `struct statfs`; both outlive the call.
        if unsafe { sys::statfs(c_path.as_ptr(), &mut buf) } != 0 {
            return "unknown".to_string();
        }
        match buf[0] as u64 & 0xffff_ffff {
            0x0102_1994 => "tmpfs".to_string(),
            0xef53 => "ext4".to_string(),
            0x5846_5342 => "xfs".to_string(),
            0x9123_683e => "btrfs".to_string(),
            0x794c_7630 => "overlayfs".to_string(),
            other => format!("0x{other:x}"),
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = path;
        "unknown".to_string()
    }
}
