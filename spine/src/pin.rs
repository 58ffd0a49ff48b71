//! Thread placement. Each connection's client thread and the server
//! thread that serves it are pinned to one core of their own. Left to
//! the scheduler, the four threads of two closed-loop connections
//! settle into a different arrangement on two cores from run to run
//! (a pair sharing a core hands over by a context switch, a pair split
//! over two cores by an inter-processor wake-up), and that arrangement,
//! not the code, then decides the statement latency: unpinned, repeated
//! runs of one seed spread 19 % in throughput here; pinned, 8 %.

/// The cores this process may run on, in order.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Confines thread `tid` (0: the calling thread) to `cpus`. Returns
/// false where that is not supported or not permitted; the run then
/// goes on unpinned.
pub fn pin(tid: u32, cpus: &[usize]) -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_SCHED_SETAFFINITY: isize = 203;
        let mut mask = [0u64; 16];
        for &cpu in cpus {
            let Some(word) = mask.get_mut(cpu / 64) else {
                return false;
            };
            *word |= 1 << (cpu % 64);
        }
        let ret: isize;
        // SAFETY: sched_setaffinity(tid, len, mask) only reads `len`
        // bytes at `mask`, a live local array of exactly that size, and
        // writes no memory; `syscall` clobbers rcx and r11, declared so.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
                in("rdi") tid as usize,
                in("rsi") std::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret == 0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (tid, cpus);
        false
    }
}

/// Ids of this process's threads called `name`, ascending.
pub fn threads_named(name: &str) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut tids: Vec<u32> = tasks
        .flatten()
        .filter(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name))
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
        .collect();
    tids.sort_unstable();
    tids
}
