//! Process CPU time and peak resident set, read from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields (Linux
/// `USER_HZ`, fixed at 100 on every architecture it supports).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of the whole process (all threads,
/// including ended ones), at a 10 ms resolution.
pub fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name may contain spaces; the fields after it do not.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state(0) ppid(1) … utime(11) stime(12).
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("no field {i} in /proc/self/stat"))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// Returns the allocator's free memory to the system, so a verdict
/// starts from the heap a fresh process would have: it faults in its
/// own pages, and its peak resident set does not carry what earlier
/// verdicts freed but the allocator kept (glibc keeps it in per-thread
/// arenas, which makes a parallel verdict's peak grow from one verdict
/// to the next).
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only hands free pages back to the system;
        // it takes no pointers and leaves live allocations alone.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so the next [`peak_rss_mib`] covers only what ran
/// since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set of the process since it started or since the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_monotone() {
        let c0 = cpu_s().unwrap();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s().unwrap() >= c0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let high = peak_rss_mib().unwrap();
        drop(big);
        release_free_memory();
        reset_peak_rss().unwrap();
        assert!(peak_rss_mib().unwrap() < high - 32.0);
    }
}
