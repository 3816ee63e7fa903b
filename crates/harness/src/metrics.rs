//! Measurement helpers: the workspace's one [`percentile`], and for the
//! scaling experiments peak resident set size and core count, reported
//! alongside throughput so benchmark rows are interpretable on any
//! machine.

pub use hyperring_sim::stats::percentile;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux. The high-water mark is
/// monotone over the process lifetime, so measure a fresh process (or
/// accept an upper bound) when comparing configurations.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm(&status)
}

/// Extracts `VmHWM` (kB) from a `/proc/<pid>/status` rendering, in bytes.
fn parse_vmhwm(status: &str) -> Option<u64> {
    parse_kb_line(status, "VmHWM:")
}

/// Current resident set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`), or `None` off Linux. Unlike
/// [`peak_rss_bytes`] this is an instantaneous reading — subtract it from
/// a later high-water mark to attribute peak memory to one phase.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_kb_line(&status, "VmRSS:")
}

fn parse_kb_line(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the peak-RSS high-water mark to the current RSS by writing `5`
/// to `/proc/self/clear_refs` (Linux ≥ 4.0). Returns whether the reset
/// took effect; callers fall back to whole-process peaks when it did not
/// (non-Linux, or a locked-down `/proc`). Phase-scoped measurement:
/// `reset_peak_rss(); …phase…; peak_rss_bytes()` bounds the phase's peak
/// instead of the process lifetime's.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Number of cores available to this process — recorded next to every
/// timing as part of the host stamp.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parses_proc_format() {
        let status = "Name:\tx\nVmPeak:\t  10 kB\nVmHWM:\t  2048 kB\nThreads:\t1\n";
        assert_eq!(parse_vmhwm(status), Some(2 * 1024 * 1024));
        assert_eq!(parse_vmhwm("Name:\tx\n"), None);
    }

    #[test]
    fn cores_is_positive() {
        assert!(cores() >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reads_this_process() {
        let rss = peak_rss_bytes().expect("linux exposes VmHWM");
        assert!(rss > 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn current_rss_is_at_most_peak() {
        let cur = current_rss_bytes().expect("linux exposes VmRSS");
        let peak = peak_rss_bytes().expect("linux exposes VmHWM");
        assert!(cur > 0);
        assert!(cur <= peak, "VmRSS {cur} above VmHWM {peak}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reset_peak_rss_lowers_the_watermark() {
        // Allocate-and-drop to push the high-water mark above current RSS,
        // then reset and confirm the mark came back down near current.
        let ballast = vec![1u8; 64 * 1024 * 1024];
        std::hint::black_box(&ballast);
        drop(ballast);
        if !reset_peak_rss() {
            return; // /proc/self/clear_refs unavailable; nothing to check
        }
        let cur = current_rss_bytes().unwrap();
        let peak = peak_rss_bytes().unwrap();
        assert!(
            peak < cur + 32 * 1024 * 1024,
            "watermark {peak} not reset near current {cur}"
        );
    }
}
