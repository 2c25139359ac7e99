//! Process RSS introspection for memory-boundedness telemetry.
//!
//! Large streaming replays claim bounded memory; `replay.peak_rss_kb`
//! lets benches and CI check the claim from the outside. Linux exposes
//! the high-water mark as `VmHWM` and the instantaneous residency as
//! `VmRSS` in `/proc/self/status` — on other platforms there is no
//! portable std-only equivalent, so both report `None` and the metrics
//! are simply not emitted.

/// The process's peak resident set size in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` where unavailable (non-Linux, or a
/// restricted `/proc`).
///
/// **Monotone over the process lifetime.** `VmHWM` only ever grows, so
/// comparing two phases *within one process* attributes the first
/// phase's peak to every later phase — an in-process eager-vs-stream
/// comparison run eager-first would report the eager peak for both.
/// Either run one phase per process (the `bench replay` protocol) or diff
/// [`current_rss_kb`] around each phase instead.
pub fn peak_rss_kb() -> Option<u64> {
    proc_status_kb("VmHWM:")
}

/// The process's *current* resident set size in kilobytes (`VmRSS` from
/// `/proc/self/status`), or `None` where unavailable. Unlike
/// [`peak_rss_kb`] this goes down when memory is returned, so deltas
/// around a phase are attributable to that phase even late in a
/// process's life.
pub fn current_rss_kb() -> Option<u64> {
    proc_status_kb("VmRSS:")
}

#[cfg_attr(not(target_os = "linux"), allow(unused_variables))]
fn proc_status_kb(field: &str) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_status_kb(&status, field)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extract `<field>   <n> kB` from a `/proc/<pid>/status` body.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_proc_status_body() {
        let body = "Name:\tmemcontend\nVmPeak:\t  123 kB\nVmHWM:\t  4567 kB\nVmRSS:\t  890 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kb(body, "VmHWM:"), Some(4567));
        assert_eq!(parse_status_kb(body, "VmRSS:"), Some(890));
        assert_eq!(parse_status_kb("Name:\tx\n", "VmHWM:"), None);
        assert_eq!(parse_status_kb("VmHWM:\tgarbage\n", "VmHWM:"), None);
        assert_eq!(parse_status_kb("VmRSS:\tgarbage\n", "VmRSS:"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn linux_reports_positive_rss() {
        let peak = peak_rss_kb().expect("/proc/self/status should be readable");
        let current = current_rss_kb().expect("/proc/self/status should be readable");
        // Only positivity is stable: the two values come from separate
        // reads while other test threads allocate, and Linux updates
        // VmHWM lazily, so VmRSS can momentarily read above it.
        assert!(
            peak > 0 && current > 0,
            "VmHWM {peak} kB, VmRSS {current} kB"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn current_rss_tracks_allocation_deltas() {
        // A 64 MB touch must be visible in VmRSS while held. (The
        // monotone peak cannot distinguish "held now" from "held once",
        // which is exactly the bug current_rss_kb exists to fix.)
        let before = current_rss_kb().unwrap();
        let buf = vec![1u8; 64 << 20];
        std::hint::black_box(&buf);
        let during = current_rss_kb().unwrap();
        assert!(
            during >= before + (32 << 10),
            "64 MB allocation invisible: {before} -> {during} kB"
        );
    }
}
