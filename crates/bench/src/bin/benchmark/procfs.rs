//! Host-side process facts: CPU pinning and the `/proc` counters the
//! per-layer host metrics are built from.

use std::fs;

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok((0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Pins the calling thread — and every thread it spawns afterwards, which
/// is every simulated process — to the highest-numbered CPU this process
/// may use (run under `taskset` to choose another). Returns the CPU, or why
/// pinning failed.
///
/// The kernel runs one simulated process at a time and hands a run token
/// between OS threads; unpinned, every handoff is a cross-core wake at the
/// mercy of the host scheduler, and host timings spread 17x.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()?.last().ok_or("empty affinity mask")?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity({cpu}): {}", std::io::Error::last_os_error()));
    }
    match allowed_cpus()?.as_slice() {
        [only] if *only == cpu => Ok(cpu),
        other => Err(format!("affinity after pinning to {cpu} reads {other:?}")),
    }
}

/// The integer after `field:` in `/proc/<pid>/status`-style text (`VmHWM`
/// in kB, `voluntary_ctxt_switches` as a count).
pub fn status_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// `(utime, stime)` in clock ticks from `/proc/<pid>/stat` text. The
/// command name is parenthesised and may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn stat_cpu_ticks(text: &str) -> Option<(u64, u64)> {
    let after = &text[text.rfind(')')? + 1..];
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    Some(status_field(&text, "VmHWM")? as f64 / 1024.0)
}

/// Counters sampled around a timed region.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounters {
    /// Voluntary context switches of the calling thread: the kernel thread
    /// blocks once per handoff to a simulated process.
    pub voluntary_switches: u64,
    /// Process user and system CPU time, clock ticks.
    pub utime: u64,
    pub stime: u64,
}

impl HostCounters {
    /// Samples the calling thread and process; zeros where `/proc` is not
    /// readable.
    pub fn sample() -> HostCounters {
        let status = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let (utime, stime) = stat_cpu_ticks(&stat).unwrap_or((0, 0));
        HostCounters {
            voluntary_switches: status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
            utime,
            stime,
        }
    }

    pub fn since(&self, earlier: &HostCounters) -> HostCounters {
        HostCounters {
            voluntary_switches: self.voluntary_switches - earlier.voluntary_switches,
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n\
        Threads:\t25\nvoluntary_ctxt_switches:\t123456\nnonvoluntary_ctxt_switches:\t78\n";

    #[test]
    fn status_fields_parse_and_do_not_match_prefixes() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(51234));
        assert_eq!(status_field(STATUS, "voluntary_ctxt_switches"), Some(123456));
        assert_eq!(status_field(STATUS, "Vm"), None);
        assert_eq!(status_field(STATUS, "VmSwap"), None);
        assert_eq!(status_field("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    731 269 0 0 20 0 25 0 1234567 209715200 12808 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some((731, 269)));
        assert_eq!(stat_cpu_ticks("4242 (x) S 1 2"), None);
        assert_eq!(stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn live_proc_is_readable_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let a = HostCounters::sample();
        let d = HostCounters::sample().since(&a);
        assert!(d.utime + d.stime < 100);
    }
}
