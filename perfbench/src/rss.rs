//! Peak resident memory of one operation, read from `/proc/self`.

/// Restarts the kernel's peak-RSS counter (`VmHWM`) from the current
/// resident set, so the next reading is the peak of what follows.
/// An error means the counter was not reset: later readings are then
/// the process's peak so far, not the peak of one operation.
pub fn reset_peak() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set since the last reset, in MB.
pub fn peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
