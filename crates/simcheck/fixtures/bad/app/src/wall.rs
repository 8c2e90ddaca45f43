// Fixture: wall-clock reads. Expected findings: wall-clock at the two
// `now()` call lines; the string and comment mentions are clean.

fn host_elapsed() -> std::time::Duration {
    let t0 = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _label = "Instant::now"; // Instant::now in a comment
    t0.elapsed()
}
