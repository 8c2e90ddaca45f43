// fails: clippy::disallowed_methods clippy::disallowed_types
// Native threads: a spawn, a builder and the current thread's identity.

pub fn fan_out() {
    let h = std::thread::spawn(|| 1 + 1);
    let _ = h.join();
    let _ = std::thread::Builder::new().name("worker".into());
    let _ = std::thread::current().id();
}
