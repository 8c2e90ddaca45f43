// fails: clippy::allow_attributes_without_reason
// An allow with no reason: allows without rationale rot.

#[allow(dead_code)]
fn unused() -> u32 {
    7
}
