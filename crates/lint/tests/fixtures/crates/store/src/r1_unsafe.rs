//! Known-bad fixture for R1: an `unsafe` block in a workspace with none.
//! The path mirrors a real store-crate module so the rule is exercised
//! exactly as it would be on the live tree. Everything else in
//! this file is deliberately clean — no panics, no wire constants.

pub fn first_byte(v: &[u8]) -> Option<u8> {
    if v.is_empty() {
        return None;
    }
    Some(unsafe { *v.get_unchecked(0) })
}
