//! One failing snippet per lint level this crate sets in its `[lints]`
//! table, compiled only under clippy (`cfg(clippy)`). `metis-core`'s
//! table is the superset of every crate's, so the fixtures live here.
//!
//! Each snippet sits under `#[expect(<lint>, reason = "<RULE> fixture")]`,
//! so `cargo clippy --workspace --all-targets -- -D warnings` proves the
//! lint still fires on the rule's failing snippet. Dropping an entry of
//! the root `clippy.toml` lists leaves its expectation unfulfilled, and
//! deleting an `expect` while the crate's level stands reports the
//! snippet; either fails the command. An `expect` turns its lint on by
//! itself, so a dropped *level* goes unseen here: the `metis-lint` test
//! `lint_levels.rs` checks every crate's levels instead. `LINT-01`
//! (`unfulfilled_lint_expectations`) has no snippet: rustc refuses to
//! expect it, and every other snippet here relies on it. DESIGN.md §8.1
//! maps each rule to its lint.

/// `DET-01`: an unordered map.
#[expect(clippy::disallowed_types, reason = "DET-01 fixture")]
pub fn det01_hash_map() -> usize {
    std::collections::HashMap::<u32, f64>::new().len()
}

/// `DET-01`: an unordered set.
#[expect(clippy::disallowed_types, reason = "DET-01 fixture")]
pub fn det01_hash_set() -> usize {
    std::collections::HashSet::<u32>::new().len()
}

/// `DET-02`: a monotonic clock read outside telemetry.
#[expect(clippy::disallowed_methods, reason = "DET-02 fixture")]
pub fn det02_instant() -> std::time::Instant {
    std::time::Instant::now()
}

/// `DET-02`: a wall-clock read.
#[expect(clippy::disallowed_methods, reason = "DET-02 fixture")]
pub fn det02_system_time() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// `DET-03`: float accumulation in iteration order of a hash map.
#[expect(clippy::disallowed_types, reason = "DET-03 fixture needs a hash map")]
#[expect(clippy::iter_over_hash_type, reason = "DET-03 fixture")]
pub fn det03_hash_iteration(loads: &std::collections::HashMap<u32, f64>) -> f64 {
    let mut total = 0.0;
    for v in loads.values() {
        total += v;
    }
    total
}

/// `CONC-01`: a detached thread.
#[expect(clippy::disallowed_methods, reason = "CONC-01 fixture")]
pub fn conc01_spawn() -> bool {
    std::thread::spawn(|| ()).join().is_ok()
}

/// `CONC-01`: a scoped thread.
#[expect(clippy::disallowed_methods, reason = "CONC-01 fixture")]
pub fn conc01_scope_spawn() {
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
}

/// `CONC-01`: a named thread.
#[expect(clippy::disallowed_methods, reason = "CONC-01 fixture")]
pub fn conc01_builder_spawn() -> bool {
    std::thread::Builder::new().spawn(|| ()).is_ok()
}

/// `FP-01`: exact float equality (clippy exempts exact-zero compares).
#[expect(clippy::float_cmp, reason = "FP-01 fixture")]
pub fn fp01_exact_compare(x: f64) -> bool {
    x == 0.5
}

/// `PANIC-01`: `unwrap`.
#[expect(clippy::unwrap_used, reason = "PANIC-01 fixture")]
pub fn panic01_unwrap(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

/// `PANIC-01`: `expect`.
#[expect(clippy::expect_used, reason = "PANIC-01 fixture")]
pub fn panic01_expect(v: &[u32]) -> u32 {
    *v.first().expect("non-empty")
}

/// `PANIC-01`: `panic!`.
#[expect(clippy::panic, reason = "PANIC-01 fixture")]
pub fn panic01_panic(ok: bool) {
    if !ok {
        panic!("not ok");
    }
}

/// `PANIC-01`: `unreachable!`.
#[expect(clippy::unreachable, reason = "PANIC-01 fixture")]
pub fn panic01_unreachable(ok: bool) {
    if !ok {
        unreachable!();
    }
}

/// `PANIC-01`: `todo!`.
#[expect(clippy::todo, reason = "PANIC-01 fixture")]
pub fn panic01_todo(ok: bool) {
    if !ok {
        todo!();
    }
}

/// `PANIC-01`: `unimplemented!`.
#[expect(clippy::unimplemented, reason = "PANIC-01 fixture")]
pub fn panic01_unimplemented(ok: bool) {
    if !ok {
        unimplemented!();
    }
}

/// `API-01`: a public `Result` with no `# Errors` section.
#[expect(clippy::missing_errors_doc, reason = "API-01 fixture")]
pub fn api01_undocumented_errors(ok: bool) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err("not ok".to_string())
    }
}

/// `SAFE-01`: an `unsafe` block with no `SAFETY:` comment.
#[expect(unsafe_code, reason = "SAFE-01 fixture needs an unsafe block")]
#[expect(clippy::undocumented_unsafe_blocks, reason = "SAFE-01 fixture")]
pub fn safe01_undocumented_unsafe(v: &[u32]) -> u32 {
    unsafe { *v.as_ptr() }
}

#[expect(missing_docs, reason = "DOC-01 fixture")]
pub fn doc01_undocumented() {}

/// `LINT-00`: an `allow` with no reason.
#[expect(clippy::allow_attributes_without_reason, reason = "LINT-00 fixture")]
#[allow(unused_variables)]
pub fn lint00_reasonless_allow(unused: u32) {}
