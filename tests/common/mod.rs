//! Environment switches shared by the integration suites. CI legs set
//! them to pin one configuration per leg; each accepts only its
//! documented values and panics on anything else, so a mistyped matrix
//! value fails the leg instead of quietly testing another configuration.

#![allow(
    dead_code,
    reason = "each suite compiles this module on its own and uses only some of it"
)]

use metis_suite::lp::BasisBackend;

/// Reads `var`: `None` when unset, otherwise the value paired with its
/// setting in `allowed`.
///
/// # Panics
///
/// Panics, naming `var` and the allowed settings, when `var` is set to
/// anything not in `allowed` (including non-UTF-8).
fn switch<T: Copy>(var: &str, allowed: &[(&str, T)]) -> Option<T> {
    let value = std::env::var_os(var)?;
    let found = value
        .to_str()
        .and_then(|v| allowed.iter().find(|(name, _)| *name == v));
    match found {
        Some(&(_, choice)) => Some(choice),
        None => {
            let names: Vec<&str> = allowed.iter().map(|(name, _)| *name).collect();
            panic!("{var}={value:?} is not one of {}", names.join(", "))
        }
    }
}

/// `METIS_LP_BASIS=dense|sparse-lu` pins the LP basis backend; unset, the
/// solver default applies.
pub fn lp_basis() -> Option<BasisBackend> {
    switch(
        "METIS_LP_BASIS",
        &[
            ("dense", BasisBackend::Dense),
            ("sparse-lu", BasisBackend::SparseLu),
        ],
    )
}

/// `METIS_FAULTS_WARM_START=0|1` restricts the warm-start modes to
/// exercise; unset, both run.
pub fn warm_modes() -> Vec<bool> {
    match switch("METIS_FAULTS_WARM_START", &[("0", false), ("1", true)]) {
        Some(warm) => vec![warm],
        None => vec![false, true],
    }
}

/// `METIS_AUDIT=0|1` forces the solution audits off or on; unset, off
/// (debug builds audit regardless).
pub fn audit() -> bool {
    switch("METIS_AUDIT", &[("0", false), ("1", true)]).unwrap_or(false)
}
