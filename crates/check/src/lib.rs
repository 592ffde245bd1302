//! `rf-check`: a static dataflow oracle and a dynamic invariant
//! sanitizer for the `rfstudy` register-file simulator.
//!
//! The simulator's headline numbers — live-register distributions,
//! register-scarcity IPC curves — are only as trustworthy as its rename
//! and freeing machinery. This crate checks that machinery two
//! independent ways:
//!
//! * [`oracle`] analyses a committed instruction stream *statically*:
//!   def-use chains, live ranges, a schedule-independent lower bound on
//!   physical-register demand, and an ideal-schedule decomposition into
//!   the paper's liveness categories.
//! * [`Sanitizer`] rides the zero-cost [`Observer`](rf_core::Observer)
//!   hooks *dynamically*, replaying every rename, free, commit and
//!   squash against its own model of the register files and flagging any
//!   divergence (double alloc/free, freelist conservation, rename-map
//!   bijectivity, commit order, squash completeness).
//!
//! [`crosscheck`] ties the two together: one sanitized simulation per
//! configuration, reconciled against the static analysis of the same
//! trace prefix, surfaced as the `rfstudy check` subcommand and as
//! sanitized probe runs in the experiment suite. [`inject`] proves every
//! sanitizer checker can actually fail. [`wstats`] repackages the
//! oracle together with the instruction mix and windowed dataflow
//! limits as the schedule-independent workload summary the `rf-model`
//! analytic estimator consumes.
//!
//! Nothing here perturbs measurement: the sanitizer only runs when
//! explicitly requested ([`sanitize_enabled`]), and an unobserved
//! pipeline compiles the hooks away entirely.

pub mod crosscheck;
pub mod inject;
pub mod oracle;
pub mod sanitizer;
pub mod wstats;

pub use crosscheck::{config_for, cross_validate, cross_validate_cancellable, default_matrix, suite_probe, CheckParams, CheckReport, SuiteSanitizer};
pub use inject::{Fault, FaultInjector};
pub use oracle::{analyze, ClassOracle, TraceOracle};
pub use sanitizer::{Sanitizer, Violation, ViolationKind};
pub use wstats::{workload_stats, WorkloadStats, DATAFLOW_WINDOWS};

/// Reads the `RF_SANITIZE` switch ([`rf_prof::env_switch`]); unset or
/// empty is off.
///
/// # Errors
///
/// Returns a usage message for a malformed value: `RF_SANITIZE=maybe` is
/// an error, not a silent on.
pub fn sanitize_mode() -> Result<bool, String> {
    rf_prof::env_switch("RF_SANITIZE", false)
}

/// Whether sanitized simulation was requested, either at compile time
/// (the `sanitize` cargo feature) or at run time ([`sanitize_mode`]).
/// A malformed `RF_SANITIZE` reads as off here; binaries reject it
/// first with [`sanitize_mode`].
pub fn sanitize_enabled() -> bool {
    cfg!(feature = "sanitize") || sanitize_mode().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    #[test]
    fn sanitize_feature_forces_enabled() {
        // With the feature off, the env var governs; either way the call
        // must not panic.
        let _ = super::sanitize_enabled();
    }
}
