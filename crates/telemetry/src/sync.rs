//! Sync-primitive indirection: std atomics by default, dlsm-check's
//! instrumented shim under the `shim` feature, so the model tests in
//! crates/check can explore interleavings of the real histogram code.
//! The shim passes through to std outside a model execution.

#[cfg(feature = "shim")]
pub(crate) use dlsm_check::shim::{AtomicU64, Ordering};

#[cfg(not(feature = "shim"))]
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};
