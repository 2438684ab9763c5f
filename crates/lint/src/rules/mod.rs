//! The three rule families.

pub mod forbid;
pub mod locks;
pub mod unsafe_audit;
