//! Wire decoding errors.
//!
//! [`WireError`] is *defined* in `portals_types::error`, beside every other
//! layer's error enum, and re-exported here from the crate that owns the
//! decode paths producing it.

pub use portals_types::WireError;
