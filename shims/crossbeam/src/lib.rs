//! Offline stand-in for `crossbeam`, empty: nothing in the workspace imports
//! it. The package and the `crossbeam = { workspace = true }` edges stay
//! because `benchmark/Cargo.lock` records them (ROADMAP item 8 drops both
//! together).
