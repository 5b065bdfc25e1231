//! The repo's benchmark: seven MPI-level workloads on both wires, four
//! end-to-end metrics, and a per-layer ladder. See `README.md` beside
//! `Cargo.toml` for every name, its definition and the method.

#![warn(missing_docs)]

pub mod aa;
pub mod child;
pub mod driver;
pub mod inputs;
pub mod ladder;
pub mod metrics;
pub mod report;
pub mod rig;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;

/// The command line after the program name (and role, if any): `--flag value`
/// pairs and bare flags.
pub struct Args(pub Vec<String>);

impl Args {
    /// The value after `flag`, or an error naming it.
    pub fn required(&self, flag: &str) -> Result<&str, String> {
        let at = self.0.iter().position(|a| a == flag);
        at.and_then(|at| self.0.get(at + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} is required"))
    }

    /// The value after `flag`, parsed; `None` if the flag is absent.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(at) => self
                .0
                .get(at + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a valid value")),
        }
    }

    /// Whether the bare `flag` is present.
    pub fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}
