//! Offline stand-in for `serde_json`.
//!
//! Every entry point returns [`Error`]: the repo's own code already
//! probes for this (`tchain_obs` checks `from_str::<u64>("1")`) and the
//! benchmark never serializes through serde.

use std::fmt;

/// The only error the stand-in produces.
#[derive(Debug)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Error {}

/// Mirror of `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails: serialization is unavailable offline.
pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error(
        "serialization is unavailable in the offline serde_json stand-in",
    ))
}

/// Always fails: serialization is unavailable offline.
pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error(
        "serialization is unavailable in the offline serde_json stand-in",
    ))
}

/// Always fails: deserialization is unavailable offline.
pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error(
        "deserialization is unavailable in the offline serde_json stand-in",
    ))
}
