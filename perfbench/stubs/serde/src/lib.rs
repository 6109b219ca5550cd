//! Offline stand-in for `serde`.
//!
//! The container has no registry access, so the benchmark package
//! patches `serde` to this crate. `Serialize` and `Deserialize` are
//! marker traits implemented for every type; nothing the benchmark
//! measures serializes through serde (the bench formats its own JSON).

pub use serde_derive::{Deserialize, Serialize};

/// Marker for types the real serde could serialize.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker for types the real serde could deserialize.
pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

/// Mirror of `serde::de` for `DeserializeOwned` bounds.
pub mod de {
    /// Marker for types deserializable without borrowing.
    pub trait DeserializeOwned {}
    impl<T> DeserializeOwned for T {}
}
