//! Offline shim standing in for the real `serde` crate.
//!
//! The build environment has no access to crates.io, and the repository
//! never serialises through serde at runtime — every persisted artefact
//! (calibrated models, CSV sweeps, JSON lines) uses hand-rolled codecs.
//! No source in the workspace derives or names these traits any more;
//! the crate stays only because manifests still list it (perfbench
//! builds `--locked` against its lock file). The traits are empty markers
//! with blanket impls and the derive macros expand to nothing.
//!
//! If real serialisation is ever needed, replace the `serde` entry in the
//! workspace `Cargo.toml` with the crates.io dependency and add the
//! derives where they are wanted.

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; blanket-implemented for all
/// types so `T: Serialize` bounds are always satisfied.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; blanket-implemented for all
/// types so `T: Deserialize<'de>` bounds are always satisfied.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

/// Marker stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned {}
impl<T: ?Sized> DeserializeOwned for T {}

/// Stand-in for `serde::de` paths.
pub mod de {
    pub use crate::{Deserialize, DeserializeOwned};
}

/// Stand-in for `serde::ser` paths.
pub mod ser {
    pub use crate::Serialize;
}
