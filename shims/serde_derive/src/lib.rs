//! No-op derive macros backing the offline `serde` shim.
//!
//! Nothing in the workspace derives `Serialize` or `Deserialize` any
//! more (all persistence is hand-rolled text/CSV/JSON lines); the macros
//! expand to nothing and the shim traits carry blanket impls.

use proc_macro::TokenStream;

/// Expands to nothing; `serde::Serialize` has a blanket impl. Registers
/// the `#[serde(...)]` helper attribute like the real derive so field
/// annotations (e.g. `#[serde(default)]`) parse.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing; `serde::Deserialize` has a blanket impl. Registers
/// the `#[serde(...)]` helper attribute like the real derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
