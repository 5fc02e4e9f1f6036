//! No-op derive macros backing the offline `serde` shim.
//!
//! The shim's `Serialize`/`Deserialize` traits carry blanket
//! implementations, so the derives only need to exist (and swallow
//! `#[serde(...)]` helper attributes) for `#[derive(serde::Serialize)]`
//! sites to compile. They emit nothing.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// Accepts and discards a `Serialize` derive.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts and discards a `Deserialize` derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
