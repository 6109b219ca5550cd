//! Offline stand-in for `serde_derive`.
//!
//! The stand-in `serde` implements its marker traits for every type, so
//! the derives only have to accept the input (and its `#[serde(..)]`
//! helper attributes) and expand to nothing.

use proc_macro::TokenStream;

/// Accepts `#[derive(Serialize)]`; the blanket impl in `serde` covers it.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts `#[derive(Deserialize)]`; the blanket impl in `serde` covers it.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
