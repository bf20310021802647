//! Umbrella crate for the Graphene suite.

#![forbid(unsafe_code)]

pub use graphene;
