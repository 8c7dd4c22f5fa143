//! Data dependencies `D_{k,l}` between tasks.

use crate::task::TaskId;
use std::fmt;

/// Identifier of an edge inside one [`StreamGraph`](crate::StreamGraph):
/// a dense index `0..|E|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EdgeId(pub usize);

serde::impl_json_newtype!(EdgeId);

impl EdgeId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// One data dependency `D_{k,l}`: instance `i` of `dst` consumes instance
/// `i` (plus the peek window of `dst`) of the datum produced by `src`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Producer task `T_k`.
    pub src: TaskId,
    /// Consumer task `T_l`.
    pub dst: TaskId,
    /// `data_{k,l}`: bytes exchanged per instance.
    pub data_bytes: f64,
}

serde::impl_json_struct!(Edge { src, dst, data_bytes });

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D({},{}) [{} B]", self.src.0, self.dst.0, self.data_bytes)
    }
}
