//! SPE local-store accounting.
//!
//! The real framework statically allocates every stream buffer in the
//! 256 kB local store at initialisation. The emulator reproduces that
//! pass: a [`LocalStore`] is a bump allocator over a fixed budget whose
//! allocations must all succeed before any thread starts. (The bytes
//! themselves live in host memory; the *accounting* is what the paper's
//! constraint (1i) is about.)

use std::fmt;

/// Errors from the local-store allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The requested allocation does not fit in the remaining budget.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        free: u64,
        /// Total budget (`LS − code`).
        budget: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OutOfMemory { requested, free, budget } => write!(
                f,
                "local store exhausted: requested {requested} B, {free} B free of {budget} B"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A bump allocator over one SPE's buffer budget.
#[derive(Debug)]
pub struct LocalStore {
    budget: u64,
    used: u64,
}

impl LocalStore {
    /// A store with `budget` bytes available for buffers (`LS − code`).
    pub fn new(budget: u64) -> Self {
        LocalStore { budget, used: 0 }
    }

    /// Reserve `bytes`. Fails without side effects when the budget would
    /// be exceeded.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), StoreError> {
        let free = self.budget - self.used;
        if bytes > free {
            return Err(StoreError::OutOfMemory { requested: bytes, free, budget: self.budget });
        }
        self.used += bytes;
        Ok(())
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Total budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_account() {
        let mut ls = LocalStore::new(1000);
        ls.reserve(400).unwrap();
        ls.reserve(600).unwrap();
        assert_eq!(ls.used(), 1000);
    }

    #[test]
    fn overflow_rejected_without_side_effects() {
        let mut ls = LocalStore::new(1000);
        ls.reserve(900).unwrap();
        let err = ls.reserve(200).unwrap_err();
        assert_eq!(err, StoreError::OutOfMemory { requested: 200, free: 100, budget: 1000 });
        assert_eq!(ls.used(), 900, "failed reserve must not consume budget");
        ls.reserve(100).unwrap();
    }

    #[test]
    fn zero_sized_reserve_ok() {
        let mut ls = LocalStore::new(10);
        ls.reserve(0).unwrap();
        assert_eq!(ls.used(), 0);
    }
}
