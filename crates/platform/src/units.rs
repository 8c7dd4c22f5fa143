//! Small unit helpers shared across the workspace.
//!
//! The paper expresses bandwidths in GB/s and memory sizes in kB; all
//! internal arithmetic is done in bytes and seconds (`f64` for rates and
//! durations, `u64` for capacities), so these helpers exist mostly to keep
//! call sites legible and to render human-readable reports.

use std::fmt;

/// One kibibyte (1024 bytes).
const KIBIBYTE: u64 = 1024;
/// One mebibyte (1024^2 bytes).
const MEBIBYTE: u64 = 1024 * 1024;
/// One gibibyte (1024^3 bytes).
const GIBIBYTE: u64 = 1024 * 1024 * 1024;

/// A memory capacity in bytes with human-readable formatting.
///
/// ```
/// use cellstream_platform::ByteSize;
/// assert_eq!(ByteSize::kib(256).bytes(), 262_144);
/// assert_eq!(format!("{}", ByteSize::kib(256)), "256.0 KiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(u64);

serde::impl_json_newtype!(ByteSize);

impl ByteSize {
    /// Construct from raw bytes.
    pub const fn bytes_exact(b: u64) -> Self {
        ByteSize(b)
    }

    /// Construct from kibibytes.
    pub const fn kib(k: u64) -> Self {
        ByteSize(k * KIBIBYTE)
    }

    /// The raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// The byte count as `f64`, for rate arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction, used for `LS - code`.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= GIBIBYTE {
            write!(f, "{:.1} GiB", b / GIBIBYTE as f64)
        } else if self.0 >= MEBIBYTE {
            write!(f, "{:.1} MiB", b / MEBIBYTE as f64)
        } else if self.0 >= KIBIBYTE {
            write!(f, "{:.1} KiB", b / KIBIBYTE as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A link bandwidth in bytes per second.
///
/// The paper uses decimal giga (25 GB/s per interface, 200 GB/s EIB
/// aggregate), so the constructor takes decimal GB/s.
///
/// ```
/// use cellstream_platform::Bandwidth;
/// let bw = Bandwidth::gb_per_s(25.0);
/// // transferring 50 GB through a 25 GB/s interface takes 2 seconds
/// assert!((bw.transfer_time(50e9) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

serde::impl_json_newtype!(Bandwidth);

impl Bandwidth {
    /// Construct from decimal gigabytes per second.
    pub fn gb_per_s(g: f64) -> Self {
        assert!(g.is_finite() && g > 0.0, "bandwidth must be positive");
        Bandwidth(g * 1e9)
    }

    /// Bytes per second.
    pub fn as_bytes_per_s(self) -> f64 {
        self.0
    }

    /// Time in seconds to push `bytes` through this link at full rate.
    pub fn transfer_time(self, bytes: f64) -> f64 {
        bytes / self.0
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.0 / 1e9)
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn byte_size_constructors_agree() {
        assert_eq!(ByteSize::kib(1), ByteSize::bytes_exact(1024));
        assert_eq!(ByteSize::kib(1024).bytes(), MEBIBYTE);
    }

    #[test]
    fn byte_size_display_picks_unit() {
        assert_eq!(format!("{}", ByteSize::bytes_exact(12)), "12 B");
        assert_eq!(format!("{}", ByteSize::kib(256)), "256.0 KiB");
        assert_eq!(format!("{}", ByteSize::kib(3 * 1024)), "3.0 MiB");
        assert_eq!(format!("{}", ByteSize::bytes_exact(GIBIBYTE)), "1.0 GiB");
    }

    #[test]
    fn saturating_sub_never_underflows() {
        let small = ByteSize::kib(1);
        let big = ByteSize::kib(2);
        assert_eq!(small.saturating_sub(big).bytes(), 0);
        assert_eq!(big.saturating_sub(small), ByteSize::kib(1));
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::gb_per_s(25.0);
        assert!((bw.transfer_time(25e9) - 1.0).abs() < 1e-12);
        assert!((bw.transfer_time(0.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::gb_per_s(0.0);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(format!("{}", Bandwidth::gb_per_s(25.0)), "25.0 GB/s");
    }
}
