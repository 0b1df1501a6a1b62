//! The scalar element types a [`crate::Tensor`] can store.
//!
//! Element types are deliberately closed over a small set: `f32`, which
//! every kernel and every model in the workspace computes in, and the
//! integer pair `i8` / `i32`, which the removed i8 device path was built
//! around and nothing uses today.

use std::fmt;

/// A scalar element a [`crate::Tensor`] can store.
///
/// Sealed in spirit: new impls should be added deliberately, together
/// with kernel support.
pub trait Element:
    Copy + Clone + fmt::Debug + Default + PartialEq + PartialOrd + Send + Sync + 'static
{
    /// The additive identity for this element type.
    const ZERO: Self;
    /// The multiplicative identity for this element type.
    const ONE: Self;
    /// Short dtype name (diagnostics; mirrors NumPy naming).
    const DTYPE: &'static str;
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const DTYPE: &'static str = "f32";
}

impl Element for i8 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const DTYPE: &'static str = "i8";
}

impl Element for i32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const DTYPE: &'static str = "i32";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_constants_cover_the_quant_set() {
        assert_eq!(f32::ZERO, 0.0);
        assert_eq!(i8::ONE, 1);
        assert_eq!(i32::DTYPE, "i32");
    }
}
