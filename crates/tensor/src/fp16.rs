//! Software emulation of IEEE-754 binary16 ("half", FP16).
//!
//! VEDA's datapath is FP16 (Table I); the KV cache, votes and activations are
//! stored as 16-bit words off-chip. This module provides a bit-exact
//! `f32 ↔ f16` conversion (round-to-nearest-even) so the simulator can model
//! quantization effects and byte-accurate memory traffic without external
//! crates.

/// An IEEE-754 binary16 value stored as its raw bit pattern.
///
/// ```
/// use veda_tensor::F16;
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// assert_eq!(F16::from_f32(65536.0), F16::INFINITY); // overflow
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);

    /// Raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, the IEEE default mode
    /// and what FP16 MAC hardware implements.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            let payload = if mant != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }

        // Unbiased exponent for f32 is exp - 127; f16 bias is 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Keep 10 mantissa bits, round to nearest even.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let mant10 = (mant >> 13) as u16;
            let round_bits = mant & 0x1FFF;
            let mut out = sign | half_exp | mant10;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (mant10 & 1) == 1) {
                out = out.wrapping_add(1); // may carry into exponent: correct by construction
            }
            return F16(out);
        }
        if unbiased >= -24 {
            // Subnormal range.
            // f16 subnormal significand = full_mantissa × 2^(unbiased + 1),
            // i.e. a right shift by (−unbiased − 1) ∈ [14, 23].
            let shift = (-unbiased - 1) as u32;
            let full = mant | 0x80_0000;
            let mant_sub = (full >> shift) as u16;
            let round_mask = (1u32 << shift) - 1;
            let round_bits = full & round_mask;
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | mant_sub;
            if round_bits > halfway || (round_bits == halfway && (mant_sub & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return F16(out);
        }
        // Underflow to zero.
        F16(sign)
    }

    /// Converts to `f32` exactly (every f16 is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & 0x8000) << 16;
        let exp = (self.0 >> 10) & 0x1F;
        let mant = u32::from(self.0 & 0x3FF);

        let bits = if exp == 0x1F {
            // Inf/NaN.
            sign | 0x7F80_0000 | (mant << 13)
        } else if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize.
                let mut e = -14i32;
                let mut m = mant;
                while m & 0x400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x3FF;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
        } else {
            sign | ((u32::from(exp) + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Rounds an `f32` through the FP16 grid (quantize + dequantize), modelling
/// one trip through the accelerator datapath.
pub fn quantize_f32(x: f32) -> f32 {
    F16::from_f32(x).to_f32()
}

/// Number of bytes a slice occupies when stored as FP16 (KV-cache traffic
/// accounting).
pub fn fp16_bytes(elements: usize) -> usize {
    elements * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "failed at {i}");
        }
    }

    #[test]
    fn powers_of_two_round_trip() {
        for e in -14..=15 {
            let f = (2.0_f32).powi(e);
            assert_eq!(F16::from_f32(f).to_f32(), f, "failed at 2^{e}");
        }
    }

    #[test]
    fn constants_have_expected_values() {
        // Zero, one, the largest finite value and the smallest normal.
        for (bits, value) in [(0x0000, 0.0), (0x3C00, 1.0), (0x7BFF, 65504.0), (0x0400, (2.0_f32).powi(-14))]
        {
            assert_eq!(F16(bits).to_f32(), value);
            assert_eq!(F16::from_f32(value).to_bits(), bits);
        }
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(F16(0xFC00).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert_eq!(F16::from_f32(70000.0), F16::INFINITY);
        assert_eq!(F16::from_f32(-70000.0), F16(0xFC00));
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive f16 subnormal is 2^-24.
        let tiny = (2.0_f32).powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        let sub = 3.0 * (2.0_f32).powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32((2.0_f32).powi(-30)).to_f32(), 0.0);
        // Sign of zero is preserved.
        assert_eq!(F16::from_f32(-(2.0_f32).powi(-30)).to_bits(), 0x8000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 (1+2^-10):
        // ties to even => 1.0 (mantissa 0 is even).
        let halfway = 1.0 + (2.0_f32).powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + (2.0_f32).powi(-11) + (2.0_f32).powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + (2.0_f32).powi(-10));
    }

    #[test]
    fn quantize_error_is_bounded_for_unit_range() {
        // Relative error of FP16 in the normal range is <= 2^-11.
        for i in 1..1000 {
            let x = i as f32 * 1e-3;
            let q = quantize_f32(x);
            assert!(((q - x) / x).abs() <= (2.0_f32).powi(-11) + 1e-9, "x={x} q={q}");
        }
    }

    #[test]
    fn bytes_accounting() {
        assert_eq!(fp16_bytes(4096), 8192);
    }
}
