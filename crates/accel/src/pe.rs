//! The reconfigurable processing element (Fig. 5 (a)).
//!
//! Each PE holds an input register, a weight register and an accumulation
//! register, a multiplier, and an adder whose operands are selected by a
//! 2-bit mode control:
//!
//! * [`PeMode::AccumulateLocal`] — outer-product mode: the adder sums the
//!   local product into the accumulation register;
//! * [`PeMode::TransmitPartial`] — inner-product mode: the adder combines
//!   products/partial sums for the tree (type-A PEs add their own product
//!   to a transmitted operand; type-B PEs add two transmitted operands);
//! * [`PeMode::Clear`] — zeroes the accumulation register;
//! * [`PeMode::Disable`] — the PE holds state and produces nothing.
//!
//! Arithmetic is FP16-rounded after every multiply and add, matching the
//! hardware datapath.

use veda_tensor::fp16::quantize_f32;

/// The 2-bit PE mode control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PeMode {
    /// Accumulate the local product into the local register (outer product).
    #[default]
    AccumulateLocal,
    /// Produce a partial sum for the adder tree (inner product).
    TransmitPartial,
    /// Clear the accumulation register this cycle.
    Clear,
    /// Hold state; no arithmetic.
    Disable,
}

impl PeMode {
    /// Encodes the mode as the hardware 2-bit control value.
    pub fn encode(self) -> u8 {
        match self {
            PeMode::AccumulateLocal => 0b00,
            PeMode::TransmitPartial => 0b01,
            PeMode::Clear => 0b10,
            PeMode::Disable => 0b11,
        }
    }

    /// Decodes a 2-bit control value.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 0b11`.
    pub fn decode(bits: u8) -> Self {
        match bits {
            0b00 => PeMode::AccumulateLocal,
            0b01 => PeMode::TransmitPartial,
            0b10 => PeMode::Clear,
            0b11 => PeMode::Disable,
            _ => panic!("PE mode is a 2-bit field, got {bits:#b}"),
        }
    }
}

/// Whether the PE's adder can take both operands from other PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PeKind {
    /// One adder input is the local product (odd tree positions 1,3,5,7).
    TypeA,
    /// Both adder inputs come from other PEs (positions 2,4,6,8; the dotted
    /// part of Fig. 5 (a)).
    TypeB,
}

/// One processing element.
#[derive(Debug, Clone)]
pub(crate) struct Pe {
    kind: PeKind,
    mode: PeMode,
    input_reg: f32,
    weight_reg: f32,
    acc_reg: f32,
}

impl Pe {
    /// Creates a PE of the given kind, disabled, with cleared registers.
    pub(crate) fn new(kind: PeKind) -> Self {
        Self { kind, mode: PeMode::Disable, input_reg: 0.0, weight_reg: 0.0, acc_reg: 0.0 }
    }

    /// Sets the 2-bit mode control.
    pub(crate) fn set_mode(&mut self, mode: PeMode) {
        self.mode = mode;
    }

    /// Loads the input and weight registers (FP16-rounded).
    pub(crate) fn load(&mut self, input: f32, weight: f32) {
        self.input_reg = quantize_f32(input);
        self.weight_reg = quantize_f32(weight);
    }

    /// The local product `input × weight`, FP16-rounded.
    pub(crate) fn product(&self) -> f32 {
        quantize_f32(self.input_reg * self.weight_reg)
    }

    /// Executes one cycle in the current mode.
    ///
    /// * `AccumulateLocal`: acc += product, returns `None`.
    /// * `TransmitPartial`: type-A returns `product + transmitted`; type-B
    ///   returns the sum of both transmitted operands (`transmitted +
    ///   transmitted2`).
    /// * `Clear`: zeroes the accumulator, returns `None`.
    /// * `Disable`: returns `None`.
    pub(crate) fn step(&mut self, transmitted: f32, transmitted2: f32) -> Option<f32> {
        match self.mode {
            PeMode::AccumulateLocal => {
                self.acc_reg = quantize_f32(self.acc_reg + self.product());
                None
            }
            PeMode::TransmitPartial => match self.kind {
                PeKind::TypeA => Some(quantize_f32(self.product() + transmitted)),
                PeKind::TypeB => Some(quantize_f32(transmitted + transmitted2)),
            },
            PeMode::Clear => {
                self.acc_reg = 0.0;
                None
            }
            PeMode::Disable => None,
        }
    }

    /// Reads the accumulation register.
    pub(crate) fn acc(&self) -> f32 {
        self.acc_reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_mode_accumulates_locally() {
        let mut pe = Pe::new(PeKind::TypeA);
        pe.set_mode(PeMode::AccumulateLocal);
        pe.load(2.0, 3.0);
        pe.step(0.0, 0.0);
        pe.load(1.0, 4.0);
        pe.step(0.0, 0.0);
        assert_eq!(pe.acc(), 10.0);
    }

    #[test]
    fn mode_encoding_round_trips() {
        for mode in [PeMode::AccumulateLocal, PeMode::TransmitPartial, PeMode::Clear, PeMode::Disable] {
            assert_eq!(PeMode::decode(mode.encode()), mode);
        }
    }

    #[test]
    #[should_panic(expected = "2-bit field")]
    fn decode_rejects_wide_values() {
        PeMode::decode(4);
    }

    #[test]
    fn clear_zeroes_accumulator() {
        let mut pe = Pe::new(PeKind::TypeA);
        pe.set_mode(PeMode::AccumulateLocal);
        pe.load(1.0, 1.0);
        pe.step(0.0, 0.0);
        pe.set_mode(PeMode::Clear);
        pe.step(0.0, 0.0);
        assert_eq!(pe.acc(), 0.0);
    }

    #[test]
    fn type_a_adds_local_product_to_transmitted() {
        let mut pe = Pe::new(PeKind::TypeA);
        pe.set_mode(PeMode::TransmitPartial);
        pe.load(2.0, 2.0);
        assert_eq!(pe.step(5.0, 0.0), Some(9.0));
    }

    #[test]
    fn type_b_adds_two_transmitted_operands() {
        let mut pe = Pe::new(PeKind::TypeB);
        pe.set_mode(PeMode::TransmitPartial);
        pe.load(9.0, 9.0); // local product must be ignored
        assert_eq!(pe.step(3.0, 4.0), Some(7.0));
    }

    #[test]
    fn disabled_pe_is_inert() {
        let mut pe = Pe::new(PeKind::TypeB);
        pe.set_mode(PeMode::Disable);
        pe.load(1.0, 1.0);
        assert_eq!(pe.step(1.0, 1.0), None);
        assert_eq!(pe.acc(), 0.0);
    }

    #[test]
    fn datapath_is_fp16_rounded() {
        let mut pe = Pe::new(PeKind::TypeA);
        pe.set_mode(PeMode::AccumulateLocal);
        // 0.1 is not exactly representable in FP16.
        pe.load(0.1, 1.0);
        pe.step(0.0, 0.0);
        assert_eq!(pe.acc(), veda_tensor::fp16::quantize_f32(0.1));
    }
}
