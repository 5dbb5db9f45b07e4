//! The six training phases of Fig. 3.
//!
//! Training one GAN iteration interleaves forward propagation, error
//! transfer and ∇weight calculation across both models. The paper denotes
//! them G→, D→, D←, D-weight, G←, G-weight; the discriminator phases run
//! while training either model, the generator backward phases only while
//! training the generator.

use std::fmt;

/// One of the six training phases of a GAN iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Generator forward propagation (`G→`), dominated by T-CONV.
    GForward,
    /// Discriminator forward propagation (`D→`), dominated by S-CONV.
    DForward,
    /// Discriminator error transfer (`D←`), Eq. 3 — T-CONV-shaped.
    DBackward,
    /// Discriminator ∇weight calculation (`D-w`), Eq. 4 — W-CONV-S-shaped.
    DWeightGrad,
    /// Generator error transfer (`G←`) — S-CONV-shaped for T-CONV layers.
    GBackward,
    /// Generator ∇weight calculation (`G-w`) — zero-inserted-input shaped.
    GWeightGrad,
}

impl Phase {
    /// All six phases in dataflow order.
    pub const ALL: [Phase; 6] = [
        Phase::GForward,
        Phase::DForward,
        Phase::DBackward,
        Phase::DWeightGrad,
        Phase::GBackward,
        Phase::GWeightGrad,
    ];

    /// Position of the phase in [`Phase::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this phase runs over the generator network (as opposed to
    /// the discriminator network).
    pub fn is_generator_phase(self) -> bool {
        matches!(
            self,
            Phase::GForward | Phase::GBackward | Phase::GWeightGrad
        )
    }

    /// Whether this is a forward-propagation phase.
    pub fn is_forward(self) -> bool {
        matches!(self, Phase::GForward | Phase::DForward)
    }

    /// Whether this is a ∇weight-calculation phase.
    pub fn is_weight_grad(self) -> bool {
        matches!(self, Phase::GWeightGrad | Phase::DWeightGrad)
    }

    /// The paper's arrow notation for the phase.
    pub fn arrow(self) -> &'static str {
        match self {
            Phase::GForward => "G→",
            Phase::DForward => "D→",
            Phase::DBackward => "D←",
            Phase::DWeightGrad => "D-w",
            Phase::GBackward => "G←",
            Phase::GWeightGrad => "G-w",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.arrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn classification() {
        assert!(Phase::GForward.is_generator_phase());
        assert!(Phase::GForward.is_forward());
        assert!(!Phase::DForward.is_generator_phase());
        assert!(Phase::DWeightGrad.is_weight_grad());
        assert!(!Phase::DBackward.is_weight_grad());
    }

    #[test]
    fn all_distinct() {
        let mut v = Phase::ALL.to_vec();
        v.dedup();
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn display_uses_arrows() {
        assert_eq!(Phase::GForward.to_string(), "G→");
        assert_eq!(Phase::DWeightGrad.to_string(), "D-w");
    }
}
