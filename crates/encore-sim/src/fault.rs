//! The transient-fault taxonomy.
//!
//! Everything the injector knows about *what a fault does* lives here.
//! [`FaultModelKind::sample`] owns plan sampling — each [`FaultPlan`]
//! is a pure function of the campaign seed and the injection index (the
//! caller derives the stream with
//! [`SplitMix64::for_index`](crate::rng::SplitMix64::for_index)), so
//! campaigns stay bit-reproducible at any worker count no matter which
//! model is selected. Each plan carries a [`FaultAction`] the
//! interpreter dispatches on at its injection sites; the action, not the
//! model, is what the machine executes, so replaying a single plan
//! needs no model at all.
//!
//! The models, one [`FaultModelKind`] each:
//!
//! | model | action | provenance |
//! |---|---|---|
//! | `bit-flip` | flip one bit of a produced value | the paper's §4.2.1 SEU model |
//! | `multi-bit` | flip a 2–4 bit adjacent burst of a produced value | spatially-correlated upsets |
//! | `address` | corrupt the resolved cell index of a load/store | address-path faults |
//! | `control-flow` | take the wrong edge of a conditional branch | Khoshavi et al.'s control-flow errors |
//! | `power-failure` | execution dies mid-region; volatile registers are lost and the run restarts from the armed recovery block | Choi et al.'s intermittent computation |
//!
//! # Splice soundness per model
//!
//! The divergence splice's certification argument (DESIGN.md §12) is
//! *state-based*: a rule only fires at a probe where the run's complete
//! control state equals a golden snapshot's and no fault is pending, and
//! equal state implies an identical future under the deterministic
//! interpreter regardless of how the state was reached. That argument is
//! independent of the fault model — it holds for deferred corruptions
//! (an armed-but-never-fired wrong-edge or address fault stays pending
//! to the end of the run, so no probe can certify, which is the
//! conservative direction) and for power failures (whose zeroed
//! volatile registers either get rewritten, restoring state equality, or
//! keep every probe failing). The differential tests
//! (`tests/fuzz_differential.rs`, `tests/sfi_campaign.rs`) enforce the
//! claim per model rather than trusting this comment.

use crate::rng::Rng;

/// What the injected fault does when it fires.
///
/// Sampled into a [`FaultPlan`] by [`FaultModelKind::sample`];
/// dispatched by the interpreter at its injection sites.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultAction {
    /// XOR `mask` into the 64-bit representation of the value produced
    /// by the `inject_at`-th eligible instruction (single- or
    /// multi-bit value corruption; pointers fold the mask into their
    /// cell index — see [`Value::flip_bits`](crate::Value::flip_bits)).
    FlipBits {
        /// Bits to flip.
        mask: u64,
    },
    /// Arm at the `inject_at`-th eligible instruction; the next
    /// conditional branch then transfers along the *wrong* edge
    /// (then↔else). A run that executes no further branch never
    /// injects (the fault lands in branch-free straight-line code).
    WrongEdge,
    /// Arm at the `inject_at`-th eligible instruction; the next program
    /// load or store then XORs the (16-bit-folded) `mask` into its
    /// resolved cell index. Instrumentation accesses (checkpoint reads,
    /// restore writes) are exempt — the recovery log is assumed
    /// ECC-protected, as the paper assumes for its own metadata.
    CorruptAddress {
        /// Bits to flip in the resolved cell index (folded to 16 bits).
        mask: u64,
    },
    /// Power is cut immediately after the `inject_at`-th eligible
    /// instruction retires: detection is instantaneous, the volatile
    /// register file of the frame the recovery unwinds into is cleared
    /// (memory persists — an NVRAM machine), and execution restarts
    /// from the armed recovery block, whose `Restore` re-applies the
    /// checkpoint log. With no armed region the device simply dies:
    /// `DetectedUnrecoverable`.
    PowerFailure,
}

/// A planned transient fault: at the `inject_at`-th *eligible* dynamic
/// instruction (value-producing or store), perform `action`, detected
/// `detect_latency` dynamic instructions after the action fires (`l` of
/// Eq. 6). Deferred actions ([`FaultAction::WrongEdge`],
/// [`FaultAction::CorruptAddress`]) arm at the ordinal and fire at the
/// next matching event; their latency counts from the firing point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FaultPlan {
    /// Eligible-instruction ordinal to inject at.
    pub inject_at: u64,
    /// What the fault does.
    pub action: FaultAction,
    /// Detection latency in dynamic instructions (`l` of Eq. 6).
    pub detect_latency: u64,
}

impl FaultPlan {
    /// The legacy single-bit-flip plan: flip `bit` (0–63) of the value
    /// produced by the `inject_at`-th eligible instruction.
    #[must_use]
    pub fn bit_flip(inject_at: u64, bit: u8, detect_latency: u64) -> Self {
        Self {
            inject_at,
            action: FaultAction::FlipBits { mask: 1u64 << (bit % 64) },
            detect_latency,
        }
    }
}

/// The fault model plans are sampled from — the `Copy + Eq` selector
/// that travels inside [`SfiConfig`](crate::SfiConfig), the CLI and
/// campaign reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FaultModelKind {
    /// The classic single-event upset (the default, the paper's
    /// §4.2.1): one uniformly chosen bit of the value produced by a
    /// uniformly chosen eligible instruction. Its draw order reproduces
    /// the pre-taxonomy injector bit for bit.
    #[default]
    BitFlip,
    /// Spatially-correlated multi-bit upset: a burst of 2–4 adjacent
    /// bits (wrapping at bit 63) of one produced value.
    MultiBit,
    /// Address-path fault: one bit of the resolved cell index of the
    /// first program load/store after the arming point. Strays either
    /// land in bounds (corrupting a neighbour cell) or trap — a symptom
    /// the detection path converts into a rollback.
    Address,
    /// Control-flow error (Khoshavi et al.): the first conditional
    /// branch after the arming point transfers along the wrong edge.
    ControlFlow,
    /// Power failure (Choi et al.'s intermittent computation): the
    /// device loses power at a uniformly chosen point, volatile
    /// registers are lost, and the run restarts from the armed recovery
    /// block. Detection is the event itself, so `detect_latency` is
    /// always 0.
    PowerFailure,
}

impl FaultModelKind {
    /// Every model, in reporting order.
    pub const ALL: [FaultModelKind; 5] = [
        FaultModelKind::BitFlip,
        FaultModelKind::MultiBit,
        FaultModelKind::Address,
        FaultModelKind::ControlFlow,
        FaultModelKind::PowerFailure,
    ];

    /// Samples one plan from `rng`: the eligible ordinal first, then
    /// the action's own draws, then a detection latency uniform on
    /// `[0, dmax]` (none for a power failure).
    ///
    /// A pure function of the `rng` stream and the arguments: the
    /// campaign derives one independent stream per `(seed, index)`
    /// pair, so purity here is what makes campaigns bit-reproducible at
    /// any worker count and lets any single injection be replayed in
    /// isolation.
    ///
    /// # Panics
    ///
    /// Panics when `eligible_insts == 0`: an empty golden run has no
    /// sample space. [`SfiCampaign::prepare`](crate::SfiCampaign)
    /// surfaces that case as
    /// [`GoldenRunError::NoEligibleInstructions`](crate::GoldenRunError)
    /// before any plan is drawn.
    #[must_use]
    pub fn sample(self, rng: &mut impl Rng, eligible_insts: u64, dmax: u64) -> FaultPlan {
        let inject_at = rng.gen_below(eligible_insts);
        let action = match self {
            FaultModelKind::BitFlip => FaultAction::FlipBits { mask: 1u64 << rng.gen_below(64) },
            FaultModelKind::MultiBit => {
                let width = 2 + rng.gen_below(3); // 2..=4 adjacent bits
                let pos = rng.gen_below(64) as u32;
                FaultAction::FlipBits { mask: ((1u64 << width) - 1).rotate_left(pos) }
            }
            FaultModelKind::Address => {
                FaultAction::CorruptAddress { mask: 1u64 << rng.gen_below(16) }
            }
            FaultModelKind::ControlFlow => FaultAction::WrongEdge,
            FaultModelKind::PowerFailure => FaultAction::PowerFailure,
        };
        let detect_latency = match self {
            FaultModelKind::PowerFailure => 0,
            _ => rng.gen_range_inclusive(0, dmax),
        };
        FaultPlan { inject_at, action, detect_latency }
    }

    /// Kebab-case name — the CLI value of `--fault-model`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultModelKind::BitFlip => "bit-flip",
            FaultModelKind::MultiBit => "multi-bit",
            FaultModelKind::Address => "address",
            FaultModelKind::ControlFlow => "control-flow",
            FaultModelKind::PowerFailure => "power-failure",
        }
    }

    /// Stable snake_case label (used as JSON keys in campaign reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultModelKind::BitFlip => "bit_flip",
            FaultModelKind::MultiBit => "multi_bit",
            FaultModelKind::Address => "address",
            FaultModelKind::ControlFlow => "control_flow",
            FaultModelKind::PowerFailure => "power_failure",
        }
    }

    /// Parses a model name as the CLI spells it (either the kebab-case
    /// [`FaultModelKind::name`] or the snake_case
    /// [`FaultModelKind::label`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultModelKind> {
        FaultModelKind::ALL
            .into_iter()
            .find(|k| s == k.name() || s == k.label())
    }
}

impl std::fmt::Display for FaultModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn names_and_labels_round_trip_through_parse() {
        for kind in FaultModelKind::ALL {
            assert_eq!(FaultModelKind::parse(kind.name()), Some(kind));
            assert_eq!(FaultModelKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FaultModelKind::parse("cosmic-ray"), None);
    }

    #[test]
    fn every_model_samples_within_bounds() {
        for kind in FaultModelKind::ALL {
            for index in 0..200u64 {
                let mut rng = SplitMix64::for_index(0xFA_017, index);
                let plan = kind.sample(&mut rng, 1000, 50);
                assert!(plan.inject_at < 1000, "{kind}: {plan:?}");
                assert!(plan.detect_latency <= 50, "{kind}: {plan:?}");
                match (kind, plan.action) {
                    (FaultModelKind::BitFlip, FaultAction::FlipBits { mask }) => {
                        assert_eq!(mask.count_ones(), 1);
                    }
                    (FaultModelKind::MultiBit, FaultAction::FlipBits { mask }) => {
                        let w = mask.count_ones();
                        assert!((2..=4).contains(&w), "burst width {w}");
                        // Adjacent (modulo rotation): rotating the mask
                        // so its lowest set bit is at 0 leaves a
                        // contiguous low block.
                        let r = mask.rotate_right(mask.trailing_zeros() % 64);
                        assert!(
                            r == (1u64 << w) - 1 || mask.leading_zeros() == 0,
                            "non-contiguous burst {mask:#x}"
                        );
                    }
                    (FaultModelKind::Address, FaultAction::CorruptAddress { mask }) => {
                        assert_eq!(mask.count_ones(), 1);
                        assert!(mask < (1 << 16));
                    }
                    (FaultModelKind::ControlFlow, FaultAction::WrongEdge) => {}
                    (FaultModelKind::PowerFailure, FaultAction::PowerFailure) => {
                        assert_eq!(plan.detect_latency, 0);
                    }
                    (k, a) => panic!("{k} sampled unexpected action {a:?}"),
                }
            }
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_index() {
        for kind in FaultModelKind::ALL {
            for index in [0u64, 1, 17, 9999] {
                let a = kind.sample(&mut SplitMix64::for_index(7, index), 500, 20);
                let b = kind.sample(&mut SplitMix64::for_index(7, index), 500, 20);
                assert_eq!(a, b, "{kind} resampled differently at index {index}");
            }
        }
    }

    #[test]
    fn bit_flip_helper_matches_action() {
        let p = FaultPlan::bit_flip(10, 5, 3);
        assert_eq!(p.inject_at, 10);
        assert_eq!(p.detect_latency, 3);
        assert_eq!(p.action, FaultAction::FlipBits { mask: 1 << 5 });
        // Bit indices fold modulo 64 like the legacy injector did.
        assert_eq!(FaultPlan::bit_flip(0, 64, 0).action, FaultAction::FlipBits { mask: 1 });
    }
}
