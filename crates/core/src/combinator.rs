//! Effect combinators — the ⊕ operators of the state-effect pattern.
//!
//! "Each effect attribute has an associated decomposable and
//! order-independent combinator function for combining multiple assignments
//! during a tick" (§2.1). The `proptest` suite in this module checks order
//! independence (commutativity + associativity) for every combinator — for
//! float `Sum` and `Prod` only up to rounding, which is why every engine
//! folds each non-local write in one fixed order, source id by source id.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An order-independent aggregate function over `f64` effect values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Combinator {
    /// Addition; identity 0. The workhorse (vector sums in the fish model,
    /// neighbor counts, accumulated "hurt" in the predator model).
    Sum,
    /// Multiplication; identity 1. Survival probabilities and the like.
    Prod,
    /// Minimum; identity +∞. "Closest gap" style aggregates.
    Min,
    /// Maximum; identity −∞.
    Max,
    /// Logical OR over the encoding 0.0 = false / anything else = true;
    /// identity 0 (false). Used for boolean flags such as "was bitten".
    Or,
    /// Logical AND over the same encoding; identity 1 (true).
    And,
}

impl Combinator {
    /// The identity element θ for this combinator: combining it with any
    /// value yields that value. Effect slots are reset to θ at the end of
    /// every tick (Appendix A's "idempotent values").
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            Combinator::Sum => 0.0,
            Combinator::Prod => 1.0,
            Combinator::Min => f64::INFINITY,
            Combinator::Max => f64::NEG_INFINITY,
            Combinator::Or => 0.0,
            Combinator::And => 1.0,
        }
    }

    /// Apply the combinator: `a ⊕ b`.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            Combinator::Sum => a + b,
            Combinator::Prod => a * b,
            Combinator::Min => a.min(b),
            Combinator::Max => a.max(b),
            Combinator::Or => {
                if a != 0.0 || b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Combinator::And => {
                if a != 0.0 && b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Fold a sequence of values starting from the identity.
    pub fn fold<I: IntoIterator<Item = f64>>(self, values: I) -> f64 {
        values.into_iter().fold(self.identity(), |acc, v| self.combine(acc, v))
    }

    /// Parse from the BRASIL surface syntax (`effect float x : sum;`).
    pub fn parse(name: &str) -> Option<Combinator> {
        match name {
            "sum" => Some(Combinator::Sum),
            "prod" | "product" => Some(Combinator::Prod),
            "min" => Some(Combinator::Min),
            "max" => Some(Combinator::Max),
            "or" => Some(Combinator::Or),
            "and" => Some(Combinator::And),
            _ => None,
        }
    }

    /// All combinators, for exhaustive property tests.
    pub const ALL: [Combinator; 6] =
        [Combinator::Sum, Combinator::Prod, Combinator::Min, Combinator::Max, Combinator::Or, Combinator::And];
}

impl fmt::Display for Combinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Combinator::Sum => "sum",
            Combinator::Prod => "prod",
            Combinator::Min => "min",
            Combinator::Max => "max",
            Combinator::Or => "or",
            Combinator::And => "and",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identities_are_neutral() {
        for c in Combinator::ALL {
            for v in [-3.5, 0.0, 1.0, 42.0] {
                let got = c.combine(c.identity(), v);
                // Or/And normalize to 0/1; compare through the combinator's
                // own equivalence (truthiness) for those.
                match c {
                    Combinator::Or | Combinator::And => {
                        assert_eq!(got != 0.0, v != 0.0, "{c} identity broke truthiness")
                    }
                    _ => assert_eq!(got, v, "{c} identity not neutral"),
                }
            }
        }
    }

    #[test]
    fn fold_examples() {
        assert_eq!(Combinator::Sum.fold([1.0, 2.0, 3.0]), 6.0);
        assert_eq!(Combinator::Prod.fold([2.0, 3.0]), 6.0);
        assert_eq!(Combinator::Min.fold([3.0, -1.0, 2.0]), -1.0);
        assert_eq!(Combinator::Max.fold([3.0, -1.0, 2.0]), 3.0);
        assert_eq!(Combinator::Or.fold([0.0, 0.0, 5.0]), 1.0);
        assert_eq!(Combinator::Or.fold([0.0, 0.0]), 0.0);
        assert_eq!(Combinator::And.fold([1.0, 2.0]), 1.0);
        assert_eq!(Combinator::And.fold([1.0, 0.0]), 0.0);
    }

    #[test]
    fn fold_of_empty_is_identity() {
        for c in Combinator::ALL {
            assert_eq!(c.fold([]), c.identity());
        }
    }

    #[test]
    fn parse_round_trips_display() {
        for c in Combinator::ALL {
            assert_eq!(Combinator::parse(&c.to_string()), Some(c));
        }
        assert_eq!(Combinator::parse("median"), None);
    }

    proptest! {
        #[test]
        fn commutative(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            for c in Combinator::ALL {
                prop_assert_eq!(c.combine(a, b).to_bits(), c.combine(b, a).to_bits());
            }
        }

        #[test]
        fn associative_exactly_for_lattice_ops(a in -1e6f64..1e6, b in -1e6f64..1e6, x in -1e6f64..1e6) {
            // Min/Max/Or/And are exactly associative on floats.
            for c in [Combinator::Min, Combinator::Max, Combinator::Or, Combinator::And] {
                let l = c.combine(c.combine(a, b), x);
                let r = c.combine(a, c.combine(b, x));
                prop_assert_eq!(l.to_bits(), r.to_bits());
            }
        }

        #[test]
        fn associative_approximately_for_arithmetic(a in -1e3f64..1e3, b in -1e3f64..1e3, x in -1e3f64..1e3) {
            for c in [Combinator::Sum, Combinator::Prod] {
                let l = c.combine(c.combine(a, b), x);
                let r = c.combine(a, c.combine(b, x));
                let scale = l.abs().max(r.abs()).max(1.0);
                prop_assert!((l - r).abs() <= 1e-9 * scale, "{} vs {}", l, r);
            }
        }

        #[test]
        fn fold_is_permutation_insensitive_for_lattice_ops(mut xs in proptest::collection::vec(-1e6f64..1e6, 0..20)) {
            for c in [Combinator::Min, Combinator::Max, Combinator::Or, Combinator::And] {
                let forward = c.fold(xs.iter().copied());
                xs.reverse();
                let backward = c.fold(xs.iter().copied());
                prop_assert_eq!(forward.to_bits(), backward.to_bits());
            }
        }
    }
}
