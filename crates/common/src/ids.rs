//! Strongly-typed identifiers.
//!
//! The runtime juggles several id spaces at once (agents, partitions, worker
//! nodes, schema fields). Newtypes keep them from being confused and make
//! function signatures self-documenting at zero runtime cost.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            #[inline]
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Convert to a `usize` index (for dense per-id tables).
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// Unique identifier of an agent (the paper's `oid`). Stable across the
    /// agent's lifetime; replicas of an agent on other partitions carry the
    /// same id, which is how the second reduce pass addresses a shipped
    /// effect write to its target's owner.
    AgentId,
    u64,
    "a"
);

id_type!(
    /// Identifier of a worker node in the (simulated) cluster. Workers host
    /// collocated map + reduce tasks for the partitions assigned to them.
    WorkerId,
    u32,
    "w"
);

id_type!(
    /// Index of a field in an agent schema (state or effect slot).
    FieldId,
    u16,
    "f"
);

/// Monotonic generator for [`AgentId`]s, used when models spawn agents at
/// runtime (the predator simulation's `spawn`). Engines hand spawn ids out
/// in a global `(parent id, ordinal)` order, so a cluster allocates the
/// same ids as the single node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentIdGen {
    next: u64,
    end: u64,
}

impl AgentIdGen {
    /// A generator with the entire id space above `start`.
    pub fn from(start: u64) -> Self {
        AgentIdGen { next: start, end: u64::MAX }
    }

    /// Allocate the next id, or `None` when the id space is exhausted.
    pub fn alloc(&mut self) -> Option<AgentId> {
        if self.next >= self.end {
            return None;
        }
        let id = AgentId::new(self.next);
        self.next += 1;
        Some(id)
    }

    /// How many ids remain.
    pub fn remaining(&self) -> u64 {
        self.end - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_display() {
        let a = AgentId::new(7);
        let w = WorkerId::new(1);
        let f = FieldId::new(2);
        assert_eq!(a.to_string(), "a7");
        assert_eq!(w.to_string(), "w1");
        assert_eq!(f.to_string(), "f2");
        assert_eq!(a.raw(), 7);
    }

    #[test]
    fn id_ordering_follows_raw_value() {
        assert!(AgentId::new(1) < AgentId::new(2));
        assert_eq!(AgentId::from(5u64), AgentId::new(5));
    }

    #[test]
    fn id_gen_unbounded_never_exhausts_soon() {
        let mut g = AgentIdGen::from(100);
        assert_eq!(g.alloc(), Some(AgentId::new(100)));
        assert_eq!(g.alloc(), Some(AgentId::new(101)));
        assert!(g.remaining() > 1 << 60);
    }
}
