//! Shared foundation types for the BRACE behavioral-simulation engine.
//!
//! This crate deliberately contains no simulation logic. It provides the
//! vocabulary every other crate speaks:
//!
//! * [`geom`] — two-dimensional geometry ([`Vec2`], [`Rect`]) used for agent
//!   positions, visible regions and partition bounds.
//! * [`ids`] — strongly-typed identifiers for agents, workers and fields so
//!   the compiler catches id mix-ups.
//! * [`rng`] — a deterministic, splittable random-number generator. Every
//!   simulation run in this workspace is reproducible from a single `u64`
//!   seed; per-agent streams keep results independent of iteration order.
//! * [`stats`] — the RMSPE goodness-of-fit measure used by the paper's
//!   Table 2 and the log-log slope the scaling shape tests fit.
//! * [`error`] — the shared error type.

pub mod error;
pub mod geom;
pub mod ids;
pub mod rng;
pub mod stats;

pub use error::{BraceError, Result};
pub use geom::{Rect, Vec2};
pub use ids::{AgentId, FieldId, WorkerId};
pub use rng::DetRng;
pub use stats::rmspe;

/// A panic payload as text: the `&str` or `String` it was raised with. The
/// one rendering of a caught panic, at every unwind boundary (a served run,
/// a cluster worker's epoch).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "run panicked".into(),
    }
}

/// 64-bit FNV-1a over a byte string: the checksum of durable manifest
/// frames and checkpoint files, and the serve result cache's key hash. The
/// one-shot form of [`Fnv1a`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Incremental 64-bit FNV-1a: a byte string fed in parts, in order, hashes
/// to [`fnv1a`] of their concatenation, so a checkpoint file is checksummed
/// without first being copied into one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feed the next part.
    pub fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3));
    }

    /// The hash of every part fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_in_parts_is_fnv1a_of_the_whole() {
        let whole = b"a checkpoint file, hashed in parts";
        for cut in 0..=whole.len() {
            for cut2 in cut..=whole.len() {
                let mut h = super::Fnv1a::new();
                h.write(&whole[..cut]);
                h.write(&whole[cut..cut2]);
                h.write(&whole[cut2..]);
                assert_eq!(h.finish(), super::fnv1a(whole), "cut at {cut} and {cut2}");
            }
        }
    }
}
