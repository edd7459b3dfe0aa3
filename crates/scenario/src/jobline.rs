//! Canonical job lines: one textual answer to "which simulation is this?".
//!
//! Two layers share this module. The durable-run manifests record a
//! [`JobSpec`] line (`scenario=… size=… conformance=…`) in their header so
//! a fresh process can rebuild the behavior after a crash — that format is
//! on disk, so [`JobSpec::encode`]/[`JobSpec::parse`] must stay
//! byte-compatible with every manifest already written. The serve layer
//! ([`brace-serve`]) extends the same line with the remaining run
//! parameters — seed, horizon, index override, backend — into a [`RunKey`]
//! whose [`RunKey::canonical`] string *fully determines the result bits*:
//! scenario builds are pure functions of `(size, seed)` (the
//! [`Scenario`](crate::Scenario) determinism contract) and the engine is
//! deterministic given the built world, the index, and the backend. That
//! is what makes [`RunKey::cache_key`] sound as a result-cache key —
//! equal keys provably yield bit-identical checksums, so a cached result
//! can be served without re-simulating.
//!
//! The backend label is part of the key even though every run is exactly
//! distributable (single ≡ cluster, bitwise): keying on it trades a few
//! duplicate cache entries for a key that names exactly the run whose
//! result it holds.
//!
//! Parsers here skip unknown `key=value` fields rather than rejecting
//! them, so an older binary can still read a line written by a newer one
//! that appended fields.

use brace_common::{fnv1a, BraceError, Result};
use brace_spatial::IndexKind;

/// The scenario/job line recorded in durable manifest headers. Everything
/// needed to rebuild the behavior in a fresh process, given the header's
/// seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Population size (`None` = the scenario default).
    pub size: Option<usize>,
    /// Whether the scenario's reduced conformance form is used.
    pub conformance: bool,
}

impl JobSpec {
    /// Encode as the manifest job line: `scenario=… size=… conformance=…`.
    /// This exact byte format is persisted in durable-run manifests — do
    /// not reorder or rename fields.
    pub fn encode(&self) -> String {
        let size = self.size.map(|n| n.to_string()).unwrap_or_else(|| "default".into());
        format!("scenario={} size={size} conformance={}", self.scenario, self.conformance)
    }

    /// Parse a job line back. Unknown keys are skipped, not rejected: an
    /// older binary can still resume a manifest written by a newer one
    /// that appended fields.
    pub fn parse(job: &str) -> Result<JobSpec> {
        let mut scenario = None;
        let mut size = None;
        let mut conformance = false;
        for field in job.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| BraceError::Config(format!("malformed job field `{field}` in `{job}`")))?;
            match key {
                "scenario" => scenario = Some(value.to_string()),
                "size" if value == "default" => size = None,
                "size" => {
                    size = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| BraceError::Config(format!("bad size `{value}` in job `{job}`")))?,
                    )
                }
                "conformance" => conformance = value == "true",
                _ => {}
            }
        }
        let scenario = scenario.ok_or_else(|| BraceError::Config(format!("job `{job}` names no scenario")))?;
        Ok(JobSpec { scenario, size, conformance })
    }
}

/// Stable textual name for an index override in a canonical line.
fn index_name(kind: IndexKind) -> &'static str {
    match kind {
        IndexKind::Scan => "scan",
        IndexKind::KdTree => "kd",
        IndexKind::Grid => "grid",
    }
}

/// A [`JobSpec`] completed with every remaining parameter that determines
/// the result bits of a run: seed, horizon, index override, backend. The
/// serve layer's result cache keys on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunKey {
    pub job: JobSpec,
    /// Master seed (behavior, population and worker RNGs derive from it).
    pub seed: u64,
    /// Run horizon in ticks.
    pub ticks: u64,
    /// Explicit index override (`None` = the scenario's own choice, which
    /// is itself a pure function of the job — so `None` is canonical).
    pub index: Option<IndexKind>,
    /// Backend label (`single`, `cluster:N`) — see the module docs for why
    /// this is keyed even for exactly-distributable jobs.
    pub backend: String,
}

impl RunKey {
    /// The canonical line: the [`JobSpec::encode`] prefix (kept first so
    /// the two formats visibly share lineage) followed by the remaining
    /// fields in fixed order. Two runs with equal canonical lines produce
    /// bit-identical checksums.
    pub fn canonical(&self) -> String {
        let mut line = self.job.encode();
        line.push_str(&format!(" seed={} ticks={}", self.seed, self.ticks));
        line.push_str(&format!(" index={}", self.index.map(index_name).unwrap_or("auto")));
        line.push_str(&format!(" backend={}", self.backend));
        line
    }

    /// FNV-1a hash of [`RunKey::canonical`] — the result-cache key.
    pub fn cache_key(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_and_matches_manifest_format() {
        let job = JobSpec { scenario: "fish".into(), size: Some(300), conformance: true };
        let line = job.encode();
        // The exact on-disk manifest format — byte-compatibility is load-bearing.
        assert_eq!(line, "scenario=fish size=300 conformance=true");
        assert_eq!(JobSpec::parse(&line).unwrap(), job);

        let default = JobSpec { scenario: "traffic".into(), size: None, conformance: false };
        assert_eq!(default.encode(), "scenario=traffic size=default conformance=false");
        assert_eq!(JobSpec::parse(&default.encode()).unwrap(), default);
    }

    #[test]
    fn job_spec_parse_skips_unknown_fields_and_rejects_garbage() {
        let parsed = JobSpec::parse("scenario=fish size=10 conformance=true future=field").unwrap();
        assert_eq!(parsed.scenario, "fish");
        assert!(JobSpec::parse("size=10").is_err(), "a job line must name a scenario");
        assert!(JobSpec::parse("scenario=fish size=ten").is_err());
        assert!(JobSpec::parse("no-equals-sign").is_err());
    }

    #[test]
    fn run_key_distinguishes_every_parameter() {
        let base = RunKey {
            job: JobSpec { scenario: "epidemic".into(), size: None, conformance: true },
            seed: 42,
            ticks: 20,
            index: None,
            backend: "single".into(),
        };
        assert_eq!(
            base.canonical(),
            "scenario=epidemic size=default conformance=true seed=42 ticks=20 index=auto backend=single"
        );
        let variants = [
            RunKey { seed: 43, ..base.clone() },
            RunKey { ticks: 21, ..base.clone() },
            RunKey { index: Some(IndexKind::Grid), ..base.clone() },
            RunKey { backend: "cluster:4".into(), ..base.clone() },
            RunKey { job: JobSpec { conformance: false, ..base.job.clone() }, ..base.clone() },
            RunKey { job: JobSpec { size: Some(300), ..base.job.clone() }, ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(v.cache_key(), base.cache_key(), "{} vs {}", v.canonical(), base.canonical());
        }
        // Equal keys hash equally (determinism of the key itself).
        assert_eq!(base.cache_key(), base.clone().cache_key());
    }
}
