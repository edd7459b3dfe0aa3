//! Agent schemas: the typed shape of an agent class.
//!
//! A schema declares the agent's *state* fields, its *effect* fields (each
//! with a [`Combinator`]) and the spatial constraints the BRASIL `#range`
//! tag expresses: a **visibility** bound (how far the agent can read or
//! assign effects, L∞) and a **reachability** bound (how far it can move in
//! one update). The runtime derives replication (from visibility) and
//! partitioning stability (from reachability) purely from the schema — the
//! paper's point that "everything in the language follows from the
//! state-effect pattern and neighborhood property".

use crate::combinator::Combinator;
use brace_common::{BraceError, FieldId, Result};
use serde::{Deserialize, Serialize};

/// Definition of one state field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateFieldDef {
    pub name: String,
}

/// Definition of one effect field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EffectFieldDef {
    pub name: String,
    pub combinator: Combinator,
    /// Other agents may write this field: it is the target of a non-local
    /// effect assignment ([`SchemaBuilder::remote_effect`]). A field that is
    /// not remote is *local-only* — written by its own agent alone.
    pub remote: bool,
}

/// The schema of an agent class. Construct through [`SchemaBuilder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentSchema {
    name: String,
    states: Vec<StateFieldDef>,
    effects: Vec<EffectFieldDef>,
    visibility: f64,
    reachability: f64,
}

impl AgentSchema {
    /// Start building a schema for class `name`.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            states: Vec::new(),
            effects: Vec::new(),
            visibility: f64::INFINITY,
            reachability: f64::INFINITY,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    pub fn num_effects(&self) -> usize {
        self.effects.len()
    }

    pub fn state_defs(&self) -> &[StateFieldDef] {
        &self.states
    }

    pub fn effect_defs(&self) -> &[EffectFieldDef] {
        &self.effects
    }

    /// Resolve a state field by name.
    pub fn state_field(&self, name: &str) -> Option<FieldId> {
        self.states.iter().position(|f| f.name == name).map(|i| FieldId::new(i as u16))
    }

    /// Resolve an effect field by name.
    pub fn effect_field(&self, name: &str) -> Option<FieldId> {
        self.effects.iter().position(|f| f.name == name).map(|i| FieldId::new(i as u16))
    }

    /// Combinator of effect field `f`. Panics on out-of-range ids (an id can
    /// only come from this schema).
    #[inline]
    pub fn combinator(&self, f: FieldId) -> Combinator {
        self.effects[f.index()].combinator
    }

    /// The θ vector: one identity value per effect field; agents' effect
    /// slots are reset to this at tick boundaries.
    pub fn effect_identities(&self) -> Vec<f64> {
        self.effects.iter().map(|e| e.combinator.identity()).collect()
    }

    /// Visibility bound (L∞ half-extent of the visible region). Infinite
    /// when the class has no `#range` constraint — which disables the
    /// neighborhood optimizations but stays correct (everything is visible).
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// Reachability bound: maximum per-tick movement along either axis.
    pub fn reachability(&self) -> f64 {
        self.reachability
    }

    /// Whether the model performs non-local effect assignments, i.e. writes
    /// to effect fields of *other* agents: whether any effect field is
    /// [remote](Self::is_remote). Decides between the single reduce pass
    /// (local only) and the map-reduce-reduce pipeline (§3.2).
    pub fn has_nonlocal_effects(&self) -> bool {
        self.effects.iter().any(|e| e.remote)
    }

    /// Whether other agents may write effect field `f`. Only a remote
    /// field's writes need the ordered second reduce pass; a local-only
    /// field has one writer, its own agent. Panics on out-of-range ids.
    #[inline]
    pub fn is_remote(&self, f: FieldId) -> bool {
        self.effects[f.index()].remote
    }
}

/// Builder for [`AgentSchema`]; validates name uniqueness and bounds.
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    name: String,
    states: Vec<StateFieldDef>,
    effects: Vec<EffectFieldDef>,
    visibility: f64,
    reachability: f64,
}

impl SchemaBuilder {
    /// Add a state field.
    pub fn state(mut self, name: impl Into<String>) -> Self {
        self.states.push(StateFieldDef { name: name.into() });
        self
    }

    /// Add a local-only effect field with its combinator: only the agent
    /// itself assigns it.
    pub fn effect(mut self, name: impl Into<String>, combinator: Combinator) -> Self {
        self.effects.push(EffectFieldDef { name: name.into(), combinator, remote: false });
        self
    }

    /// Add an effect field that other agents may assign too — the target of
    /// a non-local effect assignment. Any remote field makes the schema
    /// non-local ([`AgentSchema::has_nonlocal_effects`]).
    pub fn remote_effect(mut self, name: impl Into<String>, combinator: Combinator) -> Self {
        self.effects.push(EffectFieldDef { name: name.into(), combinator, remote: true });
        self
    }

    /// Set the visibility bound (L∞).
    pub fn visibility(mut self, vis: f64) -> Self {
        self.visibility = vis;
        self
    }

    /// Set the reachability bound (L∞ per tick).
    pub fn reachability(mut self, reach: f64) -> Self {
        self.reachability = reach;
        self
    }

    /// Validate and produce the schema.
    pub fn build(self) -> Result<AgentSchema> {
        let mut seen = std::collections::HashSet::new();
        for n in self.states.iter().map(|f| &f.name).chain(self.effects.iter().map(|f| &f.name)) {
            if !seen.insert(n.clone()) {
                return Err(BraceError::Schema(format!("duplicate field name `{n}`")));
            }
        }
        if self.visibility < 0.0 || self.visibility.is_nan() {
            return Err(BraceError::Schema("visibility must be non-negative".into()));
        }
        if self.reachability < 0.0 || self.reachability.is_nan() {
            return Err(BraceError::Schema("reachability must be non-negative".into()));
        }
        if self.states.len() > u16::MAX as usize || self.effects.len() > u16::MAX as usize {
            return Err(BraceError::Schema("too many fields".into()));
        }
        Ok(AgentSchema {
            name: self.name,
            states: self.states,
            effects: self.effects,
            visibility: self.visibility,
            reachability: self.reachability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fish_schema() -> AgentSchema {
        AgentSchema::builder("Fish")
            .state("vx")
            .state("vy")
            .effect("avoidx", Combinator::Sum)
            .effect("avoidy", Combinator::Sum)
            .effect("count", Combinator::Sum)
            .visibility(1.0)
            .reachability(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn field_resolution() {
        let s = fish_schema();
        assert_eq!(s.name(), "Fish");
        assert_eq!(s.num_states(), 2);
        assert_eq!(s.num_effects(), 3);
        assert_eq!(s.state_field("vx"), Some(FieldId::new(0)));
        assert_eq!(s.state_field("vy"), Some(FieldId::new(1)));
        assert_eq!(s.effect_field("count"), Some(FieldId::new(2)));
        assert_eq!(s.state_field("count"), None);
        assert_eq!(s.effect_field("vx"), None);
    }

    #[test]
    fn effect_identities_follow_combinators() {
        let s = AgentSchema::builder("T")
            .effect("a", Combinator::Sum)
            .effect("b", Combinator::Min)
            .effect("c", Combinator::Prod)
            .build()
            .unwrap();
        assert_eq!(s.effect_identities(), vec![0.0, f64::INFINITY, 1.0]);
        assert_eq!(s.combinator(FieldId::new(1)), Combinator::Min);
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let err = AgentSchema::builder("T").state("x").effect("x", Combinator::Sum).build().unwrap_err();
        assert!(err.to_string().contains("duplicate field name `x`"));
    }

    #[test]
    fn negative_bounds_rejected() {
        assert!(AgentSchema::builder("T").visibility(-1.0).build().is_err());
        assert!(AgentSchema::builder("T").reachability(f64::NAN).build().is_err());
    }

    #[test]
    fn default_bounds_are_unbounded() {
        let s = AgentSchema::builder("T").build().unwrap();
        assert_eq!(s.visibility(), f64::INFINITY);
        assert_eq!(s.reachability(), f64::INFINITY);
        assert!(!s.has_nonlocal_effects());
    }

    #[test]
    fn remote_fields_make_the_schema_nonlocal() {
        let s = AgentSchema::builder("Shark")
            .effect("crowd", Combinator::Sum)
            .remote_effect("hurt", Combinator::Sum)
            .build()
            .unwrap();
        assert!(s.has_nonlocal_effects());
        assert!(!s.is_remote(FieldId::new(0)));
        assert!(s.is_remote(FieldId::new(1)));
        assert!(!fish_schema().has_nonlocal_effects());
    }
}
