//! One population check for both backends: a population the single node
//! refuses, the cluster refuses too, with the same error — so `Runner` gives
//! the same answer for the same input whatever the backend.
//!
//! Two inputs used to split them: duplicate agent ids (the single-node
//! builder refused them, the cluster accepted them), and an agent with id
//! `u64::MAX` (both engines computed `id + 1` unchecked for the first spawn
//! id: a debug-build panic, and in release the single node wrapped to spawn
//! id 0 while the cluster did not). Both engines now admit a population
//! through `brace_core::check_population`.

use brace::common::AgentId;
use brace::core::Agent;
use brace::scenario::{Backend, Registry, Runner};

/// Launch the `fish` scenario's population, edited by `edit`, on `backend`;
/// the launch's error message, if it refused.
fn launch_error(backend: Backend, edit: impl Fn(&mut Vec<Agent>)) -> Option<String> {
    let registry = Registry::builtin();
    let scenario = registry.get("fish").expect("registered scenario");
    let mut setup = scenario.build(Some(40), 42).expect("fish builds");
    edit(&mut setup.population);
    Runner::new(scenario).backend(backend).launch_with(setup).err().map(|e| e.to_string())
}

fn both_backends_refuse(what: &str, edit: impl Fn(&mut Vec<Agent>)) {
    let single = launch_error(Backend::single(), &edit);
    let cluster = launch_error(Backend::cluster(2), &edit);
    let single = single.unwrap_or_else(|| panic!("single node accepted {what}"));
    let cluster = cluster.unwrap_or_else(|| panic!("cluster accepted {what}"));
    assert_eq!(single, cluster, "{what}: the backends refuse differently");
}

#[test]
fn both_backends_refuse_duplicate_agent_ids() {
    both_backends_refuse("duplicate ids", |pop| {
        let twin = pop[3].id;
        pop[7].id = twin;
    });
}

#[test]
fn both_backends_refuse_the_reserved_last_agent_id() {
    both_backends_refuse("id u64::MAX", |pop| pop[5].id = AgentId::new(u64::MAX));
}

#[test]
fn both_backends_accept_the_largest_admissible_id() {
    let edit = |pop: &mut Vec<Agent>| pop[5].id = AgentId::new(u64::MAX - 1);
    assert_eq!(launch_error(Backend::single(), edit), None);
    assert_eq!(launch_error(Backend::cluster(2), edit), None);
}
