//! `brasil_run` — compile a BRASIL script from a file and run it as a
//! scenario on either backend.
//!
//! ```sh
//! cargo run --release --example brasil_run -- scripts/swarm.brasil \
//!     [--agents 500] [--ticks 100] [--seed 7] [--workers 4] [--show-plan]
//! ```
//!
//! Agents start at deterministic random positions in a square sized to the
//! population; state fields start at 0. The script becomes an anonymous
//! [`Scenario`], so `--workers N` is just a backend switch on the same
//! [`Runner`] call — no per-backend code.

use brace::common::{AgentId, DetRng, Result, Vec2};
use brace::core::{Agent, Behavior};
use brace::prelude::*;
use brace::scenario::ScenarioSetup;
use brasil::{CompiledClass, Script};
use std::sync::Arc;

struct Opts {
    path: String,
    agents: usize,
    ticks: u64,
    seed: u64,
    workers: usize,
    show_plan: bool,
}

fn parse_args() -> std::result::Result<Opts, String> {
    let mut opts = Opts { path: String::new(), agents: 500, ticks: 100, seed: 7, workers: 1, show_plan: false };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| -> std::result::Result<String, String> {
            args.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--agents" => opts.agents = take("--agents")?.parse().map_err(|e| format!("--agents: {e}"))?,
            "--ticks" => opts.ticks = take("--ticks")?.parse().map_err(|e| format!("--ticks: {e}"))?,
            "--seed" => opts.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workers" => opts.workers = take("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--show-plan" => opts.show_plan = true,
            "-h" | "--help" => return Err("usage".into()),
            path if !path.starts_with('-') && opts.path.is_empty() => opts.path = path.to_string(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.path.is_empty() {
        return Err("missing script path".into());
    }
    Ok(opts)
}

/// A user script as an anonymous scenario.
struct ScriptScenario {
    class: CompiledClass,
}

impl Scenario for ScriptScenario {
    fn name(&self) -> &'static str {
        "brasil-script"
    }
    fn description(&self) -> &'static str {
        "user-supplied BRASIL script"
    }
    fn default_population(&self) -> usize {
        500
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let behavior = brasil::BrasilBehavior::new(self.class.clone());
        let schema = behavior.schema().clone();
        // Deterministic population over a density-normalized square.
        let side = (n as f64 * 2.0).sqrt().max(1.0);
        let mut rng = DetRng::seed_from_u64(seed);
        let population: Vec<Agent> = (0..n)
            .map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, side), rng.range(0.0, side)), &schema))
            .collect();
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: 10, space_x: (0.0, side) })
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: brasil_run <script.brasil> [--agents N] [--ticks N] [--seed N] [--workers N] [--show-plan]"
            );
            std::process::exit(2);
        }
    };
    let source = std::fs::read_to_string(&opts.path).unwrap_or_else(|e| {
        eprintln!("error: reading {}: {e}", opts.path);
        std::process::exit(2);
    });
    let script = Script::compile(&source).unwrap_or_else(|e| {
        eprintln!("compile error: {e}");
        std::process::exit(1);
    });
    let class = script.classes()[0].clone();
    println!(
        "compiled `{}`: {} state, {} effect fields; visibility {}; non-local effects: {}",
        class.schema().name(),
        class.schema().num_states(),
        class.schema().num_effects(),
        class.schema().visibility(),
        class.schema().has_nonlocal_effects()
    );
    if opts.show_plan {
        println!("\n{}", brasil::pretty::class(&class));
    }

    let scenario = ScriptScenario { class };
    let backend = if opts.workers > 1 { Backend::cluster(opts.workers) } else { Backend::single() };
    let report =
        Runner::new(&scenario).seed(opts.seed).population(opts.agents).backend(backend).run(opts.ticks).unwrap_or_else(
            |e| {
                eprintln!("run error: {e}");
                std::process::exit(1);
            },
        );

    println!(
        "ran {} ticks on {}: {:.0} agent-ticks/s, checksum {:#018X}",
        report.ticks, report.backend, report.agents_per_sec, report.checksum
    );
    // World summary.
    let (mut cx, mut cy) = (0.0, 0.0);
    for a in &report.world {
        cx += a.pos.x;
        cy += a.pos.y;
    }
    let n = report.world.len().max(1) as f64;
    println!(
        "final world: {} agents, centroid ({:.2}, {:.2}), wall {:.2}s",
        report.world.len(),
        cx / n,
        cy / n,
        report.wall_secs
    );
    for a in report.world.iter().take(3) {
        println!("  {}: pos {} state {:?}", a.id, a.pos, a.state);
    }
}
