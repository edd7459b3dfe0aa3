//! `BENCHMARK.json` ↔ binary cross-check, so a manifest the pipeline would
//! refuse (or one that names a metric the binary never prints) is caught by
//! `--check` instead of by a rejected PR.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use brace_serve::Json;

/// The pipeline's limits on the manifest.
const MAX_WORKLOADS: usize = 8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;
const MAX_BOUND: f64 = 0.25;
const MAX_NAME: usize = 64;
const MAX_UNIT: usize = 16;
const MAX_WHY: usize = 200;

/// A workload or metric name: starts with a letter or digit, then letters,
/// digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= MAX_NAME
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: letters, digits, `_`, `/`, `%`, `.`, `-`; 1 to 16 characters.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_UNIT
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` must be an array")),
    }
}

fn text<'a>(item: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    item.get(key).and_then(Json::as_str).ok_or_else(|| format!("{ctx}: `{key}` must be a string"))
}

fn keys(item: &Json) -> Vec<&str> {
    match item {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// The bound of each end-to-end metric, by name.
pub fn bounds(doc: &Json) -> Vec<(String, f64)> {
    arr(doc, "end_to_end")
        .unwrap_or_default()
        .iter()
        .filter_map(|m| match (m.get("name")?.as_str()?, m.get("bound")?) {
            (name, Json::Num(b)) => Some((name.to_string(), *b)),
            _ => None,
        })
        .collect()
}

fn check_metrics(items: &[Json], section: &str, catalogue: &[MetricDef], bounded: bool, errs: &mut Vec<String>) {
    let want_keys: &[&str] = if bounded { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
    let mut seen = Vec::new();
    for item in items {
        let name = match text(item, "name", section) {
            Ok(n) => n,
            Err(e) => {
                errs.push(e);
                continue;
            }
        };
        let ctx = format!("{section} `{name}`");
        if keys(item) != want_keys {
            errs.push(format!("{ctx}: keys must be exactly {want_keys:?}"));
        }
        if !valid_name(name) {
            errs.push(format!("{ctx}: name outside [A-Za-z0-9][A-Za-z0-9_.-]*"));
        }
        if seen.contains(&name) {
            errs.push(format!("{ctx}: listed twice"));
        }
        seen.push(name);
        let Some(def) = catalogue.iter().find(|d| d.name == name) else {
            errs.push(format!("{ctx}: the binary prints no such metric"));
            continue;
        };
        match text(item, "unit", &ctx) {
            Ok(u) if !valid_unit(u) => errs.push(format!("{ctx}: unit `{u}` outside the allowed characters")),
            Ok(u) if u != def.unit => errs.push(format!("{ctx}: unit `{u}`, the binary prints `{}`", def.unit)),
            Ok(_) => {}
            Err(e) => errs.push(e),
        }
        match text(item, "better", &ctx) {
            Ok(b) if b != def.better => errs.push(format!("{ctx}: better `{b}`, the catalogue says `{}`", def.better)),
            Ok(_) => {}
            Err(e) => errs.push(e),
        }
        if bounded {
            match item.get("bound") {
                Some(Json::Num(b)) if *b > 0.0 && *b <= MAX_BOUND => {}
                _ => errs.push(format!("{ctx}: `bound` must be a number in (0, {MAX_BOUND}]")),
            }
        }
    }
    for def in catalogue {
        if !seen.contains(&def.name) {
            errs.push(format!("{section}: `{}` is printed by the binary but missing from the manifest", def.name));
        }
    }
}

/// Every way `text` (the content of `BENCHMARK.json`) disagrees with the
/// pipeline's contract or with what this binary prints. Empty = consistent.
pub fn check(text_json: &str) -> Vec<String> {
    let doc = match Json::parse(text_json) {
        Ok(d) => d,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut errs = Vec::new();
    let mut top = keys(&doc);
    top.sort_unstable();
    if top != ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"] {
        errs.push(format!("top-level keys are {top:?}"));
    }
    match arr(&doc, "paths") {
        Ok([Json::Str(p)]) if p == "perfbench" => {}
        _ => errs.push("`paths` must be [\"perfbench\"]".into()),
    }
    match arr(&doc, "command") {
        Ok(cmd)
            if !cmd.is_empty() && cmd.len() <= 32 && cmd.iter().all(|c| c.as_str().is_some_and(|s| s.len() <= 200)) => {
        }
        _ => errs.push("`command` must be 1 to 32 strings of at most 200 characters".into()),
    }
    match doc.get("run_seconds").and_then(Json::as_u64) {
        Some(1..=60) => {}
        _ => errs.push("`run_seconds` must be a whole number from 1 to 60".into()),
    }

    match arr(&doc, "workloads") {
        Ok(items) => {
            if !(2..=MAX_WORKLOADS).contains(&items.len()) {
                errs.push(format!("{} workloads; the contract allows 2 to {MAX_WORKLOADS}", items.len()));
            }
            let mut names = Vec::new();
            for item in items {
                if keys(item) != ["name", "why"] {
                    errs.push("workload keys must be exactly [\"name\", \"why\"]".into());
                }
                match (text(item, "name", "workload"), text(item, "why", "workload")) {
                    (Ok(name), Ok(why)) => {
                        if !valid_name(name) {
                            errs.push(format!("workload `{name}`: name outside [A-Za-z0-9][A-Za-z0-9_.-]*"));
                        }
                        if why.is_empty() || why.chars().count() > MAX_WHY || why.contains('\n') {
                            errs.push(format!(
                                "workload `{name}`: `why` must be one line of at most {MAX_WHY} characters"
                            ));
                        }
                        names.push(name);
                    }
                    (a, b) => errs.extend(a.err().into_iter().chain(b.err())),
                }
            }
            let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            if names != table {
                errs.push(format!("manifest workloads {names:?} differ from the binary's {table:?}"));
            }
        }
        Err(e) => errs.push(e),
    }

    for (section, catalogue, bounded, max) in
        [("end_to_end", &END_TO_END[..], true, MAX_END_TO_END), ("per_layer", PER_LAYER, false, MAX_PER_LAYER)]
    {
        match arr(&doc, section) {
            Ok(items) => {
                if items.is_empty() || items.len() > max {
                    errs.push(format!("{section}: {} metrics; the contract allows 1 to {max}", items.len()));
                }
                check_metrics(items, section, catalogue, bounded, &mut errs);
            }
            Err(e) => errs.push(e),
        }
    }
    if text_json.len() > 64 * 1024 {
        errs.push("BENCHMARK.json is larger than 64 KiB".into());
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_accepts_and_rejects() {
        for ok in ["fish-uniform", "op_ms_p50", "spatial.kdtree.range_ns_per_hit", "a", "9lives", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "-lead", ".lead", "_lead", "has space", "slash/name", "ünï", "tab\t", "q?", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn unit_validator_accepts_and_rejects() {
        for ok in ["ms", "s", "1/s", "count", "%", "agent-ticks/s", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "agent ticks", "µs", "seventeen-chars-x", "a*b"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    fn manifest(end_to_end: &str) -> String {
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|d| format!("{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}", d.name, d.unit, d.better))
            .collect();
        let workloads: Vec<String> =
            WORKLOADS.iter().map(|w| format!("{{\"name\":\"{}\",\"why\":\"because\"}}", w.name)).collect();
        format!(
            "{{\"command\":[\"cargo\"],\"paths\":[\"perfbench\"],\"run_seconds\":20,\"workloads\":[{}],\
             \"end_to_end\":[{end_to_end}],\"per_layer\":[{}]}}",
            workloads.join(","),
            per_layer.join(",")
        )
    }

    fn e2e(skip: Option<&str>, bound: f64) -> String {
        END_TO_END
            .iter()
            .filter(|d| Some(d.name) != skip)
            .map(|d| {
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{bound}}}",
                    d.name, d.unit, d.better
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn a_manifest_built_from_the_catalogue_passes() {
        assert_eq!(check(&manifest(&e2e(None, 0.1))), Vec::<String>::new());
    }

    #[test]
    fn missing_extra_and_overbound_metrics_are_reported() {
        let errs = check(&manifest(&e2e(Some("op_ms_p50"), 0.1)));
        assert!(errs.iter().any(|e| e.contains("`op_ms_p50` is printed by the binary but missing")), "{errs:?}");
        let extra = format!(
            "{},{{\"name\":\"latency_ms\",\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.1}}",
            e2e(None, 0.1)
        );
        let errs = check(&manifest(&extra));
        assert!(errs.iter().any(|e| e.contains("`latency_ms`: the binary prints no such metric")), "{errs:?}");
        let errs = check(&manifest(&e2e(None, 0.3)));
        assert!(errs.iter().any(|e| e.contains("`bound` must be a number in (0, 0.25]")), "{errs:?}");
        assert!(!check("{").is_empty());
    }
}
