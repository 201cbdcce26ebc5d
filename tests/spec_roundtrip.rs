//! Property fuzz of the scenario-spec parser, black-box:
//!
//! * arbitrary byte soup, JSON-flavoured punctuation soup, and
//!   mutations of *valid* specs must always come back as a typed
//!   [`SpecError`] or a well-formed `Scenario` — never a panic;
//! * arbitrary `Value` trees over the schema's real keys (plus
//!   garbage) go through `scenario_from_value` without panicking, and
//!   anything accepted must re-emit and re-parse to the same scenario;
//! * every registered preset survives `Scenario → spec → Scenario`
//!   identically in both JSON and TOML.

use dynaquar::core::spec::{
    emit_json, parse_json, parse_toml, presets, scenario_from_json, scenario_from_toml,
    scenario_from_value, scenario_to_json, scenario_to_toml, scenario_to_value, SpecError, Value,
};
use proptest::prelude::*;

/// Deterministically folds a flat seed list into an arbitrary `Value`
/// tree, mixing the schema's real field names with garbage keys so the
/// fuzz reaches both deep validation and the unknown-field paths.
fn value_from_seeds(seeds: &[u64], pos: &mut usize, depth: usize) -> Value {
    const KEYS: &[&str] = &[
        "topology", "kind", "leaves", "nodes", "edges_per_node", "seed", "backbone", "subnets",
        "hosts_per_subnet", "worm", "selector", "scans_per_tick", "self_patch_after", "beta",
        "horizon", "initial_infected", "deployment", "hosts", "params", "link_base_cap",
        "hub_forward_cap", "backbone_node_cap", "host_window_ticks", "host_max_new_targets",
        "host_release_period_ticks", "immunization", "at_tick", "at_infected_fraction", "mu",
        "quarantine", "queue_threshold", "runs", "parallelism", "routing", "lazy", "strategy",
        "shards", "checkpoint", "every_ticks", "directory", "zzz_garbage", "",
    ];
    const STRS: &[&str] = &[
        "star", "power_law", "subnets", "random", "sequential", "auto", "dense", "lazy", "hier",
        "tick", "event", "none", "hub", "moebius", "", "ckpts",
    ];
    fn next(seeds: &[u64], pos: &mut usize) -> u64 {
        let v = seeds.get(*pos).copied().unwrap_or(0);
        *pos += 1;
        v
    }
    let pick = next(seeds, pos);
    match if depth == 0 { pick % 5 } else { pick % 7 } {
        0 => Value::Int(next(seeds, pos) as i64 % 1000 - 100),
        1 => Value::Float((next(seeds, pos) as f64 / 7.0) % 10.0 - 2.0),
        2 => Value::Str(STRS[next(seeds, pos) as usize % STRS.len()].to_string()),
        3 => Value::Bool(next(seeds, pos).is_multiple_of(2)),
        4 => Value::Null,
        5 => {
            let n = (next(seeds, pos) % 4) as usize;
            Value::Array(
                (0..n)
                    .map(|_| value_from_seeds(seeds, pos, depth - 1))
                    .collect(),
            )
        }
        _ => {
            let n = (next(seeds, pos) % 5) as usize;
            Value::Object(
                (0..n)
                    .map(|_| {
                        let key = KEYS[next(seeds, pos) as usize % KEYS.len()].to_string();
                        (key, value_from_seeds(seeds, pos, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw byte soup: the parsers must return, not panic, and a parse
    /// failure must be the typed `Parse` variant.
    #[test]
    fn byte_soup_never_panics_the_parsers(bytes in prop::collection::vec(0u8..=255, 0..160)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        for outcome in [scenario_from_json(&text), scenario_from_toml(&text)] {
            if let Err(e) = outcome {
                // Any variant is fine; it must format without panicking.
                let _ = e.to_string();
            }
        }
    }

    /// JSON-flavoured punctuation soup reaches much deeper into the
    /// tokenizer than raw bytes; same contract.
    #[test]
    fn punctuation_soup_never_panics_the_parsers(
        picks in prop::collection::vec(0usize..48, 0..200),
    ) {
        const POOL: &[u8] = br#"{}[]",:0123456789.eE+-truefalsn l	 ""#;
        let text: String = picks
            .iter()
            .map(|&i| POOL[i % POOL.len()] as char)
            .collect();
        for outcome in [scenario_from_json(&text), scenario_from_toml(&text)] {
            if let Err(e) = outcome {
                let _ = e.to_string();
            }
        }
    }

    /// Mutations of a valid spec: truncate anywhere, flip one byte.
    /// Either the result is a typed error or the mutation was benign —
    /// in which case the accepted scenario must round-trip.
    #[test]
    fn mutated_valid_specs_yield_typed_errors_or_benign_scenarios(
        which in 0usize..17,
        cut in 0usize..4096,
        flip in 0usize..4096,
        bit in 0u8..8,
    ) {
        let all = presets();
        let preset = &all[which % all.len()];
        let json = scenario_to_json(&preset.scenario).unwrap();
        let mut mutated = json.into_bytes();
        let flip = flip % mutated.len();
        mutated[flip] ^= 1 << bit;
        mutated.truncate(cut % (mutated.len() + 1));
        let text = String::from_utf8_lossy(&mutated).into_owned();
        match scenario_from_json(&text) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(scenario) => {
                // Benign mutation: the survivor must still round-trip.
                let reparsed = scenario_from_json(&scenario_to_json(&scenario).unwrap()).unwrap();
                prop_assert_eq!(scenario, reparsed);
            }
        }
    }

    /// Arbitrary `Value` trees over real + garbage keys: validation
    /// must return, and whatever it accepts must re-emit and re-parse
    /// to the same scenario in both formats.
    #[test]
    fn arbitrary_value_trees_validate_or_error_and_survivors_round_trip(
        seeds in prop::collection::vec(0u64..1_000_000, 4..64),
    ) {
        let mut pos = 0;
        let root = value_from_seeds(&seeds, &mut pos, 3);
        match scenario_from_value(&root) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(scenario) => {
                let emitted = scenario_to_value(&scenario).unwrap();
                let json_back = scenario_from_json(&emit_json(&emitted)).unwrap();
                prop_assert_eq!(&scenario, &json_back);
                let toml_back = scenario_from_toml(&scenario_to_toml(&scenario).unwrap()).unwrap();
                prop_assert_eq!(&scenario, &toml_back);
            }
        }
    }
}

#[test]
fn every_registered_preset_round_trips_identically_in_both_formats() {
    let all = presets();
    assert!(!all.is_empty());
    for preset in &all {
        let json = scenario_to_json(&preset.scenario).unwrap();
        let from_json = scenario_from_json(&json)
            .unwrap_or_else(|e| panic!("{}: JSON round-trip rejected: {e}", preset.id));
        assert_eq!(from_json, preset.scenario, "{}: JSON round-trip drifted", preset.id);

        let toml = scenario_to_toml(&preset.scenario).unwrap();
        let from_toml = scenario_from_toml(&toml)
            .unwrap_or_else(|e| panic!("{}: TOML round-trip rejected: {e}", preset.id));
        assert_eq!(from_toml, preset.scenario, "{}: TOML round-trip drifted", preset.id);
    }
}

#[test]
fn malformed_documents_name_their_format_in_the_parse_error() {
    match parse_json("{\"a\": ") {
        Err(SpecError::Parse { format, .. }) => assert_eq!(format!("{format:?}"), "Json"),
        other => panic!("expected a JSON parse error, got {other:?}"),
    }
    match parse_toml("[unclosed\nx = 1") {
        Err(SpecError::Parse { format, .. }) => assert_eq!(format!("{format:?}"), "Toml"),
        other => panic!("expected a TOML parse error, got {other:?}"),
    }
    // A parsed-but-invalid document is a typed schema error, not a
    // panic and not a parse error.
    match scenario_from_value(&Value::Int(3)) {
        Err(e) => assert!(!matches!(e, SpecError::Parse { .. })),
        Ok(_) => panic!("a bare integer is not a spec"),
    }
}
