//! Every type has one `Deserialize`, run two ways: `serde_json::from_str`
//! drives it straight over the text, `from_value` drives it over a parsed
//! `Value` tree. On valid documents and on randomly mutated ones (cut,
//! spliced, retyped, duplicated keys, truncated) the two must agree: the
//! same `Ok` value, or both an error — and neither may panic.

use dbp_cloudsim::{
    FaultConfig, FaultPlan, GamingSystem, Granularity, ResilientSystem, ServerType,
};
use dbp_cluster::ShardFaultPlan;
use dbp_core::algorithms::FirstFit;
use dbp_core::demand::VSize;
use dbp_core::engine::simulate;
use dbp_core::instance::{GInstance, Instance, InstanceBuilder};
use dbp_core::item::{GItem, ItemId, RegionId};
use dbp_core::probe::GProbeEvent;
use dbp_core::time::Tick;
use dbp_core::trace::PackingTrace;
use dbp_obs::manifest::RunManifest;
use dbp_obs::EventLog;
use dbp_serve::protocol::WireMsg;
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Value};
use std::fmt::Debug;
use std::time::Duration;

fn instance(seed: u64, n: usize) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(100);
    for _ in 0..n {
        let a = rng.random_range(0..200u64);
        b.add(
            a,
            a + rng.random_range(1..80u64),
            rng.random_range(1..=100u64),
        );
    }
    b.build().unwrap()
}

fn vector_instance(seed: u64) -> GInstance<VSize<3>> {
    let scalar = instance(seed, 12);
    let items = scalar
        .items()
        .iter()
        .map(|it| GItem {
            id: it.id,
            arrival: it.arrival,
            departure: it.departure,
            size: VSize([
                it.size.raw(),
                1 + it.size.raw() / 2,
                100 - it.size.raw() / 3,
            ]),
            region: RegionId::GLOBAL,
        })
        .collect();
    GInstance::new(VSize([100, 100, 100]), items).unwrap()
}

/// A valid document, paired with the check that runs both paths on any
/// text of its type.
type Doc = (String, fn(&str) -> bool);

/// One valid document per type under test.
fn corpus(seed: u64) -> Vec<Doc> {
    let inst = instance(seed, 10);
    let trace = simulate(&inst, &mut FirstFit::new());
    let manifest = RunManifest::capture("FF", Some(seed), &inst, Duration::from_millis(3));
    let shard_plan = ShardFaultPlan::generate(seed, 3, 40, 2);
    let plan = FaultPlan::generate(
        seed,
        300,
        8,
        &FaultConfig {
            crash_rate_per_hour: 600.0,
            boot_fail_prob: 0.3,
            boot_delay_max: 5,
            reject_prob: 0.2,
        },
    );
    let system = GamingSystem {
        server: ServerType {
            gpu_capacity: 100,
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    };
    let mut log = EventLog::new();
    ResilientSystem::new(system, plan)
        .run_probed(&inst, &mut FirstFit::new(), &mut log)
        .unwrap();
    let mut docs: Vec<Doc> = vec![
        (to_json(&inst), check::<Instance>),
        (
            to_json(&vector_instance(seed)),
            check::<GInstance<VSize<3>>>,
        ),
        (to_json(&trace), check::<PackingTrace>),
        (to_json(&manifest), check::<RunManifest>),
        (to_json(&shard_plan), check::<ShardFaultPlan>),
    ];
    for ev in log.events().iter().take(40) {
        docs.push((to_json(ev), check::<GProbeEvent<dbp_core::item::Size>>));
    }
    let wire = [
        r#"{"op":"arrive","id":1,"at":1,"size":5}"#,
        r#"{"op":"arrive","id":2,"at":3,"demand":[50,40,120]}"#,
        r#"{"at":9,"id":3,"op":"depart","extra":{"k":[1,2,{}]}}"#,
        r#"{"op":"ping","id":0}"#,
    ];
    for line in wire {
        docs.push((line.to_string(), check::<WireMsg>));
    }
    docs
}

fn to_json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// Both paths on `text`: equal `Ok` values or both errors. Returns whether
/// the text was accepted.
fn check<T: Deserialize + Debug + PartialEq>(text: &str) -> bool {
    let direct = serde_json::from_str::<T>(text);
    let via_tree = serde_json::from_str::<Value>(text).map(|v| T::from_value(&v));
    match (direct, via_tree) {
        (Ok(a), Ok(Ok(b))) => {
            assert_eq!(a, b, "paths disagree on {text}");
            true
        }
        (Err(_), Err(_)) | (Err(_), Ok(Err(_))) => false,
        (Ok(a), _) => panic!("only the direct path accepted {text}: {a:?}"),
        (Err(e), Ok(Ok(b))) => panic!("only the tree path accepted {text}: {b:?} ({e})"),
    }
}

/// Apply one random edit to a document.
fn mutate(doc: &str, rng: &mut rand::rngs::StdRng) -> String {
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '0', '1', '9', '-', '.', 'e', ' ', 'n', 't', '\\',
    ];
    let mut chars: Vec<char> = doc.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let at = rng.random_range(0..chars.len());
    match rng.random_range(0..7u32) {
        0 => {
            let end = (at + rng.random_range(1..8usize)).min(chars.len());
            chars.drain(at..end);
        }
        1 => chars.insert(at, ALPHABET[rng.random_range(0..ALPHABET.len())]),
        2 => chars[at] = ALPHABET[rng.random_range(0..ALPHABET.len())],
        3 => chars.truncate(at),
        4 => {
            // Splice a copy of a random slice elsewhere: duplicated keys,
            // repeated elements, unbalanced brackets.
            let from = rng.random_range(0..chars.len());
            let to = (from + rng.random_range(1..24usize)).min(chars.len());
            let piece: Vec<char> = chars[from..to].to_vec();
            chars.splice(at..at, piece);
        }
        5 => {
            // Retype a number as a string or a float.
            let text: String = chars.iter().collect();
            let swapped = if rng.random_bool(0.5) {
                text.replacen(":1", ":\"1\"", 1)
            } else {
                text.replacen(":1", ":1.5", 1)
            };
            chars = swapped.chars().collect();
        }
        _ => {
            // Duplicate the first key of the document with another value.
            let text: String = chars.iter().collect();
            if let Some(open) = text.find('{') {
                if let Some(colon) = text[open..].find(':') {
                    let key = &text[open + 1..open + colon];
                    let dup = format!("{{{key}:0,{}", &text[open + 1..]);
                    chars = format!("{}{dup}", &text[..open]).chars().collect();
                }
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn valid_documents_read_the_same_both_ways() {
    for seed in 0..8 {
        for (doc, check) in corpus(seed) {
            assert!(check(&doc), "valid document rejected: {doc}");
        }
    }
}

#[test]
fn duplicate_keys_keep_the_first_and_unknown_keys_are_skipped() {
    let msg: WireMsg =
        serde_json::from_str(r#"{"id":4,"zz":[1,{"a":null}],"op":"ping","id":5}"#).unwrap();
    assert_eq!((msg.op.as_str(), msg.id, msg.at), ("ping", 4, 0));
    let tree: Value = serde_json::from_str(r#"{"op":"ping","id":4,"id":5}"#).unwrap();
    assert_eq!(WireMsg::from_value(&tree).unwrap().id, 4);
    let inst: Instance = serde_json::from_str(
        r#"{"items":[{"size":3,"region":0,"departure":2,"arrival":1,"id":0}],"capacity":5}"#,
    )
    .unwrap();
    assert_eq!(inst.item(ItemId(0)).departure, Tick(2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_documents_read_the_same_both_ways(seed in 0u64..100_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (doc, check) in corpus(seed % 5) {
            let mut text = doc;
            for _ in 0..rng.random_range(1..4u32) {
                text = mutate(&text, &mut rng);
            }
            check(&text);
        }
    }
}
