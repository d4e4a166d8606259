//! Property tests: the pipeline's parallel normalize (parlay sort +
//! last-write-wins dedup) must agree with a boring sequential replay,
//! and a version must live exactly as long as somebody holds it.

use pam::{AugMap, SumAug};
use pam_store::op::normalize;
use pam_store::{ShardedConfig, Store, WriteOp};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

type S = SumAug<u64, u64>;

/// A volatile store that commits at once: a snapshot's map is the whole
/// store.
fn volatile_store() -> Store<S> {
    Store::volatile(
        ShardedConfig::builder()
            .batch_window(Duration::ZERO)
            .build(),
    )
}

/// Put/Delete over a deliberately small key space so batches collide.
fn op_strategy() -> impl Strategy<Value = WriteOp<S>> {
    prop_oneof![
        (0u64..64, 0u64..1_000_000).prop_map(|(k, v)| WriteOp::Put(k, v)),
        (0u64..64).prop_map(WriteOp::Delete),
    ]
}

/// One step of the version-lifetime model: commit one operation as a
/// new version, pin the head, clone the i-th held pin, or drop it.
#[derive(Clone)]
enum Step {
    Publish(WriteOp<S>),
    Pin,
    ClonePin(usize),
    DropPin(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        op_strategy().prop_map(Step::Publish),
        Just(Step::Pin),
        (0usize..64).prop_map(Step::ClonePin),
        (0usize..64).prop_map(Step::DropPin),
    ]
}

fn apply_sequentially(oracle: &mut BTreeMap<u64, u64>, ops: &[WriteOp<S>]) {
    for op in ops {
        match op {
            WriteOp::Put(k, v) => {
                oracle.insert(*k, *v);
            }
            WriteOp::Delete(k) => {
                oracle.remove(k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // One epoch: normalize + one multi_insert/multi_delete must land on
    // the same state as replaying the raw operations one by one.
    #[test]
    fn normalize_matches_sequential_replay(
        base in collection::vec((0u64..64, 0u64..1_000_000), 0..40),
        ops in collection::vec(op_strategy(), 0..400),
    ) {
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        apply_sequentially(
            &mut oracle,
            &base.iter().map(|&(k, v)| WriteOp::Put(k, v)).collect::<Vec<_>>(),
        );
        apply_sequentially(&mut oracle, &ops);

        let mut map: AugMap<S> = AugMap::build(base);
        let tagged: Vec<(u64, WriteOp<S>)> =
            ops.into_iter().enumerate().map(|(i, op)| (i as u64, op)).collect();
        let batch = normalize::<S>(tagged);
        // normalized halves are disjoint, so application order is free
        if !batch.deletes.is_empty() {
            map.multi_delete(batch.deletes);
        }
        if !batch.puts.is_empty() {
            map.multi_insert(batch.puts);
        }

        prop_assert_eq!(map.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    // Many epochs through the real store (arbitrary batch boundaries)
    // must equal the same sequential replay.
    #[test]
    fn store_matches_sequential_replay_across_epochs(
        ops in collection::vec(op_strategy(), 0..300),
        cuts in collection::vec(1usize..24, 1..24),
    ) {
        let store = volatile_store();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        apply_sequentially(&mut oracle, &ops);

        let mut rest = ops.as_slice();
        let mut cut_iter = cuts.iter().cycle();
        while !rest.is_empty() {
            let n = (*cut_iter.next().unwrap()).min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            store.write_batch(chunk.to_vec());
            rest = tail;
        }
        store.flush();

        let snap = store.snapshot();
        prop_assert_eq!(snap.map().to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    // The registry has no retention policy beside the reference counts:
    // against a model that knows, per version id, how many pins hold it,
    // the live-version count, the retired count, every pin's contents
    // and the bytes all held versions reach together must agree after
    // every step.
    #[test]
    fn a_version_lives_exactly_as_long_as_somebody_holds_it(
        steps in collection::vec(step_strategy(), 0..120),
    ) {
        // Version 1 is a few hundred leaves, the operations land all over
        // it: consecutive versions share most of their nodes.
        let seed: Vec<(u64, u64)> = (0..4096u64).map(|k| (k, k)).collect();
        let store = volatile_store();
        prop_assert_eq!(store.put_all(seed.clone()).wait(), 1);
        // The model: the head's map (its own lineage, built with the tree
        // operations the committer uses) and, per held version, the number
        // of holders and that version's map.
        let (mut head_id, mut head_map) = (1u64, AugMap::<S>::new());
        head_map.multi_insert(seed);
        let mut held: BTreeMap<u64, (usize, AugMap<S>)> = BTreeMap::new();
        let mut pins = Vec::new();

        for step in steps {
            match step {
                Step::Publish(op) => {
                    // keys 0..64 spread over the seed's 4096
                    let op = match op {
                        WriteOp::Put(k, v) => {
                            head_map.multi_insert(vec![(k * 64, v)]);
                            WriteOp::Put(k * 64, v)
                        }
                        WriteOp::Delete(k) => {
                            head_map.multi_delete(vec![k * 64]);
                            WriteOp::Delete(k * 64)
                        }
                    };
                    head_id += 1;
                    prop_assert_eq!(store.write_batch(vec![op]).wait(), head_id);
                }
                Step::Pin => {
                    pins.push(store.snapshot());
                    held.entry(head_id).or_insert((0, head_map.clone())).0 += 1;
                }
                Step::ClonePin(i) if !pins.is_empty() => {
                    let pin = pins[i % pins.len()].clone();
                    held.get_mut(&pin.version()).expect("a held pin is in the model").0 += 1;
                    pins.push(pin);
                }
                Step::DropPin(i) if !pins.is_empty() => {
                    let pin = pins.swap_remove(i % pins.len());
                    let holders = &mut held.get_mut(&pin.version()).expect("held").0;
                    *holders -= 1;
                    if *holders == 0 {
                        held.remove(&pin.version());
                    }
                }
                Step::ClonePin(_) | Step::DropPin(_) => {}
            }

            let stats = store.stats();
            let live = held.len() + usize::from(!held.contains_key(&head_id));
            prop_assert_eq!(stats.head_version, head_id);
            prop_assert_eq!(stats.live_versions, live);
            prop_assert_eq!(stats.retired_versions + live as u64, head_id + 1);
            for pin in &pins {
                let model = &held[&pin.version()].1;
                prop_assert_eq!(
                    (pin.map().len(), pin.map().aug_val()),
                    (model.len(), model.aug_val())
                );
            }
            let head = store.snapshot();
            let store_roots: Vec<_> = pins
                .iter()
                .map(|p| p.map().root())
                .chain([head.map().root()])
                .collect();
            let model_roots: Vec<_> = held
                .values()
                .map(|(_, m)| m.root())
                .chain([head_map.root()])
                .collect();
            prop_assert_eq!(
                pam::stats::reachable_bytes(&store_roots),
                pam::stats::reachable_bytes(&model_roots)
            );
        }
        for pin in &pins {
            prop_assert_eq!(pin.map().to_vec(), held[&pin.version()].1.to_vec());
        }
    }
}
