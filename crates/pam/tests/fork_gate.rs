//! The fork decision of `multi_insert` / `multi_delete` /
//! `multi_update` follows the batch, not the map: a few keys into a large shared map never leave
//! the calling thread, a batch as large as the map still forks. Likewise
//! `aug_filter` forks on what survives its prune test, not on size, and
//! `filter`, which shares its recursion and prunes nothing, still forks.
//!
//! `rayon::forks_spawned()` (shim-only) is process-wide, so this file
//! holds exactly one test: nothing else may fork while it counts.

use pam::{AugMap, SumAug};

type M = AugMap<SumAug<u64, u64>>;

const N: u64 = 200_000;

#[test]
fn small_batches_stay_on_the_calling_thread_and_bulk_batches_fork() {
    let base = M::from_sorted_distinct(&(0..N).map(|i| (i * 2, i)).collect::<Vec<_>>());
    let base_sum = base.aug_val();

    for m in [1u64, 3, 16] {
        // odd keys are absent, even keys present; an even stride spreads
        // the batch over the map so it splits at the root
        let step = (N * 2 / m) & !1;
        let absent: Vec<(u64, u64)> = (0..m).map(|i| (i * step + 1, 7)).collect();
        let present: Vec<u64> = (0..m).map(|i| i * step).collect();

        let before = rayon::forks_spawned();
        // `base` stays alive, so every touched path is copied, as under
        // a pinned store version
        let mut inserted = base.clone();
        inserted.multi_insert(absent.clone());
        let mut deleted = base.clone();
        deleted.multi_delete(present.clone());
        // a mixed batch: the absent keys put, the present ones deleted
        let mixed: Vec<(u64, Option<u64>)> = absent
            .iter()
            .map(|&(k, v)| (k, Some(v)))
            .chain(present.iter().map(|&k| (k, None)))
            .collect();
        let mut updated = base.clone();
        updated.multi_update(mixed);
        assert_eq!(
            rayon::forks_spawned(),
            before,
            "a {m}-key batch into {N} entries spawned a thread"
        );

        assert_eq!(inserted.len() as u64, N + m);
        assert_eq!(inserted.aug_val(), base_sum + 7 * m);
        assert!(absent.iter().all(|(k, v)| inserted.get(k) == Some(v)));
        inserted.check_invariants().unwrap();
        assert_eq!(deleted.len() as u64, N - m);
        assert!(present.iter().all(|k| !deleted.contains_key(k)));
        deleted.check_invariants().unwrap();
        assert_eq!(updated.len() as u64, N);
        assert_eq!(updated.aug_val(), deleted.aug_val() + 7 * m);
        assert!(absent.iter().all(|(k, v)| updated.get(k) == Some(v)));
        assert!(present.iter().all(|k| !updated.contains_key(k)));
        updated.check_invariants().unwrap();
    }
    assert_eq!((base.len() as u64, base.aug_val()), (N, base_sum));

    // n ≈ m: every level above the grain has ≥ 64 keys on both sides
    let before = rayon::forks_spawned();
    let mut bulk = base.clone();
    bulk.multi_insert((0..N).map(|i| (i * 2 + 1, 1)).collect());
    let after_insert = rayon::forks_spawned();
    bulk.multi_delete((0..N).map(|i| i * 2).collect());
    let after_delete = rayon::forks_spawned();
    assert_eq!(bulk.len() as u64, N);
    assert_eq!(bulk.aug_val(), N);
    bulk.check_invariants().unwrap();
    // and a mixed one: every odd key deleted, every even key put back
    let mut mixed = bulk.clone();
    mixed.multi_update((0..2 * N).map(|k| (k, (k % 2 == 0).then_some(2))).collect());
    let after_update = rayon::forks_spawned();
    assert_eq!(mixed.len() as u64, N);
    assert_eq!(mixed.aug_val(), 2 * N);
    assert!(mixed.contains_key(&0) && !mixed.contains_key(&1));
    mixed.check_invariants().unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        assert!(
            after_insert > before,
            "a {N}-key multi_insert forked nothing on {cores} cores"
        );
        assert!(
            after_delete > after_insert,
            "a {N}-key multi_delete forked nothing on {cores} cores"
        );
        assert!(
            after_update > after_delete,
            "a {}-key multi_update forked nothing on {cores} cores",
            2 * N
        );
    }

    // aug_filter: one hot entry in N — at every level one child is pruned
    // by its aug, so nothing is worth offering to the pool
    assert!(N as usize > parlay::granularity());
    let hot = N / 3;
    let sparse =
        M::from_sorted_distinct(&(0..N).map(|i| (i, u64::from(i == hot))).collect::<Vec<_>>());
    let before = rayon::forks_spawned();
    let kept = sparse.aug_filter(|&sum| sum > 0);
    assert_eq!(
        rayon::forks_spawned(),
        before,
        "a pruning aug_filter over {N} entries forked"
    );
    assert_eq!(kept.to_vec(), vec![(hot, 1)]);
    // nothing pruned: both children survive at every level
    let before = rayon::forks_spawned();
    let all = sparse.aug_filter(|_| true);
    assert_eq!(all.len() as u64, N);
    if cores > 1 {
        assert!(
            rayon::forks_spawned() > before,
            "a keep-everything aug_filter over {N} entries forked nothing on {cores} cores"
        );
    }

    // filter: 2^16 entries down to half forks; a 3-entry map does not
    let evens = 1u64 << 16;
    let dense = M::from_sorted_distinct(&(0..evens).map(|i| (i, i)).collect::<Vec<_>>());
    let tiny = M::from_sorted_distinct(&[(1, 1), (2, 2), (3, 3)]);
    let before = rayon::forks_spawned();
    let small = tiny.filter(|&k, _| k != 2);
    assert_eq!(
        rayon::forks_spawned(),
        before,
        "a 3-entry filter spawned a thread"
    );
    assert_eq!(small.to_vec(), vec![(1, 1), (3, 3)]);
    let half = dense.filter(|&k, _| k % 2 == 0);
    assert_eq!(half.len() as u64, evens / 2);
    assert_eq!(
        half.aug_val(),
        (0..evens).filter(|k| k % 2 == 0).sum::<u64>()
    );
    half.check_invariants().unwrap();
    if cores > 1 {
        assert!(
            rayon::forks_spawned() > before,
            "filtering {evens} entries down to half forked nothing on {cores} cores"
        );
    }
}
