//! The metric dictionary: every metric the benchmark prints, with its
//! unit, direction, regression bound, layer, the public call or stats
//! field it is read from, and the end-to-end metric it is expected to
//! move. `BENCHMARK.json` and the README table are checked against this
//! file by a unit test, so the three cannot drift apart.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's dictionary entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Printed name; per-layer names are `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// the ungated per-layer metrics.
    pub bound: Option<f64>,
    /// The phase (scenario) of a run that measures it.
    pub phase: &'static str,
    /// The public call or stats field the value is read from.
    pub source: &'static str,
    /// For per-layer metrics: the end-to-end metric it should move.
    pub moves: &'static str,
}

impl MetricDef {
    /// `raw` expressed at nominal machine speed: a time is multiplied by
    /// `factor`, a rate divided by it, a size or count left alone.
    pub fn at_nominal_speed(&self, raw: f64, factor: f64) -> f64 {
        match (self.unit, self.better) {
            ("B" | "count" | "share" | "x" | "1/entry" | "1/kop", _) => raw,
            (_, Better::Lower) => raw * factor,
            (_, Better::Higher) => raw / factor,
        }
    }

    /// The layer a metric belongs to: the prefix before the first `.`
    /// for per-layer metrics, `end-to-end` otherwise.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) if self.bound.is_none() => layer,
            _ => "end-to-end",
        }
    }
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    phase: &'static str,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        phase,
        source,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    phase: &'static str,
    source: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        phase,
        source,
        moves,
    }
}

/// The 16 gated end-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, "all",
        "sum over phases of the median of 3 set-ups: operand builds, app builds, store preload + checkpoint + reopen, pam-serve spawn + connect"),
    e2e("build_mkeys_s", "Mkeys/s", Higher, 0.25, "tree-bulk",
        "input pairs / typical AugMap::build, P = nproc (typical = lower quartile of the rounds)"),
    e2e("union_mkeys_s", "Mkeys/s", Higher, 0.25, "tree-bulk",
        "keys of both operands / typical AugMap::union of two built maps, P = nproc"),
    e2e("multi_insert_mkeys_s", "Mkeys/s", Higher, 0.25, "tree-bulk",
        "batch pairs / typical AugMap::multi_insert of an unsorted batch as large as the map, P = nproc"),
    e2e("find_mops_s", "Mops/s", Higher, 0.25, "tree-read",
        "probes / typical time of a single-thread AugMap::get loop on the 4M-entry map"),
    e2e("aug_range_mops_s", "Mops/s", Higher, 0.25, "tree-read",
        "windows / typical time of a single-thread AugMap::aug_range loop on the 4M-entry map"),
    e2e("scan_mkeys_s", "Mkeys/s", Higher, 0.25, "tree-read",
        "entries / typical full AugMap::cursor scan of the 4M-entry map"),
    e2e("mem_bytes_per_entry", "B", Lower, 0.01, "tree-read",
        "pam::stats::reachable_bytes / len of the 4M-entry map"),
    e2e("app_query_s", "s", Lower, 0.25, "apps",
        "sum over pam-interval, pam-rangetree, pam-index of the typical time of its fixed query set"),
    e2e("req_kops_s", "kops/s", Higher, 0.25, "serve-mixed",
        "requests per second at the typical round pace, 2 closed-loop connections to the real pam-serve"),
    e2e("get_p50_us", "us", Lower, 0.25, "serve-read",
        "median client-side round trip of Request::Get"),
    e2e("put_ack_p50_us", "us", Lower, 0.25, "serve-mixed",
        "median client-side round trip of Request::Put (submit to group-commit ack)"),
    e2e("batch_ack_p50_us", "us", Lower, 0.25, "serve-mixed",
        "median client-side round trip of a 16-key cross-shard Request::Batch"),
    e2e("scan_p50_us", "us", Lower, 0.25, "serve-read",
        "median client-side round trip of Request::Scan, limit 1000"),
    e2e("recover_s", "s", Lower, 0.25, "store-commit",
        "typical DurableShardedStore::open wall, one reopen of the closed directory (checkpoint + fixed WAL tail) per round"),
    e2e("disk_bytes_per_entry", "B", Lower, 0.01, "store-commit",
        "bytes of the newest ckpt-*.ckpt of every shard / store len"),
];

/// The ungated per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // -- parlay -----------------------------------------------------------
    layer("parlay.sort_ns_per_key", "ns", Lower, "tree-bulk",
        "parlay::par_sort_by on the build input, P = nproc", "build_mkeys_s"),
    layer("parlay.build_speedup", "x", Higher, "tree-bulk",
        "T1 / Tp of AugMap::build (parlay::with_threads(1) vs nproc)", "build_mkeys_s"),
    // -- pam --------------------------------------------------------------
    layer("pam.build_t1_ns_per_key", "ns", Lower, "tree-bulk",
        "AugMap::build under parlay::with_threads(1)", "build_mkeys_s"),
    layer("pam.union_t1_ns_per_key", "ns", Lower, "tree-bulk",
        "AugMap::union under with_threads(1)", "union_mkeys_s"),
    layer("pam.multi_insert_t1_ns_per_key", "ns", Lower, "tree-bulk",
        "AugMap::multi_insert under with_threads(1)", "multi_insert_mkeys_s"),
    layer("pam.build_sorted_ns_per_key", "ns", Lower, "tree-bulk",
        "AugMap::from_sorted_distinct", "recover_s"),
    layer("pam.union_small_us", "us", Lower, "tree-bulk",
        "AugMap::union with a map 1000x smaller", "union_mkeys_s"),
    layer("pam.intersect_ns_per_key", "ns", Lower, "tree-bulk",
        "AugMap::intersect_with, per key of both operands", "union_mkeys_s"),
    layer("pam.difference_ns_per_key", "ns", Lower, "tree-bulk",
        "AugMap::difference, per key of both operands", "union_mkeys_s"),
    layer("pam.multi_insert_small_us", "us", Lower, "tree-bulk",
        "AugMap::multi_insert of a batch 1000x smaller than the map", "put_ack_p50_us"),
    layer("pam.insert_ns", "ns", Lower, "tree-bulk",
        "AugMap::insert into a shared (snapshotted) map", "put_ack_p50_us"),
    layer("pam.copied_bytes_per_insert", "B", Lower, "tree-bulk",
        "pam::stats::shared_with: nodes not shared with the pre-insert version x node + block size", "put_ack_p50_us"),
    layer("pam.multi_delete_ns_per_key", "ns", Lower, "tree-bulk",
        "AugMap::multi_delete of half the keys", "multi_insert_mkeys_s"),
    layer("pam.find_small_ns", "ns", Lower, "tree-read",
        "AugMap::get on a 100k-entry map that fits L2", "find_mops_s"),
    layer("pam.find_uniform_ns", "ns", Lower, "tree-read",
        "AugMap::get, uniform probes, 4M-entry map", "find_mops_s"),
    layer("pam.find_zipf_ns", "ns", Lower, "tree-read",
        "AugMap::get, zipf(0.99) probes, 4M-entry map", "find_mops_s"),
    layer("pam.aug_left_ns", "ns", Lower, "tree-read",
        "AugMap::aug_left", "aug_range_mops_s"),
    layer("pam.range_extract_us", "us", Lower, "tree-read",
        "AugMap::range over ~1000-entry windows", "scan_p50_us"),
    layer("pam.cursor_seek_ns", "ns", Lower, "tree-read",
        "AugMap::cursor_at + one advance", "scan_p50_us"),
    layer("pam.for_each_ns_per_entry", "ns", Lower, "tree-read",
        "AugMap::for_each over the whole map", "scan_mkeys_s"),
    layer("pam.height", "count", Lower, "tree-read",
        "longest root-to-leaf path via Node::children", "find_mops_s"),
    layer("pam.nodes_per_entry", "1/entry", Lower, "tree-read",
        "pam::stats::unique_nodes / len", "mem_bytes_per_entry"),
    layer("pam.leaf_fill", "share", Higher, "tree-read",
        "entries held in leaf blocks / (leaves x DEFAULT_LEAF_B)", "mem_bytes_per_entry"),
    // -- baselines --------------------------------------------------------
    layer("baselines.btreemap_find_ratio", "x", Lower, "tree-read",
        "pam get time / std BTreeMap::get time, same keys and probes", "find_mops_s"),
    layer("baselines.bplustree_find_ratio", "x", Lower, "tree-read",
        "pam get time / baselines::BPlusTree::get time on the 100k-entry map (the B+-tree is slow to fill)", "find_mops_s"),
    layer("baselines.btreemap_scan_ratio", "x", Lower, "tree-read",
        "pam cursor scan time / BTreeMap::iter time", "scan_mkeys_s"),
    layer("baselines.btreemap_build_ratio", "x", Lower, "tree-bulk",
        "pam build time / BTreeMap::from_iter time, same pairs", "build_mkeys_s"),
    // -- applications -------------------------------------------------------
    layer("pam-interval.build_s", "s", Lower, "apps",
        "IntervalMap::from_intervals", "setup_s"),
    layer("pam-interval.stab_ns", "ns", Lower, "apps",
        "IntervalMap::stab", "app_query_s"),
    layer("pam-interval.report_all_us", "us", Lower, "apps",
        "IntervalMap::report_all", "app_query_s"),
    layer("pam-rangetree.build_s", "s", Lower, "apps",
        "RangeTree::build", "setup_s"),
    layer("pam-rangetree.query_sum_us", "us", Lower, "apps",
        "RangeTree::query_sum", "app_query_s"),
    layer("pam-rangetree.query_points_us", "us", Lower, "apps",
        "RangeTree::query_points", "app_query_s"),
    layer("pam-rangetree.mem_bytes_per_point", "B", Lower, "apps",
        "reachable_bytes of the outer map and every distinct inner map / points", "mem_bytes_per_entry"),
    layer("pam-index.build_s", "s", Lower, "apps",
        "InvertedIndex::build", "setup_s"),
    layer("pam-index.and_query_us", "us", Lower, "apps",
        "InvertedIndex::and_query", "app_query_s"),
    layer("pam-index.or_query_us", "us", Lower, "apps",
        "InvertedIndex::or_query", "app_query_s"),
    layer("pam-index.top_k_us", "us", Lower, "apps",
        "pam_index::top_k(10) of an or_query result", "app_query_s"),
    // -- pam-store (in-process DurableShardedStore, no wire) -----------------
    layer("pam-store.req_kops_s", "kops/s", Higher, "store-commit",
        "acked ops / wall, 2 closed-loop writers", "req_kops_s"),
    layer("pam-store.put_ack_p50_us", "us", Lower, "store-commit",
        "StoreWrite::put to WriteTicket::wait_committed", "put_ack_p50_us"),
    layer("pam-store.put_ack_p99_us", "us", Lower, "store-commit",
        "same samples as put_ack_p50_us", "put_ack_p50_us"),
    layer("pam-store.batch_ack_p50_us", "us", Lower, "store-commit",
        "16-key cross-shard StoreWrite::write_batch to ack", "batch_ack_p50_us"),
    layer("pam-store.batch_ack_p99_us", "us", Lower, "store-commit",
        "same samples as batch_ack_p50_us", "batch_ack_p50_us"),
    layer("pam-store.commits_per_kop", "1/kop", Lower, "store-commit",
        "StoreStats.commits / raw_ops x 1000", "req_kops_s"),
    layer("pam-store.window_p50_us", "us", Lower, "store-commit",
        "StoreStats.commit_window.p50", "put_ack_p50_us"),
    layer("pam-store.normalize_us_per_commit", "us", Lower, "store-commit",
        "StoreStats.commit_normalize sum / count", "put_ack_p50_us"),
    layer("pam-store.wal_log_us_per_commit", "us", Lower, "store-commit",
        "StoreStats.commit_wal_log sum / count", "put_ack_p50_us"),
    layer("pam-store.apply_us_per_commit", "us", Lower, "store-commit",
        "StoreStats.commit_apply sum / count", "put_ack_p50_us"),
    layer("pam-store.publish_us_per_commit", "us", Lower, "store-commit",
        "StoreStats.commit_publish sum / count", "put_ack_p50_us"),
    layer("pam-store.commit_p50_us", "us", Lower, "store-commit",
        "StoreStats.commit.p50", "put_ack_p50_us"),
    layer("pam-store.commit_p99_us", "us", Lower, "store-commit",
        "StoreStats.commit.p99", "batch_ack_p50_us"),
    layer("pam-store.committer_busy_share", "share", Lower, "store-commit",
        "StoreStats.commit sum / (wall x shards)", "req_kops_s"),
    layer("pam-store.fence_wait_p99_us", "us", Lower, "store-commit",
        "StoreStats.fence_wait.p99", "batch_ack_p50_us"),
    layer("pam-store.xbatch_stamped_share", "share", Higher, "store-commit",
        "batches whose ticket carries a global_epoch / batches", "batch_ack_p50_us"),
    layer("pam-store.normalize_ns_per_op", "ns", Lower, "store-commit",
        "direct pam_store::op::normalize on 16k-op epochs", "put_ack_p50_us"),
    layer("pam-store.snapshot_us", "us", Lower, "store-commit",
        "StoreRead::snapshot (fence + barrier + flush), store idle", "scan_p50_us"),
    layer("pam-store.get_ns", "ns", Lower, "store-commit",
        "in-process StoreRead::get", "get_p50_us"),
    layer("pam-store.live_versions_max", "count", Lower, "store-commit",
        "max StoreStats.live_versions sampled every 20 ms", "mem_bytes_per_entry"),
    layer("pam-store.mem_bytes_per_entry", "B", Lower, "store-commit",
        "ShardedStore::memory_bytes / len after the run", "mem_bytes_per_entry"),
    // -- pam-wal ------------------------------------------------------------
    layer("pam-wal.append_us_per_record", "us", Lower, "store-commit",
        "DurabilityStats.wal_append sum / count", "put_ack_p50_us"),
    layer("pam-wal.bytes_per_op", "B", Lower, "store-commit",
        "DurabilityStats.wal_bytes / acked ops", "put_ack_p50_us"),
    layer("pam-wal.write_amp", "x", Lower, "store-commit",
        "(wal_bytes + checkpoint_bytes) / user key+value bytes", "req_kops_s"),
    layer("pam-wal.codec_encode_ns_per_op", "ns", Lower, "store-commit",
        "direct pam_wal::record::encode_epoch_body", "put_ack_p50_us"),
    layer("pam-wal.codec_decode_ns_per_op", "ns", Lower, "store-commit",
        "direct pam_wal::record::decode_epoch_body", "recover_s"),
    layer("pam-wal.crc32_gb_s", "GB/s", Higher, "store-commit",
        "direct pam_wal::frame::crc32 over 1 MiB", "put_ack_p50_us"),
    layer("pam-wal.checkpoint_s", "s", Lower, "store-commit",
        "wall of the manual DurableShardedStore::checkpoint", "disk_bytes_per_entry"),
    layer("pam-wal.checkpoint_mb_s", "MB/s", Higher, "store-commit",
        "DurabilityStats.checkpoint_bytes / checkpoint sum", "disk_bytes_per_entry"),
    layer("pam-wal.checkpoint_pin_hold_s", "s", Lower, "store-commit",
        "DurabilityStats.checkpoint_pin_hold sum / count", "mem_bytes_per_entry"),
    layer("pam-wal.checkpoints", "count", Higher, "store-commit",
        "DurabilityStats.checkpoints (background by bytes + 1 manual)", "disk_bytes_per_entry"),
    layer("pam-wal.recover_prescan_vote_s", "s", Lower, "store-commit",
        "RecoveryInfo.timings.prescan + vote, median over the reopens", "recover_s"),
    layer("pam-wal.recover_bulk_load_s", "s", Lower, "store-commit",
        "max over shards of RecoveryInfo.timings.bulk_load", "recover_s"),
    layer("pam-wal.recover_segment_scan_s", "s", Lower, "store-commit",
        "max over shards of RecoveryInfo.timings.segment_scan", "recover_s"),
    layer("pam-wal.recover_replay_s", "s", Lower, "store-commit",
        "max over shards of RecoveryInfo.timings.replay", "recover_s"),
    layer("pam-wal.recover_unattributed_share", "share", Lower, "store-commit",
        "1 - (prescan + vote + max-shard bulk_load + segment_scan + replay) / open wall", "recover_s"),
    layer("pam-wal.fsyncs_per_kop", "1/kop", Lower, "store-commit",
        "side pass under SyncEachEpoch: DurabilityStats.wal_fsyncs / ops x 1000", "put_ack_p50_us"),
    layer("pam-wal.fsync_p50_us", "us", Lower, "store-commit",
        "side pass: DurabilityStats.wal_fsync.p50 (this sandbox's disk)", "put_ack_p50_us"),
    layer("pam-wal.put_ack_fsync_p50_us", "us", Lower, "store-commit",
        "side pass: put to ack under SyncEachEpoch", "put_ack_p50_us"),
    // -- pam-serve ------------------------------------------------------------
    layer("pam-serve.wire_encode_ns_per_req", "ns", Lower, "serve-mixed",
        "direct wire::write_message over the request mix", "get_p50_us"),
    layer("pam-serve.wire_decode_ns_per_req", "ns", Lower, "serve-mixed",
        "direct wire::decode_message over the request mix", "get_p50_us"),
    layer("pam-serve.wire_bytes_per_req", "B", Lower, "serve-mixed",
        "request + reply frame bytes / requests", "req_kops_s"),
    layer("pam-serve.scan_reply_bytes_per_entry", "B", Lower, "serve-read",
        "Scan reply frame bytes / entries returned", "scan_p50_us"),
    layer("pam-serve.ping_p50_us", "us", Lower, "serve-read",
        "Request::Ping round trip: frame + syscalls + worker hop, no store", "get_p50_us"),
    layer("pam-serve.connect_us", "us", Lower, "serve-read",
        "TcpStream::connect + first Ping", "setup_s"),
    layer("pam-serve.cpu_us_per_req", "us", Lower, "serve-mixed",
        "/proc/<pid>/stat utime + stime delta / requests", "req_kops_s"),
    layer("pam-serve.rss_mb", "MB", Lower, "serve-mixed",
        "/proc/<pid>/status VmRSS after the run", "mem_bytes_per_entry"),
    layer("pam-serve.drain_s", "s", Lower, "serve-mixed",
        "stdin EOF to process exit", "setup_s"),
    layer("pam-serve.read_req_kops_s", "kops/s", Higher, "serve-read",
        "requests per second at the typical round pace, read-only mix", "req_kops_s"),
    layer("pam-serve.get_many_p50_us", "us", Lower, "serve-read",
        "16-key Request::GetMany round trip", "get_p50_us"),
    layer("pam-serve.get_p99_us", "us", Lower, "serve-read",
        "same samples as get_p50_us", "get_p50_us"),
    layer("pam-serve.scan_p99_us", "us", Lower, "serve-read",
        "same samples as scan_p50_us", "scan_p50_us"),
    layer("pam-serve.scan_open_end_ms", "ms", Lower, "serve-read",
        "Request::Scan limit 1000 with an open upper bound: the server walks to the end of the range", "scan_p50_us"),
    layer("pam-serve.mixed_get_p50_us", "us", Lower, "serve-mixed",
        "Request::Get round trip beside writers", "get_p50_us"),
    layer("pam-serve.mixed_scan_p50_us", "us", Lower, "serve-mixed",
        "Request::Scan limit 100 beside writers (one fenced snapshot per scan)", "scan_p50_us"),
    layer("pam-serve.put_ack_p99_us", "us", Lower, "serve-mixed",
        "same samples as put_ack_p50_us", "put_ack_p50_us"),
    layer("pam-serve.batch_ack_p99_us", "us", Lower, "serve-mixed",
        "same samples as batch_ack_p50_us", "batch_ack_p50_us"),
    layer("pam-serve.srv_window_p50_us", "us", Lower, "serve-mixed",
        "/metrics.json pam_commit_window_nanos.p50 of the server", "put_ack_p50_us"),
    layer("pam-serve.srv_commit_p50_us", "us", Lower, "serve-mixed",
        "/metrics.json pam_commit_nanos.p50 of the server", "put_ack_p50_us"),
    layer("pam-serve.srv_commit_us_per_commit", "us", Lower, "serve-mixed",
        "/metrics.json pam_commit_nanos sum delta / count delta", "put_ack_p50_us"),
    layer("pam-serve.srv_commits_per_kop", "1/kop", Lower, "serve-mixed",
        "/metrics.json pam_commits_total delta / pam_raw_ops_total delta x 1000", "req_kops_s"),
    layer("pam-serve.put_unattributed_us", "us", Lower, "serve-mixed",
        "put_ack_p50_us - (ping_p50_us + srv_window_p50_us + srv_commit_p50_us)", "put_ack_p50_us"),
    layer("pam-serve.get_unattributed_us", "us", Lower, "serve-read",
        "get_p50_us - (ping_p50_us + pam-store.get_ns)", "get_p50_us"),
    // -- pam-obs --------------------------------------------------------------
    layer("pam-obs.hist_record_ns", "ns", Lower, "serve-read",
        "direct pam_obs::Histogram::record", "req_kops_s"),
    layer("pam-obs.scrape_ms", "ms", Lower, "serve-read",
        "GET /metrics.json on the server's --obs-addr", "req_kops_s"),
    // -- driver ---------------------------------------------------------------
    layer("driver.calibration_ms", "ms", Lower, "all",
        "lower-quartile wall of the calibration kernel (calib.rs) over the rounds", "setup_s"),
    layer("driver.machine_factor", "x", Higher, "all",
        "nominal / measured calibration time: what the untraced pass scales its timings by", "setup_s"),
    layer("driver.trace_overhead_share", "share", Lower, "serve-read",
        "1 - traced / untraced rate of the same Get loop, where spans are densest", "get_p50_us"),
    layer("driver.client_cpu_share", "share", Lower, "serve-mixed",
        "driver utime + stime / (driver + server) during the mixed run", "req_kops_s"),
];

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The dictionary as a markdown table (the README embeds this).
pub fn markdown() -> String {
    let mut out = String::from(
        "| metric | unit | better | bound | layer | phase | read from | should move |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let bound = m
            .bound
            .map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0));
        let moves = if m.moves.is_empty() { "-" } else { m.moves };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.layer(),
            m.phase,
            m.source,
            moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_obs::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                find(m.moves).is_some_and(|t| t.bound.is_some()),
                "{} moves an unknown metric",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.as_str())
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::profile::PROFILES.iter().map(|p| p.name).collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::profile::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn readme_embeds_the_current_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        assert!(
            readme.contains(&markdown()),
            "README metric dictionary is stale: paste the output of `pam-benchmark describe`"
        );
    }
}
