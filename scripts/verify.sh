#!/usr/bin/env bash
# Full local verification: the tier-1 gate plus formatting and lints.
# Works fully offline — every dependency is a vendored path crate.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one named test pin: `pin <cargo test args...> <name>`. Cargo
# exits 0 when the name matches no test ("0 passed; N filtered out"), so
# a renamed or deleted pin would pass silently; this fails unless at
# least one test ran.
pin() {
    local log
    log="$(cargo test --release -q "$@" 2>&1)" || {
        printf '%s\n' "$log"
        return 1
    }
    printf '%s\n' "$log"
    if ! grep -qE 'test result: ok\. [1-9][0-9]* passed' <<<"$log"; then
        echo "verify: no test ran for pin: $*" >&2
        return 1
    fi
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace --release -q"
cargo test --workspace --release -q

# The end-to-end benchmark is a workspace of its own that builds against
# the crates' public API; building and self-testing it here makes an API
# change that breaks the benchmark fail this gate. One test thread: the
# tracer self-test asserts that the process-wide peak RSS (VmHWM) grows
# inside its span, and a self-test on a parallel thread can raise that
# peak first.
echo "==> e2ebench build + self-tests"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml -- --test-threads=1

# The exact strategy against its oracles, and the determinism pins,
# run explicitly so a filtered or partial test invocation can never
# silently skip them: exact T4 groups must equal the scalar DBSCAN
# expansion's clusters and exact T5 pairs brute force, at 1 and 4
# threads, with no budget and with one shard per row.
echo "==> proptests: exact strategy oracle; parallel grouping determinism"
pin -p rolediet-core --test properties exact_strategy_matches_dbscan_fit_and_brute_force
pin -p rolediet-core --test properties dbscan_pipeline_reports_identical_across_thread_counts
pin -p rolediet-core --test properties pipeline_reports_identical_across_thread_counts

# The PR 5 engine pins, run explicitly for the same reason.
echo "==> proptests: packed bounded-distance engine"
pin -p rolediet-matrix --test properties packed_bounded_hamming_agrees_with_row_hamming

# The one row store against its oracle: every CSR row kernel (norm,
# Hamming, dot, equality, signature, column sums, nnz) must match
# per-row BitVecs; and the paper generator's CSR rows plus ground truth
# are pinned by digest, so its RNG draw order cannot drift unnoticed.
echo "==> proptests: CSR row kernels vs BitVec oracle; generator digest"
pin -p rolediet-matrix --test properties csr_row_kernels_match_bitvec_oracle
pin -p rolediet-synth --lib generator_output_is_pinned

# The T5 prefix probe against the paper's co-occurrence walk: batch
# pairs at 1 and 4 threads must equal the walk filtered to 1 <= d <= t
# (plus the naive disjoint supplement when it is on).
echo "==> proptests: T5 probe vs co-occurrence walk"
pin -p rolediet-core --test properties similar_pairs_match_the_cooccurrence_walk
# The probe's work at one thread (rows gathered, candidates verified,
# pairs emitted) on the paper generator and a small ing-like org, and
# its buffers growing when a batch adds roles, users and permissions
# past a 64-bit word and then flips the new ids.
pin -p rolediet-core --lib probe_work_counts_are_pinned
pin -p rolediet-core --lib probe_buffers_grow_with_ids_added_mid_batch

# The PR 6 incremental-maintenance pins: the online T1-T5 state must be
# bit-identical to a batch rerun after every churn batch, at every
# tested thread count, and replay must be deterministic.
echo "==> proptests: incremental pipeline oracle"
pin -p rolediet-core --test properties incremental_pipeline_matches_batch_oracle
pin -p rolediet-core --test properties incremental_pipeline_replay_is_deterministic
# apply_batch assembles its delta from what the batch touched; it must
# equal ReportDelta::between of the full reports before and after.
pin -p rolediet-core --test properties apply_batch_delta_matches_report_diff
# A batch re-probes each row it touched once, against the final graph: a
# clone or abandon burst on one role re-probes it once per side it
# touched, and `apply`, a batch of one, once per flip.
pin -p rolediet-core --lib batches_reprobe_each_touched_row_once
# With empty duplicates off, no empty row reaches the duplicate splitter:
# a batch that adds a role hands it the same rows beside 10 or 1,000
# empty roles, and rows whose key collides with the empty row's are
# still split.
pin -p rolediet-core --lib split_rows_do_not_grow_with_the_empty_row_bucket
pin -p rolediet-core --lib rows_colliding_with_the_empty_key_are_still_split

# The graph keeps each node's neighbours as one strictly ascending u32
# list. Against a BTreeSet-per-role model: every adjacency iterator must
# ascend strictly under flips and node additions, on small lists and on
# lists of hundreds of ids, and a many-to-one role map must rebuild to
# the model's edge union. A JSON dump must be refused with a typed error
# when an edge has no reverse entry, an id is out of range, a name table
# has another length, or a list is unsorted or repeats an id (the five
# json_rejects_* tests).
echo "==> proptests: graph adjacency lists vs BTreeSet model; JSON rejection"
pin -p rolediet-model --test properties graph_matches_reference_edge_sets
pin -p rolediet-model --test properties long_lists_match_reference_edge_sets
pin -p rolediet-model --test properties rebuild_merges_match_the_model_edge_union
pin -p rolediet-model --lib json_rejects_

# The scale pin: the sharded engine must be byte-identical to the flat
# engine under tiny budgets that force multi-shard plans. The exact walk
# is one tile visitor at every budget: with 3+ shards it must visit every
# pair within the bound exactly once, as i < j, and a one-shard plan
# must report the flat engine's pairs in the flat engine's order.
echo "==> proptests: sharded distance plane"
pin -p rolediet-matrix --test properties sharded_engine_matches_flat_engine_under_tiny_budgets
pin -p rolediet-matrix --test properties tile_visitor_visits_each_pair_within_the_bound_once
pin -p rolediet-matrix --lib one_shard_plan_walks_rows_in_caller_order

# The PR 8 batched-HNSW pins: the two-phase batched build must be
# bit-identical to the sequential insert oracle at every tested
# (batch, threads) pairing, both at the index level and through the
# whole pipeline report.
echo "==> proptests: batched HNSW determinism"
pin -p rolediet-cluster --test properties hnsw_batch_build_matches_sequential_oracle
pin -p rolediet-core --test properties hnsw_pipeline_reports_identical_across_batch_and_threads
pin -p rolediet-core --test properties hnsw_recall_on_figure3_workload_clears_the_floor
# The sequential build itself, pinned by digest: a backlink to a full
# list replays the list's recorded Algorithm-4 decisions, re-checking
# only those the newcomer can change, and must store every link list as
# the full re-selection stores it. The proptest compares the build with
# one that re-selects in full on every prune (m = 2..4, duplicate and
# empty rows) and checks each stored link distance; the call pin fixes
# how many distance calls the build makes on the digest's inputs.
pin -p rolediet-core --test properties hnsw_index_is_pinned
pin -p rolediet-cluster --lib replayed_prunes_match_full_reselection
pin -p rolediet-core --test properties hnsw_build_distance_calls_are_pinned

# Hardware popcount: .cargo/config.toml builds x86-64 with +popcnt. The
# guard is an ignored test (a RUSTFLAGS variable replaces the checked-in
# flags, and such a build still passes tier-1), so a lost or overridden
# config fails here.
if [ "$(uname -m)" = x86_64 ]; then
    echo "==> hardware popcount guard"
    pin -p rolediet-matrix --lib builds_use_hardware_popcount -- --ignored
fi

# The PR 10 mining pins: the lazy-greedy (CELF) cover must be
# bit-identical to the eager full-rescan oracle at every tested thread
# count and candidate configuration, and candidate pools must be
# thread-count invariant.
echo "==> proptests: lazy-greedy mining oracle"
pin -p rolediet-mining --test properties lazy_greedy_matches_eager_oracle_across_threads
pin -p rolediet-mining --test properties candidate_pools_are_thread_count_invariant
pin -p rolediet-mining --test properties cap_exceeding_pools_mine_without_panicking
# The pool and the cover on org-sized UPAMs, pinned by digest at 1 and 2
# threads: the cover dirties candidates through the users who lost
# cells and the pool is sorted once, and neither may change an output.
# The UPAM they mine is pinned row by row against effective_permissions,
# including users whose roles' permissions overlap.
pin -p rolediet-mining --test properties mined_cover_is_pinned
pin -p rolediet-model --test properties upam_rows_are_effective_permissions
# The generator walks rows longest first and stops at the floor its cap
# sets: it must keep exactly the pool the enumerate-sort-dedup-cap oracle
# keeps under caps that bind, at 1..=8 threads; every candidate knob at 0
# and at usize::MAX must still mine an exact cover; and the mine's work
# counts on a small org at one thread are pinned.
pin -p rolediet-mining --test properties floor_bounded_walk_matches_enumerated_pool
pin -p rolediet-mining --test properties extreme_configs_mine_exact_covers
pin -p rolediet-mining --lib mine_work_counts_are_pinned

# Multi-shard smoke: a pipeline run under a 1-byte memory budget forces
# the distance plane through a maximally sharded plan; the run must
# report shards > 1 and byte-equal findings vs. the unbudgeted run
# (asserted inside the test).
echo "==> tiny-budget multi-shard smoke"
pin -p rolediet-core --lib memory_budget_shards_the_distance_plane_without_changing_results

# Churn smoke: replay simulated churn through the incremental pipeline;
# after every batch the subcommand asserts that apply_batch's delta
# equals the difference of the batch reruns and that the maintained
# report is bit-identical to the rerun.
echo "==> repro churn --incremental smoke"
cargo run --release -q -p rolediet-bench --bin repro -- \
    churn --incremental --steps 200 --batch 50 --scale 0.02 >/dev/null

# Mining smoke: refine-vs-regenerate on a churned org at 2 worker
# threads; every mined cover is verified exact inside the subcommand.
echo "==> repro mining smoke (2 threads)"
cargo run --release -q -p rolediet-bench --bin repro -- \
    mining --steps 200 --scale 0.02 --threads 2 >/dev/null

# Approximate-path smoke: the full pipeline under the HNSW strategy on a
# small ing-like org, with the report validators on: at one thread (the
# default, where the build is the sequential insert) and with the batched
# parallel build on 2 worker threads.
echo "==> repro realorg --strategy hnsw smoke (1 and 2 threads)"
for threads in 1 2; do
    cargo run --release -q -p rolediet-bench --bin repro -- \
        realorg --strategy hnsw --threads "$threads" --scale 0.02 --validate >/dev/null
done

# Exact-path smoke: the full pipeline under exact DBSCAN on the same
# org, validators on, at one thread and with the walk split over 2
# worker threads.
echo "==> repro realorg --strategy dbscan smoke (1 and 2 threads)"
for threads in 1 2; do
    cargo run --release -q -p rolediet-bench --bin repro -- \
        realorg --strategy dbscan --threads "$threads" --scale 0.02 --validate >/dev/null
done

# Race-audit feature: the write-span auditor is compiled into the
# parallel substrate's release path too, not just under cfg(test).
echo "==> cargo test -q -p rolediet-matrix --features audit"
cargo test -q -p rolediet-matrix --features audit

# Strict mode promotes allowlist slack/stale warnings to errors, so a
# ratchet that should have been tightened fails the gate too (fix with
# `scripts/lint.sh --fix-allowlist`). The summary line (files, fns,
# call edges, wall time) is kept for the Outcome report below.
echo "==> rolediet-lint --strict (domain lints D1-D8)"
# A library fn never gains a call edge into a #[cfg(test)] fn, so a test
# helper's name cannot widen the D6/D7 surface (fixture pin).
pin -p rolediet-lint --test lints d7_never_resolves_library_calls_into_test_helpers
lint_log="$(mktemp -t rolediet_lint.XXXXXX.log)"
cargo run -q -p rolediet-lint -- --strict 2>&1 | tee "$lint_log"
lint_summary="$(sed -n 's/^rolediet-lint: //p' "$lint_log" | tail -n 1)"
rm -f "$lint_log"

echo "==> cargo fmt --check"
cargo fmt --check

# Rustdoc gate: broken or redundant intra-doc links fail, so a deletion
# cannot leave a dangling link behind. The vendored stand-ins are left
# out; they are not held to this bar.
echo "==> cargo doc --no-deps (-D warnings, workspace crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude proptest --exclude rand --exclude serde \
    --exclude serde_derive --exclude serde_json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: all checks passed"
echo "Outcome: lint ${lint_summary:-summary unavailable}"
