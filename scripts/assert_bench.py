#!/usr/bin/env python3
"""Invariant checks and the CI tripwire for the BENCH_*.json artifacts.

Usage:
    assert_bench.py smoke  results/BENCH_smoke.json [--baseline BENCH_smoke.json]
    assert_bench.py ladder results/BENCH_ladder.json [--baseline BENCH_ladder.json]

`smoke` ratchets the exact counts of the one-shot tiny-HAI run against the
committed artifact (byte identity across engines is pinned by the engine
matrix, `tests/kit/engine_matrix.rs`, not here).  It requires the
`product_lines` and `product_lines_non_test` keys and prints them next to the
`--baseline` artifact's values.  `product_lines_non_test` is a ratchet: the
run fails when the fresh value exceeds the committed one (`product_lines` is
shown, not gated — tests may grow).  So is `distance_cache.hits + misses`,
the one-shot run's distance lookups: the count repeats exactly at the smoke's
fixed seed and may not exceed the committed one, and so is
`agp_bounds_computed`, the sketch bounds AGP's nearest-normal searches
evaluated, and `fscr_candidates_tested`, the substitution candidates FSCR's
fusions tested (an artifact without either fails).  `fscr_shared_outcomes` —
the one-shot report's FSCR outcomes minus its distinct `fused` allocations —
ratchets the other way: it may not fall below the committed one.
`pool_storages` — the distinct value-pool tables among the one-shot run's
input, repaired rows, deduplicated rows and cleaned index (1) — may not exceed
the committed one.

`ladder` asserts the structural invariants of the benchmark ladder (monotone
rung sizes, byte-identity wherever it was checked, errors injected, RSS
recorded when the meter is available, mutation latencies 0 < p50 <= max, the
budgeted probe's peak RSS where the rung asserts it, and the group-scoped re-clean
probe: a single-cell mutation must re-clean a strict, non-empty subset of
the MLN groups and — on a fresh artifact — send fewer than 1 in 20 of them
back to an AGP nearest-normal search from nothing; a fresh artifact must also
record `agp_bounds_computed` and `fscr_candidates_tested` per engine).  On a
fresh artifact with both the 10^4 and the 10^5 rung it also gates growth on an
exact counter: the batch engine's `fscr_candidates_tested` may grow at most
20x from the one rung to the other, and a 10^4 count of 0 must stay 0 (TPC-H's
one FD gives every tuple one version, so nothing is ever substituted).  When
`--baseline` points at a
committed artifact it also runs an order-of-magnitude tripwire against it:
the run fails if any engine is more than 3x slower, peaks at more than 2x
the RSS, or the mutation probe's p50/max latency is more than 3x the
baseline's — and before that if the baseline holds a key the fresh artifact
no longer emits, so a stale schema cannot go unnoticed.  The ladder's points
are single shots on a shared runner and cannot resolve a percentage —
`BENCHMARK.json`'s bounds over the repo benchmark's multi-sample medians are
the performance gate; the tripwire only catches a change that is wrong by a
multiple.

The same `ladder` subcommand checks every per-workload artifact
(`BENCH_ladder.json`, `BENCH_ladder_hai.json`, `BENCH_ladder_car.json`).
"""

import argparse
import json
import math
import sys

ENGINES = ("batch", "incremental", "distributed")
STAGES = (
    "index",
    "agp",
    "weight_learning",
    "rsc",
    "fscr",
    "dedup",
    "partition",
    "gather",
)


# Allowance of the budgeted probe's peak RSS over floor + budget.
RSS_BUDGET_ALLOWANCE = 0.25
# The tripwire against the committed baseline: fail beyond this many times
# slower (throughput, mutation latency) or this many times the peak RSS.
MAX_SLOWDOWN = 3.0
MAX_RSS_GROWTH = 2.0
# The growth gate on exact counters: from the 10^4 to the 10^5 rung, the batch
# engine's FSCR substitution candidates may grow at most this many times.
GROWTH_FROM, GROWTH_TO = 10_000, 100_000
MAX_FSCR_CANDIDATE_GROWTH = 20.0


def fail(msg):
    sys.exit(f"assert_bench: FAIL: {msg}")


def check(cond, msg):
    if not cond:
        fail(msg)


def check_codec_header(d, where):
    check(isinstance(d.get("codec_version"), int) and d["codec_version"] >= 1,
          f"{where}: artifact lacks a codec_version header (wire artifacts "
          f"must name the frame format they were written under)")


def check_smoke(d, committed=None):
    check_codec_header(d, "smoke")
    # The trend of the product tree's size: all lines shown, not gated (tests
    # may grow); the non-test lines may only grow on purpose.
    for key in ("product_lines", "product_lines_non_test"):
        check(key in d and isinstance(d[key], (int, type(None))),
              f"smoke: artifact lacks {key} (lines of *.rs under crates/*/src "
              f"— all of them, and those above each file's first column-0 "
              f"#[cfg(test)]; null when the sources were not beside the binary)")
        print(f"{key}:", d[key],
              f"(committed: {committed.get(key)})" if committed else "")
    fresh, base = d["product_lines_non_test"], (committed or {}).get("product_lines_non_test")
    check(fresh is None or base is None or fresh <= base,
          f"smoke: product_lines_non_test grew {base} -> {fresh}: re-record "
          f"BENCH_smoke.json in the same PR and say in CHANGES what the lines buy")
    # Distance lookups of the one-shot run: a count that repeats exactly at
    # the smoke's fixed seed, so a change that loses AGP's sketch filter (or
    # any other probe the pipeline stopped making) fails here, not on a timing.
    lookups, base_lookups = (c and c["distance_cache"]["hits"] + c["distance_cache"]["misses"]
                             for c in (d, committed))
    print("distance_cache lookups:", lookups,
          f"(committed: {base_lookups})" if committed else "")
    check(not committed or lookups <= base_lookups,
          f"smoke: distance_cache.hits + misses grew {base_lookups} -> {lookups}: "
          f"the pipeline runs more distance probes than the committed baseline")
    # Sketch bounds AGP evaluated: exact at the fixed seed, so a change that
    # loses the lookup (back to bounding every abnormal x normal pair) fails.
    check("agp_bounds_computed" in d, "smoke: artifact lacks agp_bounds_computed")
    bounds, base_bounds = d["agp_bounds_computed"], (committed or {}).get("agp_bounds_computed")
    print("agp bounds computed:", bounds,
          f"(committed: {base_bounds})" if committed else "")
    check(base_bounds is None or bounds <= base_bounds,
          f"smoke: agp_bounds_computed grew {base_bounds} -> {bounds}: AGP's "
          f"searches bound more candidates than the committed baseline")
    # Substitution candidates FSCR tested: exact at the fixed seed, so a
    # change that makes the substitution scans longer fails here.
    check("fscr_candidates_tested" in d, "smoke: artifact lacks fscr_candidates_tested")
    tested, base_tested = (d["fscr_candidates_tested"],
                           (committed or {}).get("fscr_candidates_tested"))
    print("fscr candidates tested:", tested,
          f"(committed: {base_tested})" if committed else "")
    check(base_tested is None or tested <= base_tested,
          f"smoke: fscr_candidates_tested grew {base_tested} -> {tested}: FSCR's "
          f"substitutions test more candidates than the committed baseline")
    # FSCR outcomes that share another outcome's resolved `fused` list: every
    # tuple of one version vector holds one allocation, so a change that goes
    # back to restating fusions per tuple reads 0 here.
    check("fscr_shared_outcomes" in d, "smoke: artifact lacks fscr_shared_outcomes")
    shared, base_shared = d["fscr_shared_outcomes"], (committed or {}).get("fscr_shared_outcomes")
    print("fscr shared outcomes:", shared,
          f"(committed: {base_shared})" if committed else "")
    check(base_shared is None or shared >= base_shared,
          f"smoke: fscr_shared_outcomes fell {base_shared} -> {shared}: FSCR "
          f"outcomes stopped sharing their version vector's provenance list")
    # Distinct value-pool tables the one-shot run's input and report name: a
    # change that goes back to copying the pool per dataset / index reads 4.
    check("pool_storages" in d, "smoke: artifact lacks pool_storages")
    storages, base_storages = d["pool_storages"], (committed or {}).get("pool_storages")
    print("pool storages:", storages,
          f"(committed: {base_storages})" if committed else "")
    check(base_storages is None or storages <= base_storages,
          f"smoke: pool_storages grew {base_storages} -> {storages}: the input, the "
          f"report's datasets and the cleaned index stopped sharing one value pool")


def check_ladder(d, fresh=True):
    check(d["experiment"] == "ladder", "not a ladder artifact")
    if fresh:
        # Committed baselines may predate the wire codec; every freshly
        # produced artifact must carry the versioned header.
        check_codec_header(d, "ladder")
    rungs = d["rungs"]
    check(len(rungs) >= 1, "the ladder ran no rungs")
    sizes = [r["rows"] for r in rungs]
    check(sizes == sorted(set(sizes)),
          f"rung sizes must be strictly increasing: {sizes}")
    rss_supported = d["rss_meter"]["supported"]
    budgeted_rungs = 0
    rss_asserted_rungs = 0

    for i, r in enumerate(rungs):
        where = f"rung {r['rows']}"
        check(r["batches"] == math.ceil(r["rows"] / d["batch_rows"]),
              f"{where}: batch count does not cover the rows")
        check(r["injected_errors"] > 0, f"{where}: no errors injected")

        ident = r["byte_identity"]
        if r["rows"] <= d["identity_limit"]:
            check(ident["checked"] is True,
                  f"{where}: identity must be checked at rungs <= identity_limit")
        if ident["checked"]:
            check(ident["incremental_matches_batch"] is True,
                  f"{where}: incremental engine diverged from batch")
            check(ident["distributed_matches_batch"] is True,
                  f"{where}: distributed engine diverged from batch")

        for name in ENGINES:
            e = r["engines"][name]
            tag = f"{where}/{name}"
            check(e["ingest_rows_per_sec"] > 0, f"{tag}: zero ingest throughput")
            check(e["ingest_seconds"] > 0 and e["outcome_seconds"] > 0,
                  f"{tag}: non-positive timings")
            check(e["total_seconds"] >= e["outcome_seconds"],
                  f"{tag}: total below outcome")
            for stage in STAGES:
                check(e["stage_seconds"][stage] >= 0, f"{tag}: negative {stage}")
            if fresh:
                # Committed baselines may predate the counter.
                for counter in ("agp_bounds_computed", "fscr_candidates_tested"):
                    check(isinstance(e.get(counter), int) and e[counter] >= 0,
                          f"{tag}: artifact lacks {counter}")
            if rss_supported:
                check(isinstance(e["peak_rss_kib"], int) and e["peak_rss_kib"] > 0,
                      f"{tag}: RSS meter is supported but no peak recorded")

        # Budgeted probe: the same rung under a fixed memory budget must stay
        # byte-identical to the unbudgeted session at EVERY rung the probe
        # ran (including the nightly 10^6 rung, above identity_limit).  The
        # peak-RSS-under-budget claim is only made where the rung flags
        # `rss_asserted`: above that, outcome-time transients no budget
        # governs (resolved FSCR strings, the report itself) dominate the
        # whole-process peak and the number would be a lie either way.
        budgeted = r.get("budgeted")
        if budgeted is not None:
            budgeted_rungs += 1
            check(budgeted["matches_unbudgeted"] is True,
                  f"{where}: budgeted session diverged from the unbudgeted run")
            check(budgeted["budget_kib"] > 0, f"{where}: empty memory budget")
            if rss_supported:
                rss = budgeted["peak_rss_kib"]
                check(isinstance(rss, int) and rss > 0,
                      f"{where}: RSS meter is supported but the budgeted probe "
                      f"recorded no peak")
                if budgeted["rss_asserted"]:
                    # The claim is about growth: peak minus the post-reset
                    # floor, so memory the allocator retains from earlier
                    # rungs cannot fail an otherwise well-behaved probe.
                    rss_asserted_rungs += 1
                    floor = budgeted.get("rss_floor_kib") or 0
                    limit = floor + (1.0 + RSS_BUDGET_ALLOWANCE) * budgeted["budget_kib"]
                    check(rss <= limit,
                          f"{where}: budgeted peak RSS {rss} KiB exceeds the "
                          f"{floor} KiB floor + {budgeted['budget_kib']} KiB "
                          f"budget (+{RSS_BUDGET_ALLOWANCE:.0%} allowance = "
                          f"{limit:.0f} KiB)")

        mut = r["mutation_latency"]
        if i == len(rungs) - 1:
            check(mut is not None, f"{where}: largest rung lacks the mutation probe")
            check(mut["samples"] > 0, f"{where}: no mutation samples")
            check(0 < mut["p50_seconds"] <= mut["max_seconds"],
                  f"{where}: mutation latencies out of order: {mut}")
            check(0 < mut["recleaned_groups"] < mut["total_groups"],
                  f"{where}: a single-cell mutation must re-clean a strict, "
                  f"non-empty subset of the groups, got "
                  f"{mut['recleaned_groups']} of {mut['total_groups']}")
            if fresh:
                # Committed baselines may predate Stage II's work counter;
                # it is recorded, not gated.
                check(isinstance(mut.get("fused_tuples"), int) and mut["fused_tuples"] >= 0,
                      f"{where}: artifact lacks fused_tuples")
                # Committed baselines may predate the maintained AGP plan.
                check(mut["rescanned_groups"] * 20 < mut["total_groups"],
                      f"{where}: a single-cell mutation must re-plan around a "
                      f"small subset of the groups, got "
                      f"{mut['rescanned_groups']} nearest-normal searches from nothing "
                      f"for {mut['total_groups']} groups")
        else:
            check(mut is None, f"{where}: mutation probe ran on a non-final rung")

    if fresh:
        check_growth(rungs)

    # The RSS claim may be scoped, but it may not silently vanish: once a
    # run carries budgeted rungs and a working meter, at least one rung must
    # actually assert its peak against the budget.
    if budgeted_rungs > 0 and rss_supported:
        check(rss_asserted_rungs >= 1,
              "budgeted rungs ran with a working RSS meter but no rung "
              "asserted its peak against the budget (rss_asserted is false "
              "everywhere — the budget claim lost its CI teeth)")

    print(f"ladder invariants ok: rungs {sizes}, "
          f"identity checked on {sum(r['byte_identity']['checked'] for r in rungs)}, "
          f"rss meter {'on' if rss_supported else 'off'}, "
          f"budgeted probe on {budgeted_rungs} "
          f"(rss asserted on {rss_asserted_rungs})")


def check_growth(rungs):
    """The batch engine's `fscr_candidates_tested` from the 10^4 to the 10^5
    rung, where the artifact has both: at most MAX_FSCR_CANDIDATE_GROWTH times
    the smaller count, and 0 where the smaller count is 0."""
    by_rows = {r["rows"]: r for r in rungs}
    if GROWTH_FROM not in by_rows or GROWTH_TO not in by_rows:
        return
    counter = "fscr_candidates_tested"
    small = by_rows[GROWTH_FROM]["engines"]["batch"][counter]
    large = by_rows[GROWTH_TO]["engines"]["batch"][counter]
    where = f"batch {counter} from rung {GROWTH_FROM} to {GROWTH_TO}"
    if small == 0:
        check(large == 0, f"{where}: grew from 0 to {large}")
        print(f"ladder growth ok: {where} stays 0")
        return
    ratio = large / small
    check(ratio <= MAX_FSCR_CANDIDATE_GROWTH,
          f"{where}: grew {small} -> {large} (x{ratio:.1f}, more than "
          f"x{MAX_FSCR_CANDIDATE_GROWTH:g})")
    print(f"ladder growth ok: {where} x{ratio:.1f}")


def throughput(rung, engine):
    return rung["rows"] / max(rung["engines"][engine]["total_seconds"], 1e-9)


def stale_keys(base, new, path=""):
    """Key paths the committed baseline holds and the fresh artifact does not
    emit (rungs are compared in order; a value that is not an object on
    either side ends the walk)."""
    if isinstance(base, dict) and isinstance(new, dict):
        for key, value in base.items():
            if key not in new:
                yield f"{path}.{key}"
            else:
                yield from stale_keys(value, new[key], f"{path}.{key}")
    elif isinstance(base, list) and isinstance(new, list):
        for i, (b, n) in enumerate(zip(base, new)):
            yield from stale_keys(b, n, f"{path}[{i}]")


def gate_ladder(new, base):
    stale = list(stale_keys(base, new))
    check(not stale,
          f"the baseline holds keys a fresh artifact no longer emits: {stale[:8]} — "
          f"re-record the committed baseline from a fresh artifact")
    base_by_rows = {r["rows"]: r for r in base["rungs"]}
    both_rss_supported = (new["rss_meter"]["supported"]
                          and base["rss_meter"]["supported"])
    compared = 0
    skipped = 0
    for r in new["rungs"]:
        b = base_by_rows.get(r["rows"])
        if b is None:
            continue
        for name in ENGINES:
            tag = f"rung {r['rows']}/{name}"
            new_tp, base_tp = throughput(r, name), throughput(b, name)
            check(new_tp * MAX_SLOWDOWN >= base_tp,
                  f"{tag}: throughput fell {base_tp:.0f} -> {new_tp:.0f} rows/s "
                  f"(more than {MAX_SLOWDOWN:g}x slower than the baseline)")
            compared += 1
            new_rss = r["engines"][name]["peak_rss_kib"]
            base_rss = b["engines"][name]["peak_rss_kib"]
            if isinstance(new_rss, int) and isinstance(base_rss, int):
                check(new_rss <= MAX_RSS_GROWTH * base_rss,
                      f"{tag}: peak RSS grew {base_rss} -> {new_rss} KiB "
                      f"(more than {MAX_RSS_GROWTH:g}x the baseline)")
                compared += 1
            elif both_rss_supported:
                # Both runs claim a working meter, yet a reading is missing:
                # that is a broken artifact, not a platform limitation, and
                # silently skipping it would let an RSS regression ship.
                fail(f"{tag}: both artifacts report rss_meter.supported but "
                     f"peak_rss_kib is {new_rss!r} (run) vs {base_rss!r} "
                     f"(baseline) — a supported meter must record integers")
            else:
                skipped += 1
        # Mutation latency, where both runs probed the same rung.  The
        # absolute 50ms grace keeps sub-100ms probes from tripping on timer
        # noise alone.
        mut, base_mut = r["mutation_latency"], b["mutation_latency"]
        if mut is not None and base_mut is not None:
            for q in ("p50_seconds", "max_seconds"):
                limit = MAX_SLOWDOWN * base_mut[q] + 0.05
                check(mut[q] <= limit,
                      f"rung {r['rows']}: mutation {q} rose "
                      f"{base_mut[q]:.6f}s -> {mut[q]:.6f}s (limit {limit:.6f}s, "
                      f"{MAX_SLOWDOWN:g}x the baseline)")
                compared += 1
    check(compared > 0, "baseline shares no rungs with this run")
    print(f"ladder tripwire ok: {compared} points within {MAX_SLOWDOWN:g}x the "
          f"time and {MAX_RSS_GROWTH:g}x the RSS of the baseline, {skipped} "
          f"skipped (RSS meter unsupported)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=["smoke", "ladder"])
    parser.add_argument("artifact")
    parser.add_argument("--baseline", help="committed artifact: the BENCH_ladder*.json "
                        "the tripwire compares with, or the BENCH_smoke.json to print beside")
    args = parser.parse_args()

    with open(args.artifact) as f:
        d = json.load(f)
    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
    if args.kind == "smoke":
        check_smoke(d, base)
    else:
        check_ladder(d)
        if base:
            check_ladder(base, fresh=False)
            gate_ladder(d, base)


if __name__ == "__main__":
    main()
