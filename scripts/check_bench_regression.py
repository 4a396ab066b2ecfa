#!/usr/bin/env python3
"""Compares a fresh bench_perf JSON against the committed snapshot.

Usage: check_bench_regression.py FRESH_JSON SNAPSHOT_JSON
           [--accept-digest-bump NEW_SNAPSHOT_JSON]

Checks, in order of severity:

1. Determinism digests (HARD FAIL, exit 1). The multi-trial and
   within-trial sections carry an FNV-1a digest over every simulated
   series; the digest is a pure function of the workload parameters
   (num_trials, num_users) and the simulation code, and is independent of
   thread count and machine. A mismatch at equal parameters means the
   simulation's numerical behaviour changed — which must be a deliberate,
   snapshot-refreshing change, never an accident. Sections whose
   parameters differ from the snapshot's are skipped (the digest is not
   comparable), as are sections absent from either run — so a fresh run
   that skips legacy sections (e.g. within_users 0 / fit_rows 0) or an
   old snapshot predating a section (market_scaling arrived in PR 4)
   still checks cleanly. The digest can differ across libm/compiler versions
   (last-ULP changes in exp/erfc), so when a toolchain bump — not a code
   change — moves it, set EQIMPACT_BENCH_DIGEST_WARN_ONLY=1 to downgrade
   the mismatch to a warning for the commit that refreshes the snapshot.

   A *deliberate* numerical change (e.g. PR 6's switch of the normal-CDF
   reference from libm erfc to the pinned rational) is declared instead
   of suppressed: the commit's new snapshot carries a "digest_bump"
   block —

       "digest_bump": {
         "reason": "...why the numbers moved...",
         "sections": {"multi_trial_scaling": {"from": "...", "to": "..."},
                      ...}
       }

   — and the check runs with --accept-digest-bump NEW_SNAPSHOT_JSON. A
   mismatched section is then accepted if and only if the block names
   that exact (from, to) digest pair: `from` must equal the old
   snapshot's digest and `to` the fresh run's. Anything else — an
   undeclared section, a drive-by third digest — still hard-fails, so
   the bump accepts one recorded transition, not arbitrary drift.

2. Intra-run determinism flags (HARD FAIL, exit 1): the fresh run must
   report deterministic_across_thread_counts == true in every section,
   and the simd_scaling section (PR 5) must report
   vector_matches_scalar == true — a vector kernel that is not
   bit-for-bit its scalar reference breaks the layer's contract. The
   simd_scaling digest is checked like the other sections' (it pins the
   kernels' numerical behaviour; it is backend-independent by the same
   contract, so scalar-forced and AVX2 builds must both produce it).
   The phi and fold sections add three more flags of the same severity:
   phi_scaling.vector_matches_scalar, phi_scaling.max_ulp_vs_libm <=
   phi_scaling.ulp_bound (the pinned CDF's documented accuracy
   contract), and fold_scaling.dense_matches_hashed (the dense refit
   fold must leave the fitted scorecards bitwise-unchanged). The PR 7
   shard_scaling section adds three more:
   sharded_matches_unsharded, deterministic_across_shard_counts and
   checkpoint_resume_matches — sharding and checkpoint/resume regroup
   execution and must never move a bit. The PR 8 serving_scaling
   section adds served_digest_matches_cli: every job served over the
   experiment service must carry the same digest AND byte-identical
   payload as a direct engine run + CLI render of the same spec — the
   serving layer is transport, never arithmetic. The same section
   carries a connection_sweep array (1/4/16/64 pipelined connections):
   every sweep point's payloads_match flag — and the folded
   connection_sweep_payloads_match — is checked at the same severity,
   because each point byte-compares every served payload against the
   pre-sweep baseline, and so is cached_p50_within_floor (the cached
   p50 at one connection must stay below cached_p50_floor_ms, so a
   write stall such as Nagle waiting on a delayed ACK fails instead of
   becoming the headline). Snapshots predating these keys simply lack
   them and are skipped. The
   markov_scaling section adds three more: sparse_matches_dense (the
   sparse Ulam operator must equal the dense oracle entry for entry and
   propagate bit for bit), deterministic_across_thread_counts (build,
   matvec and stationary digests bitwise-stable at 1/2/8 threads), and
   stationary_converged; its section digest folds the per-size
   invariant-measure digests and is checked like every other
   section's. Additionally, whenever a run
   (fresh or snapshot) carries both within_trial_scaling and
   shard_scaling at the same workload parameters, their digests must
   agree with each other *within that file* (HARD FAIL): the sharded
   engine reproducing the unsharded sweep is the tentpole contract, and
   this cross-check catches a snapshot refreshed with mismatched halves.
   Older snapshots without a shard_scaling section are fine — the
   section is skipped like any other absent section.

3. Throughput (WARN only, exit 0): wall-clock rates are machine- and
   load-dependent, so regressions beyond the threshold (default 25%) are
   reported as warnings, not failures. Micro benchmarks and the scaling
   sections' sequential rates are compared by name; the scaling
   sections' multi-thread sweep points are compared per thread count,
   except when either run reports hardware_concurrency == 1 — a 1-core
   machine oversubscribes every multi-thread point (the committed
   snapshots are from a 1-core container), so its sweep timings carry no
   signal and the thread-sweep comparison is skipped with a note.

A missing or unparsable input file is a usage/environment error, not a
bench regression: the check exits 1 with a one-line message naming the
file, instead of a traceback — so CI logs say "baseline snapshot
BENCH_perf_prN.json not found" rather than a stack dump.

When $GITHUB_STEP_SUMMARY is set (as it is inside GitHub Actions), the
check also appends a markdown trend summary there: per-section digest
status and the headline throughput deltas vs the snapshot.
"""

import json
import os
import sys

REGRESSION_THRESHOLD = 0.25  # Warn when a rate drops by more than this.
DIGEST_WARN_ONLY = os.environ.get("EQIMPACT_BENCH_DIGEST_WARN_ONLY") == "1"


def fail(message):
    print(f"FAIL: {message}")
    return 1


def load_json_or_die(path, label):
    """Reads one input file; a missing or unparsable file exits 1 with a
    one-line message instead of a traceback."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"FAIL: {label} '{path}' cannot be read: {e.strerror or e}")
        sys.exit(1)
    except json.JSONDecodeError as e:
        print(
            f"FAIL: {label} '{path}' is not valid JSON "
            f"(line {e.lineno}, column {e.colno}: {e.msg})"
        )
        sys.exit(1)


def sequential_rate(section, key):
    for run in section.get("runs", []):
        if run.get("num_threads") == 1:
            return run.get(key)
    return None


def largest_cells_rate(section, key):
    """The markov_scaling rate at the largest discretisation in the run."""
    best = None
    for run in section.get("runs", []):
        if best is None or run.get("num_cells", 0) > best.get("num_cells", 0):
            best = run
    return best.get(key) if best else None


def compare_digests(fresh, snapshot, section, params, accepted_bumps=None):
    """Returns (errors, notes) for one scaling section."""
    f = fresh.get(section)
    s = snapshot.get(section)
    if f is None or s is None:
        return 0, [f"{section}: absent from fresh or snapshot, skipped"]
    for param in params:
        if f.get(param) != s.get(param):
            return 0, [
                f"{section}: {param} differs "
                f"({f.get(param)} vs {s.get(param)}), digest not comparable"
            ]
    if f.get("digest") != s.get("digest"):
        bump = (accepted_bumps or {}).get(section)
        if (
            bump is not None
            and bump.get("from") == s.get("digest")
            and bump.get("to") == f.get("digest")
        ):
            return 0, [
                f"{section}: digest moved {s.get('digest')} -> "
                f"{f.get('digest')}, accepted by the declared digest bump"
            ]
        message = (
            f"{section}: determinism digest mismatch at equal "
            f"parameters ({f.get('digest')} vs snapshot "
            f"{s.get('digest')}) — the simulation changed; if "
            "intentional, refresh the BENCH snapshot in the same commit "
            "(toolchain-only drift: re-run with "
            "EQIMPACT_BENCH_DIGEST_WARN_ONLY=1)"
        )
        if DIGEST_WARN_ONLY:
            return 0, [f"WARN-ONLY {message}"]
        return fail(message), []
    return 0, [f"{section}: digest OK ({f.get('digest')})"]


def check_rate(name, fresh_rate, snapshot_rate, warnings):
    if not fresh_rate or not snapshot_rate:
        return
    ratio = fresh_rate / snapshot_rate
    if ratio < 1.0 - REGRESSION_THRESHOLD:
        warnings.append(
            f"{name}: {fresh_rate:.1f} vs snapshot {snapshot_rate:.1f} "
            f"({(1.0 - ratio) * 100.0:.0f}% slower)"
        )


def headline_rates(fresh, snapshot):
    """(name, fresh_rate, snapshot_rate) triples for the trend summary."""
    rows = []
    for name, section, key in (
        ("multi_trial trials/sec (1 thread)", "multi_trial_scaling",
         "trials_per_sec"),
        ("within_trial user-years/sec (1 thread)", "within_trial_scaling",
         "user_years_per_sec"),
        ("fit fits/sec (1 thread)", "fit_scaling", "fits_per_sec"),
        ("market trials/sec (1 thread)", "market_scaling",
         "trials_per_sec"),
    ):
        rows.append((
            name,
            sequential_rate(fresh.get(section, {}), key),
            sequential_rate(snapshot.get(section, {}), key),
        ))
    for name, section, key in (
        ("phi vector elems/sec", "phi_scaling", "vector_elems_per_sec"),
        ("fold dense user-years/sec", "fold_scaling",
         "dense_user_years_per_sec"),
        ("serving jobs/sec", "serving_scaling", "jobs_per_sec"),
        ("serving p50 latency ms", "serving_scaling", "p50_latency_ms"),
        ("serving p95 latency ms", "serving_scaling", "p95_latency_ms"),
    ):
        rows.append((
            name,
            fresh.get(section, {}).get(key),
            snapshot.get(section, {}).get(key),
        ))
    rows.append((
        "markov matvec entries/sec (largest cells)",
        largest_cells_rate(
            fresh.get("markov_scaling", {}), "matvec_entries_per_sec"
        ),
        largest_cells_rate(
            snapshot.get("markov_scaling", {}), "matvec_entries_per_sec"
        ),
    ))
    return rows


def write_step_summary(fresh, snapshot, digest_sections, errors, warnings):
    """Appends a markdown trend block to $GITHUB_STEP_SUMMARY, if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Bench trend vs snapshot", ""]
    if errors:
        lines.append(
            f"**{errors} hard determinism failure(s)** — see the job log."
        )
    else:
        lines.append(
            f"Passed with {len(warnings)} throughput warning(s) "
            f"(warn threshold {REGRESSION_THRESHOLD:.0%})."
        )
    lines += [
        "",
        "### Determinism digests",
        "",
        "| Section | Fresh | Snapshot | Status |",
        "| --- | --- | --- | --- |",
    ]
    for section, params in digest_sections:
        f = fresh.get(section)
        s = snapshot.get(section)
        if f is None or s is None:
            status = "skipped (absent)"
        elif any(f.get(p) != s.get(p) for p in params):
            status = "skipped (parameters differ)"
        elif f.get("digest") == s.get("digest"):
            status = "match"
        else:
            status = "**MISMATCH**"
        fresh_digest = f.get("digest", "—") if f else "—"
        snapshot_digest = s.get("digest", "—") if s else "—"
        lines.append(
            f"| {section} | `{fresh_digest}` | `{snapshot_digest}` "
            f"| {status} |"
        )
    lines += [
        "",
        "### Throughput deltas",
        "",
        "| Metric | Fresh | Snapshot | Delta |",
        "| --- | ---: | ---: | ---: |",
    ]
    for name, fresh_rate, snapshot_rate in headline_rates(fresh, snapshot):
        if not fresh_rate or not snapshot_rate:
            continue
        delta = (fresh_rate / snapshot_rate - 1.0) * 100.0
        lines.append(
            f"| {name} | {fresh_rate:.1f} | {snapshot_rate:.1f} "
            f"| {delta:+.1f}% |"
        )
    if warnings:
        lines += ["", "### Regression warnings", ""]
        lines += [f"- {warning}" for warning in warnings]
    with open(path, "a") as out:
        out.write("\n".join(lines) + "\n")


def check_thread_sweep(section_name, fresh, snapshot, rate_key, warnings):
    """Compares a scaling section's rates per matching thread count."""
    snapshot_runs = {
        run.get("num_threads"): run.get(rate_key)
        for run in snapshot.get(section_name, {}).get("runs", [])
    }
    for run in fresh.get(section_name, {}).get("runs", []):
        threads = run.get("num_threads")
        if threads == 1:
            continue  # Sequential rates are compared separately.
        check_rate(
            f"{section_name} {rate_key} ({threads} threads)",
            run.get(rate_key),
            snapshot_runs.get(threads),
            warnings,
        )


def main(argv):
    args = list(argv[1:])
    bump_path = None
    if "--accept-digest-bump" in args:
        at = args.index("--accept-digest-bump")
        if at + 1 >= len(args):
            print(__doc__)
            return 2
        bump_path = args[at + 1]
        del args[at : at + 2]
    if len(args) != 2:
        print(__doc__)
        return 2
    fresh = load_json_or_die(args[0], "fresh bench run")
    snapshot = load_json_or_die(args[1], "baseline snapshot")

    errors = 0
    notes = []

    # The declared one-transition digest acceptances, if any (see the
    # module docstring): read from the *new* snapshot's digest_bump
    # block, never from the run being checked.
    accepted_bumps = None
    if bump_path is not None:
        bump_block = load_json_or_die(
            bump_path, "--accept-digest-bump snapshot"
        ).get("digest_bump")
        if not bump_block:
            notes.append(
                f"--accept-digest-bump: {bump_path} declares no "
                "digest_bump block; digests must match exactly"
            )
        else:
            accepted_bumps = bump_block.get("sections", {})
            notes.append(
                "digest bump declared for "
                f"{sorted(accepted_bumps)} — reason: "
                f"{bump_block.get('reason', '(none given)')}"
            )

    # 1. Digests at matching workload parameters.
    digest_sections = [
        ("multi_trial_scaling", ["num_trials", "num_users"]),
        ("within_trial_scaling", ["num_users", "num_years"]),
        ("fit_scaling", ["num_rows"]),
        ("market_scaling", ["num_trials", "num_workers", "num_rounds"]),
        ("simd_scaling", ["num_values"]),
        ("phi_scaling", ["num_values"]),
        ("fold_scaling", ["num_users", "num_user_years"]),
        ("shard_scaling", ["num_users", "num_years"]),
        ("serving_scaling", ["num_jobs", "num_distinct"]),
        ("markov_scaling", ["max_cells", "num_maps"]),
    ]
    for section, params in digest_sections:
        e, n = compare_digests(
            fresh, snapshot, section, params, accepted_bumps
        )
        errors += e
        notes += n

    # 1b. Sharded-vs-unsharded cross-check within each file: a run that
    # carries both sections at the same workload must report one digest.
    for label, run in (("fresh", fresh), ("snapshot", snapshot)):
        within = run.get("within_trial_scaling")
        shard = run.get("shard_scaling")
        if within is None or shard is None:
            continue
        if any(
            within.get(param) != shard.get(param)
            for param in ("num_users", "num_years")
        ):
            continue
        if within.get("digest") != shard.get("digest"):
            errors += fail(
                f"{label}: shard_scaling digest ({shard.get('digest')}) "
                "differs from within_trial_scaling "
                f"({within.get('digest')}) at equal parameters — the "
                "sharded engine is not reproducing the unsharded sweep"
            )

    # 2. The fresh run must itself be thread-count deterministic.
    for section in (
        "multi_trial_scaling",
        "within_trial_scaling",
        "fit_scaling",
        "market_scaling",
        "markov_scaling",
    ):
        if section in fresh and not fresh[section].get(
            "deterministic_across_thread_counts", True
        ):
            errors += fail(f"{section}: fresh run is not deterministic")
    if "simd_scaling" in fresh and not fresh["simd_scaling"].get(
        "vector_matches_scalar", True
    ):
        errors += fail(
            "simd_scaling: a vector kernel is not bitwise-equal to its "
            "scalar reference"
        )
    if "phi_scaling" in fresh:
        phi = fresh["phi_scaling"]
        if not phi.get("vector_matches_scalar", True):
            errors += fail(
                "phi_scaling: the vector normal CDF is not bitwise-equal "
                "to the pinned scalar reference"
            )
        max_ulp = phi.get("max_ulp_vs_libm")
        bound = phi.get("ulp_bound")
        if (
            max_ulp is not None
            and bound is not None
            and max_ulp > bound
        ):
            errors += fail(
                f"phi_scaling: max ulp vs libm ({max_ulp}) exceeds the "
                f"documented bound ({bound})"
            )
    if "fold_scaling" in fresh and not fresh["fold_scaling"].get(
        "dense_matches_hashed", True
    ):
        errors += fail(
            "fold_scaling: the dense refit fold does not reproduce the "
            "hashed fold's results bitwise"
        )
    if "shard_scaling" in fresh:
        shard = fresh["shard_scaling"]
        for flag, meaning in (
            (
                "sharded_matches_unsharded",
                "a sharded run's digest differs from the unsharded run's",
            ),
            (
                "deterministic_across_shard_counts",
                "the digest moved across shard counts",
            ),
            (
                "checkpoint_resume_matches",
                "a trial resumed from a mid-run checkpoint did not "
                "reproduce the uninterrupted digest",
            ),
        ):
            if not shard.get(flag, True):
                errors += fail(f"shard_scaling: {meaning}")
    if "serving_scaling" in fresh:
        serving = fresh["serving_scaling"]
        if not serving.get("served_digest_matches_cli", True):
            errors += fail(
                "serving_scaling: a served result's digest or payload "
                "differs from the direct engine run + CLI render of the "
                "same spec — the serving layer changed the numbers"
            )
        # PR 10 connection sweep: each point byte-compares every payload
        # served over N pipelined connections against the pre-sweep
        # baseline. Absent in older runs (pre-sweep snapshots) — skipped
        # like any other absent section.
        if not serving.get("connection_sweep_payloads_match", True):
            errors += fail(
                "serving_scaling: connection_sweep_payloads_match is "
                "false — some payload served during the connection sweep "
                "differs from the baseline render of the same spec"
            )
        for point in serving.get("connection_sweep", []):
            if not point.get("payloads_match", True):
                errors += fail(
                    "serving_scaling connection_sweep: payload mismatch "
                    f"at connections={point.get('connections')} — the "
                    "transport corrupted or dropped a served payload"
                )
        if not serving.get("cached_p50_within_floor", True):
            errors += fail(
                "serving_scaling: cached p50 at one connection is not "
                f"below {serving.get('cached_p50_floor_ms')} ms — a write "
                "stall (e.g. Nagle waiting on a delayed ACK) is back"
            )
    if "markov_scaling" in fresh:
        markov = fresh["markov_scaling"]
        for flag, meaning in (
            (
                "sparse_matches_dense",
                "the sparse Ulam operator diverged from the dense oracle "
                "(matrix entries, bitwise Propagate, or the stationary "
                "measure)",
            ),
            (
                "stationary_converged",
                "a stationary solve failed to converge",
            ),
        ):
            if not markov.get(flag, True):
                errors += fail(f"markov_scaling: {meaning}")

    # 3. Throughput trend (warnings only).
    warnings = []
    check_rate(
        "multi_trial trials/sec (1 thread)",
        sequential_rate(fresh.get("multi_trial_scaling", {}), "trials_per_sec"),
        sequential_rate(
            snapshot.get("multi_trial_scaling", {}), "trials_per_sec"
        ),
        warnings,
    )
    check_rate(
        "within_trial user-years/sec (1 thread)",
        sequential_rate(
            fresh.get("within_trial_scaling", {}), "user_years_per_sec"
        ),
        sequential_rate(
            snapshot.get("within_trial_scaling", {}), "user_years_per_sec"
        ),
        warnings,
    )
    check_rate(
        "fit_scaling fits/sec (1 thread)",
        sequential_rate(fresh.get("fit_scaling", {}), "fits_per_sec"),
        sequential_rate(snapshot.get("fit_scaling", {}), "fits_per_sec"),
        warnings,
    )
    check_rate(
        "market_scaling trials/sec (1 thread)",
        sequential_rate(fresh.get("market_scaling", {}), "trials_per_sec"),
        sequential_rate(snapshot.get("market_scaling", {}), "trials_per_sec"),
        warnings,
    )

    # Thread-sweep points: meaningless when either side ran on one core
    # (every multi-thread point is oversubscribed there), so suppressed.
    if (
        fresh.get("hardware_concurrency") == 1
        or snapshot.get("hardware_concurrency") == 1
    ):
        notes.append(
            "thread-sweep comparison skipped: hardware_concurrency == 1 "
            f"(fresh {fresh.get('hardware_concurrency')}, snapshot "
            f"{snapshot.get('hardware_concurrency')})"
        )
    else:
        check_thread_sweep(
            "multi_trial_scaling", fresh, snapshot, "trials_per_sec", warnings
        )
        check_thread_sweep(
            "within_trial_scaling",
            fresh,
            snapshot,
            "user_years_per_sec",
            warnings,
        )
        check_thread_sweep(
            "fit_scaling", fresh, snapshot, "fits_per_sec", warnings
        )
        check_thread_sweep(
            "market_scaling", fresh, snapshot, "trials_per_sec", warnings
        )
    snapshot_micro = {
        m["name"]: m.get("items_per_sec")
        for m in snapshot.get("micro", [])
    }
    for micro in fresh.get("micro", []):
        check_rate(
            f"micro {micro['name']}",
            micro.get("items_per_sec"),
            snapshot_micro.get(micro["name"]),
            warnings,
        )
    # simd_scaling kernel rates, by name (warn only, like every rate; the
    # scalar and vector paths are compared separately so a dispatch
    # regression shows up even when the scalar reference is unchanged).
    snapshot_kernels = {
        k["name"]: k
        for k in snapshot.get("simd_scaling", {}).get("kernels", [])
    }
    for kernel in fresh.get("simd_scaling", {}).get("kernels", []):
        reference = snapshot_kernels.get(kernel["name"], {})
        for rate_key in ("scalar_elems_per_sec", "simd_elems_per_sec"):
            check_rate(
                f"simd {kernel['name']} {rate_key}",
                kernel.get(rate_key),
                reference.get(rate_key),
                warnings,
            )
    for rate_key in (
        "scalar_elems_per_sec",
        "vector_elems_per_sec",
        "libm_elems_per_sec",
    ):
        check_rate(
            f"phi_scaling {rate_key}",
            fresh.get("phi_scaling", {}).get(rate_key),
            snapshot.get("phi_scaling", {}).get(rate_key),
            warnings,
        )
    for rate_key in (
        "hashed_user_years_per_sec",
        "dense_user_years_per_sec",
    ):
        check_rate(
            f"fold_scaling {rate_key}",
            fresh.get("fold_scaling", {}).get(rate_key),
            snapshot.get("fold_scaling", {}).get(rate_key),
            warnings,
        )
    # shard_scaling rates, per shard count (the section pins one thread,
    # so these stay meaningful on 1-core machines).
    snapshot_shards = {
        run.get("num_shards"): run.get("user_years_per_sec")
        for run in snapshot.get("shard_scaling", {}).get("runs", [])
    }
    for run in fresh.get("shard_scaling", {}).get("runs", []):
        check_rate(
            f"shard_scaling user-years/sec ({run.get('num_shards')} shards)",
            run.get("user_years_per_sec"),
            snapshot_shards.get(run.get("num_shards")),
            warnings,
        )
    # Serving throughput: end-to-end jobs/sec through the experiment
    # service (admission + scheduling + render + transport), warn-only
    # like every other rate.
    check_rate(
        "serving_scaling jobs/sec",
        fresh.get("serving_scaling", {}).get("jobs_per_sec"),
        snapshot.get("serving_scaling", {}).get("jobs_per_sec"),
        warnings,
    )
    # Connection-sweep rates, per connection count. Warn only, like
    # every rate; an older snapshot without the sweep has no reference
    # points and contributes nothing, and points of the removed threads
    # transport (BENCH_perf_pr10.json) are not comparable.
    snapshot_sweep = {
        point.get("connections"): point.get("jobs_per_sec")
        for point in snapshot.get("serving_scaling", {}).get(
            "connection_sweep", []
        )
        if point.get("transport", "epoll") == "epoll"
    }
    for point in fresh.get("serving_scaling", {}).get(
        "connection_sweep", []
    ):
        connections = point.get("connections")
        check_rate(
            f"serving_scaling connection_sweep jobs/sec "
            f"({connections} conns)",
            point.get("jobs_per_sec"),
            snapshot_sweep.get(connections),
            warnings,
        )
    # markov_scaling rates, per cell count (sparse matvec and build are
    # single-number-per-size; compared by num_cells, warn-only).
    snapshot_markov = {
        run.get("num_cells"): run
        for run in snapshot.get("markov_scaling", {}).get("runs", [])
    }
    for run in fresh.get("markov_scaling", {}).get("runs", []):
        reference = snapshot_markov.get(run.get("num_cells"), {})
        check_rate(
            f"markov_scaling matvec entries/sec ({run.get('num_cells')} "
            "cells)",
            run.get("matvec_entries_per_sec"),
            reference.get("matvec_entries_per_sec"),
            warnings,
        )

    for note in notes:
        print(f"note: {note}")
    for warning in warnings:
        print(f"WARNING (>{REGRESSION_THRESHOLD:.0%} regression): {warning}")
    write_step_summary(fresh, snapshot, digest_sections, errors, warnings)
    if errors:
        return 1
    print(
        f"bench trend check passed "
        f"({len(warnings)} throughput warning(s), 0 digest errors)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
