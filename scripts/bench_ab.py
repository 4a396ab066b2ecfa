#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark: base vs working tree.

    python3 scripts/bench_ab.py --base REV [--workloads credit_cohort,...]
        [--seeds 42,7] [--pairs 10] [--workdir DIR]

Run it from the repository root. The base revision is exported with
`git archive` into WORKDIR, so the repository's git state is never
touched and an interrupted run leaves nothing registered. Each side runs
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds in its own
tree, which builds its own `.bench_build/` there; nothing under
perfbench/ is edited. For every workload and seed the script runs PAIRS
pairs, alternating which side goes first, prints every run's metrics,
and then prints for every end-to-end metric of BENCHMARK.json:

  - each side's median and quartiles over the kept pairs;
  - the change in the median, relative to the base median;
  - wins: pairs in which head beat base in the metric's better
    direction (ties count for neither side);
  - gain: wins >= 9/10 of the pairs and the medians differ, in the
    better direction, by more than the base runs' interquartile range;
  - bound: "WORSE than bound" when head's median is worse than base's by
    more than the metric's BENCHMARK.json bound, else "within bound";
    when the base runs' IQR is itself wider than the bound, "unresolved"
    unless every head run beat every base run.

A pair is dropped from the verdicts when either of its runs exits
non-zero, prints no result, reports correct=false or fails operations;
the problem is printed with the run, and the number of dropped pairs
with the verdicts. Exit code: 0 if no pair was dropped.

After the verdicts the script reports the code layout of the two
`.bench_build/perfbench/perfbench` binaries it ran, read with `nm -C`:
the address mod 32 of each hot symbol on each side (the credit engine's
year, its chunk pass and in-order stages, the binned refit, the
accumulator's fold, the sparse stationary solver and the AVX2 kernels),
and how many of the
`eqimpact::` text symbols both binaries hold moved mod 32. On Intel
CPUs with the jump-conditional-code erratum a hot loop that moves mod 32
can shift a reading by several percent with its code untouched, so an
A/B that moves untouched code is checked against this report first.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("bench_ab: " + message, file=sys.stderr)
    sys.exit(2)


def export_revision(revision, destination):
    """Writes the committed tree of `revision` to `destination`."""
    os.makedirs(destination, exist_ok=True)
    with tempfile.TemporaryFile() as archive:
        if subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                           revision], stdout=archive).returncode != 0:
            fail("git archive %s failed" % revision)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(destination)


def run_once(tree, workload, seed, seconds):
    """One perfbench run; returns (metrics dict or None, problem or None)."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    run = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "no result line (exit %d)" % run.returncode
    problems = []
    if run.returncode != 0:
        problems.append("exit %d" % run.returncode)
    if not result.get("correct", False):
        problems.append("correct=false")
    if result.get("failed", 0):
        problems.append("failed %s of %s" % (result.get("failed"),
                                             result.get("attempted")))
    metrics = {name: entry["value"]
               for name, entry in result.get("metrics", {}).items()}
    return metrics, ", ".join(problems) or None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(pairs, better, bound):
    """The gain and bound verdicts of one metric over (base, head) pairs."""
    sign = 1.0 if better == "higher" else -1.0
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    base_q1, base_q3 = quartiles(base)
    head_q1, head_q3 = quartiles(head)
    gap = sign * (head_median - base_median)  # > 0: head is better.
    scale = abs(base_median) or 1.0
    if (base_q3 - base_q1) / scale > bound:
        every = all(sign * (h - b) > 0 for h in head for b in base)
        verdict = "better in every run" if every else "unresolved"
    elif -gap / scale > bound:
        verdict = "WORSE than bound"
    else:
        verdict = "within bound"
    return {
        "base_median": base_median, "base_q1": base_q1, "base_q3": base_q3,
        "head_median": head_median, "head_q1": head_q1, "head_q3": head_q3,
        "change": (head_median - base_median) / scale,
        "wins": wins, "pairs": len(pairs),
        "gain": wins * 10 >= 9 * len(pairs) and gap > base_q3 - base_q1,
        "bound": verdict,
    }


# Demangled names of the hot functions the layout report follows.
HOT_SYMBOLS = re.compile(
    r"CreditScoringLoop::Run\(|StepYear\(|ForEachChunk\(|"
    r"ChunkStages::Done\(|AdrAccumulator::AddRun\(|"
    r"BinnedDataset::AddRow\(|BinnedDataset::AddCounts\(|"
    r"LogisticRegression::Fit\(|AdrAccumulator::FoldRuns<|"
    r"SparseStationaryDistribution\(|Avx2\(")
NM_TEXT = re.compile(r"^([0-9a-f]+) [tTwW] (.*)$")
# The chunk pass and the stages are lambdas called through std::function.
HANDLER = re.compile(r"std::_Function_handler<.*?, (eqimpact::.*)>::_M_invoke\(")


def short_name(name):
    """A hot symbol as the report prints it: a std::function handler as
    its lambda, without namespaces or StepYear's parameter list."""
    match = HANDLER.match(name)
    if match:
        name = match.group(1)
    name = name.replace("(anonymous namespace)::", "").replace(
        "eqimpact::", "")
    return re.sub(r"StepYear\(.*?\)::", "StepYear()::", name)


def text_symbols(binary):
    """Demangled name -> sorted addresses mod 32 of a binary's text
    symbols, or None when the binary or nm is missing."""
    try:
        run = subprocess.run(["nm", "-C", binary], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    if run.returncode != 0:
        return None
    symbols = {}
    for line in run.stdout.splitlines():
        match = NM_TEXT.match(line)
        if match:
            symbols.setdefault(match.group(2), []).append(
                int(match.group(1), 16) % 32)
    return {name: sorted(mods) for name, mods in symbols.items()}


def report_layout(trees):
    binaries = {side: os.path.join(tree, ".bench_build", "perfbench",
                                   "perfbench")
                for side, tree in trees.items()}
    symbols = {side: text_symbols(binary)
               for side, binary in binaries.items()}
    print("\ncode layout (nm -C on each side's %s), address mod 32:" %
          os.path.join(".bench_build", "perfbench", "perfbench"))
    if symbols["base"] is None or symbols["head"] is None:
        print("  no layout: a binary or nm is missing")
        return
    hot = {name for side in ("base", "head") for name in symbols[side]
           if HOT_SYMBOLS.search(name) and "[clone .cold]" not in name
           and "_M_manager" not in name}
    print("  %5s %5s  %s" % ("base", "head", "symbol"))
    for name in sorted(hot):
        cells = [",".join(str(m) for m in symbols[side][name])
                 if name in symbols[side] else "-"
                 for side in ("base", "head")]
        print("  %5s %5s  %s" % (cells[0], cells[1], short_name(name)))
    common = [name for name in symbols["base"]
              if "eqimpact::" in name and name in symbols["head"]]
    moved = sum(1 for name in common
                if symbols["base"][name] != symbols["head"][name])
    print("  %d of %d common eqimpact:: text symbols moved mod 32" % (
        moved, len(common)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--workloads", help="comma list (default: all)")
    parser.add_argument("--seeds", default="42")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workdir")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = spec["end_to_end"]

    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_ab_")
    trees = {"base": os.path.join(workdir, "base"), "head": ROOT}
    export_revision(args.base, trees["base"])
    print("base %s in %s, head: the working tree" % (args.base,
                                                     trees["base"]))

    dropped_any = False
    for workload in workloads:
        for seed in seeds:
            pairs = []  # (base metrics, head metrics) of clean pairs.
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                runs = {}
                for side in order:
                    values, problem = run_once(trees[side], workload, seed,
                                               seconds)
                    runs[side] = None if problem else values
                    print("  %s seed %d pair %d %s: %s" % (
                        workload, seed, pair, side,
                        problem or json.dumps(values, sort_keys=True)),
                        flush=True)
                if runs["base"] is not None and runs["head"] is not None:
                    pairs.append((runs["base"], runs["head"]))
            dropped = args.pairs - len(pairs)
            dropped_any = dropped_any or dropped > 0
            print("\n%s, seed %d, %d pairs of %g s runs, %d dropped" % (
                workload, seed, args.pairs, seconds, dropped))
            print("  %-14s %24s %24s %8s %6s %5s  %s" % (
                "metric", "base median [q1, q3]", "head median [q1, q3]",
                "change", "wins", "gain", "bound"))
            for metric in metrics:
                name = metric["name"]
                kept = [(b[name], h[name]) for b, h in pairs
                        if name in b and name in h]
                if not kept:
                    print("  %-14s no clean pairs" % name)
                    continue
                v = judge(kept, metric["better"], metric["bound"])
                print("  %-14s %9.4g [%.4g, %.4g] %9.4g [%.4g, %.4g] "
                      "%+7.1f%% %2d/%-3d %5s  %s" % (
                          name, v["base_median"], v["base_q1"],
                          v["base_q3"], v["head_median"], v["head_q1"],
                          v["head_q3"], 100.0 * v["change"], v["wins"],
                          v["pairs"], "yes" if v["gain"] else "no",
                          v["bound"]), flush=True)
    report_layout(trees)
    sys.exit(1 if dropped_any else 0)


if __name__ == "__main__":
    main()
