#!/usr/bin/env python3
"""Interleaved before/after benchmark of two commits.

Run from the repository root:

    python3 scripts/abbench.py --base <commit> --head <commit> --out BENCH_<n>.json

It exports both commits with `git archive` into .bench_build/ab, then
alternates runs of the two trees (the base goes first in even pairs, the
head in odd pairs) on the same seeds:

  * perfbench (perfbench/run.py) end-to-end runs of the flow, assign,
    partitioned and serve workloads, and traced flow runs for the
    per-layer wall times;
  * cmd/tdmroute on synopsys01/02 and the large board synopsys05 at
    scale 1.0 (from cmd/gen) with the given worker count, recording wall
    time, the process's user+system time, the stage walls the program
    prints (TA = LR plus legalization and refinement) and the SHA-256 of
    the written solution. One synopsys05 solve takes minutes, so it runs
    its own, smaller number of pairs (--large);
  * cmd/tdmroute -iterate 3 on synopsys01 at scale 1.0 (section
    scale1_iterate), the same records plus the feedback rounds run and
    kept, so the TDM session's reuse across rounds is timed too.

Every section also runs an A/A control: the base tree against itself,
interleaved the same way, for min(5, the section's pairs) pairs. Each
metric's summary reports the A/A spread, the relative change between the
medians of the two base sides, beside gap_exceeds_base_iqr; a change
counts only when exceeds_aa_spread holds too. Last, the head solves each
scale-1.0 board once at 1, 2 and 4 workers (section scale1_workers) and
records whether the solution digests match.

The result is one JSON file with every run, the per-side medians and
quartiles, and how many pairs the head won.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time


# Pairs of each section's A/A control, or the section's own pair count if
# that is smaller.
AA_PAIRS = 5


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def summarize(pairs, metric, aa_pairs, better="lower"):
    base = [p["base"][metric] for p in pairs]
    head = [p["head"][metric] for p in pairs]
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    if better == "lower":
        wins = sum(h < b for b, h in zip(base, head))
    else:
        wins = sum(h > b for b, h in zip(base, head))
    row = {
        "metric": metric,
        "base_median": bmed, "base_q1": bq1, "base_q3": bq3,
        "head_median": hmed, "head_q1": hq1, "head_q3": hq3,
        "change": (hmed - bmed) / bmed if bmed else None,
        "head_wins": wins, "pairs": len(pairs),
        "gap_exceeds_base_iqr": abs(hmed - bmed) > (bq3 - bq1),
        "aa_spread": None, "aa_pairs": len(aa_pairs), "exceeds_aa_spread": None,
    }
    # The A/A spread: the relative change between the medians of the two
    # sides of the base-against-base pairs, which is what the head's change
    # looks like with no code change.
    if aa_pairs:
        first = statistics.median(p["base"][metric] for p in aa_pairs)
        second = statistics.median(p["head"][metric] for p in aa_pairs)
        if first and bmed:
            row["aa_spread"] = abs(second - first) / first
            row["exceeds_aa_spread"] = abs(hmed - bmed) / bmed > row["aa_spread"]
    return row


def export(rev, dest):
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    sha = subprocess.check_output(["git", "rev-parse", rev], text=True).strip()
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.check_call(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit("abbench: git archive %s failed" % rev)
    return sha


def perfbench(tree, workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("abbench: perfbench %s failed in %s" % (workload, tree))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    row = {k: v["value"] for k, v in res["metrics"].items()}
    row["attempted"], row["failed"] = res["attempted"], res["failed"]
    return row


def solve(tree, inst, workers, out, extra=()):
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run(
        [os.path.join(tree, "bin", "tdmroute"), "-in", inst, "-out", out,
         "-workers", str(workers), *extra], stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        sys.exit("abbench: tdmroute failed in %s" % tree)
    m = re.search(r"Time: parse ([\d.]+)s\s+route ([\d.]+)s\s+TA ([\d.]+)s", done.stdout)
    gtr = re.search(r"GTR_max\s+(\d+)", done.stdout)
    with open(out, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    row = {
        "wall_s": wall,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "parse_s": float(m.group(1)), "route_s": float(m.group(2)),
        "ta_s": float(m.group(3)), "gtr_max": int(gtr.group(1)),
        "solution_sha256": digest,
    }
    rounds = re.search(r"(\d+)/(\d+) feedback rounds kept", done.stdout)
    if rounds:
        row["rounds_kept"], row["rounds_run"] = int(rounds.group(1)), int(rounds.group(2))
    return row


def interleave(n, run, trees=("base", "head")):
    """Runs n pairs, alternating which side goes first. Side "head" runs
    the tree trees[1], so trees=("base", "base") is the A/A control."""
    pairs = []
    for i in range(n):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {}
        for side in order:
            pair[side] = run(trees[0] if side == "base" else trees[1], i)
        pairs.append(pair)
        print("abbench: pair %d/%d done" % (i + 1, n), file=sys.stderr)
    return pairs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--pairs", type=int, default=10, help="pairs of flow and partitioned runs")
    ap.add_argument("--few", type=int, default=5, help="pairs of assign, serve and scale-1.0 runs")
    ap.add_argument("--traced", type=int, default=5, help="pairs of traced flow runs")
    ap.add_argument("--large", type=int, default=2, help="pairs of synopsys05 scale-1.0 runs")
    ap.add_argument("--workers", type=int, default=2, help="tdmroute -workers at scale 1.0")
    args = ap.parse_args()

    work = os.path.abspath(os.path.join(".bench_build", "ab"))
    trees = {"base": os.path.join(work, "base"), "head": os.path.join(work, "head")}
    shas = {side: export(getattr(args, side), trees[side]) for side in trees}
    env = dict(os.environ, GOFLAGS="", CGO_ENABLED="0")
    for tree in trees.values():
        subprocess.check_call(["go", "build", "-o", os.path.join(tree, "bin") + os.sep,
                               "./cmd/tdmroute", "./cmd/gen"], cwd=tree, env=env)

    result = {
        "title": "Interleaved before/after: %s vs %s" % (args.base, args.head),
        "date": datetime.date.today().isoformat(),
        "base_commit": shas["base"], "head_commit": shas["head"],
        "regenerate": " ".join(["python3", "scripts/abbench.py"] + [shlex.quote(a) for a in sys.argv[1:]]),
        "machine": {
            "cpus": os.cpu_count(), "platform": platform.platform(),
            "go": subprocess.check_output(["go", "version"], text=True).strip(),
        },
        "method": ("Each pair runs the base and the head tree on the same seed, the base "
                   "first in even pairs and the head first in odd pairs. perfbench runs "
                   "measure %d s each; pair i uses seed 11+i. The A/A control runs the base "
                   "tree on both sides of each pair, the same way." % args.seconds),
        "perfbench": {},
    }

    plan = [("flow", args.pairs, 0), ("partitioned", args.pairs, 0),
            ("assign", args.few, 0), ("serve", args.few, 0),
            ("flow", args.traced, 1)]
    for workload, n, trace in plan:
        run = lambda tree, i: perfbench(trees[tree], workload, 11 + i, args.seconds, trace)
        pairs = interleave(n, run)
        aa_pairs = interleave(min(AA_PAIRS, n), run, ("base", "base"))
        key = workload + ("_traced" if trace else "")
        metrics = (["traced_latency_ms", "traced_p90_ms", "traced_cpu_ms", "topology_ms", "lr_ms",
                    "legal_refine_ms", "allocs_per_op"] if trace else ["cpu_ms", "gtr_mean", "setup_s"])
        result["perfbench"][key] = {
            "summary": [summarize(pairs, m, aa_pairs) for m in metrics],
            "pairs": pairs,
            "aa_pairs": aa_pairs,
        }

    insts = os.path.join(work, "inputs")
    os.makedirs(insts, exist_ok=True)
    plan = [("scale1", "synopsys01", args.few, ()), ("scale1", "synopsys02", args.few, ()),
            ("scale1", "synopsys05", args.large, ()),
            ("scale1_iterate", "synopsys01", args.few, ("-iterate", "3"))]
    generated = set()
    for section, name, n, extra in plan:
        inst = os.path.join(insts, name + ".txt")
        if name not in generated:
            generated.add(name)
            subprocess.check_call([os.path.join(trees["head"], "bin", "gen"), "-name", name,
                                   "-scale", "1.0", "-o", inst], stdout=subprocess.DEVNULL)
        run = lambda tree, i: solve(
            trees[tree], inst, args.workers, os.path.join(insts, "%s.%s.sol" % (name, tree)), extra)
        pairs = interleave(n, run)
        aa_pairs = interleave(min(AA_PAIRS, n), run, ("base", "base"))
        result.setdefault(section, {})[name] = {
            "workers": args.workers,
            "flags": list(extra),
            "digests_match": all(p["base"]["solution_sha256"] == p["head"]["solution_sha256"]
                                 for p in pairs),
            "summary": [summarize(pairs, m, aa_pairs) for m in ("wall_s", "cpu_s", "route_s", "ta_s")],
            "pairs": pairs,
            "aa_pairs": aa_pairs,
        }

    # The head's solution must not depend on the worker count.
    for name in sorted(generated):
        inst = os.path.join(insts, name + ".txt")
        digests = {}
        for w in (1, 2, 4):
            row = solve(trees["head"], inst, w, os.path.join(insts, "%s.w%d.sol" % (name, w)))
            digests[str(w)] = {"solution_sha256": row["solution_sha256"], "gtr_max": row["gtr_max"],
                               "wall_s": row["wall_s"]}
            print("abbench: %s workers %d digest done" % (name, w), file=sys.stderr)
        result.setdefault("scale1_workers", {})[name] = {
            "digests_match": len({d["solution_sha256"] for d in digests.values()}) == 1,
            "by_workers": digests,
        }

    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
