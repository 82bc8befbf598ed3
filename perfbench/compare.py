#!/usr/bin/env python3
"""Compare benchmark run sets from two commits.

    # run both checkouts in alternating order, then compare
    python3 perfbench/compare.py run --base ../parent --head . \\
        --workload train_fixed --workload infer_seg --pairs 10 --out runs/

    # compare run sets recorded earlier
    python3 perfbench/compare.py diff runs/base.jsonl runs/head.jsonl

`run` pairs the i-th base run with the i-th head run on the same seed and
alternates which side runs first. `diff` prints one verdict per
(metric, workload):

  improved    the head wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the base
              runs' interquartile range
  worse       the head median is worse than the base median by more than
              the metric's bound in BENCHMARK.json (metrics without a bound:
              the mirror image of the improved rule)
  unresolved  the base runs spread wider than the bound, so a regression
              within it cannot be told from noise, unless every head run
              is worse than every base run
  unchanged   none of the above

A head side with more failed operations than the base side is flagged:
a gain does not count then.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(path):
    with open(path) as fh:
        spec = json.load(fh)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return spec, metrics


def read_runs(path):
    """{workload: {pair: record}} from a JSONL run file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.setdefault(rec["workload"], {})[rec["pair"]] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, head, better, bound):
    """Verdict for paired value lists (same index = same pair)."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(base)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    gap = sign * (mh - mb)                 # > 0: head is better
    need = math.ceil(0.9 * n)
    all_worse = all(sign * (h - b) < 0 for h in head for b in base)
    if wins >= need and gap > iqr:
        return "improved", wins
    if bound is None:
        if losses >= need and -gap > iqr:
            return "worse", wins
        return "unchanged", wins
    if mb and iqr / abs(mb) > bound and not all_worse:
        return "unresolved", wins
    if -gap > bound * abs(mb):
        return "worse", wins
    return "unchanged", wins


def diff(base_path, head_path, bench_path, out=sys.stdout):
    _, metrics = load_benchmark(bench_path)
    base_runs, head_runs = read_runs(base_path), read_runs(head_path)
    rows = []
    for workload in sorted(set(base_runs) & set(head_runs)):
        pairs = sorted(set(base_runs[workload]) & set(head_runs[workload]))
        if len(pairs) < 10:
            print(f"# {workload}: only {len(pairs)} pairs; a gain needs at least 10", file=out)
        failed = [sum(runs[workload][p]["result"]["failed"] for p in pairs)
                  for runs in (base_runs, head_runs)]
        if failed[1] > failed[0]:
            print(f"# {workload}: head failed {failed[1]} operations, base {failed[0]}; "
                  "no gain counts", file=out)
        for name, (better, bound) in metrics.items():
            vals = []
            for runs in (base_runs, head_runs):
                got = [runs[workload][p]["result"]["metrics"].get(name, {}).get("value")
                       for p in pairs]
                vals.append(got)
            if not pairs or any(v is None for side in vals for v in side):
                continue
            kind, wins = verdict(vals[0], vals[1], better, bound)
            rows.append((workload, name, vals[0], vals[1], wins, len(pairs), kind))
    for workload, name, b, h, wins, n, kind in rows:
        bq, hq = quartiles(b), quartiles(h)
        print(f"{workload:12s} {name:34s} base {statistics.median(b):12.5g} "
              f"[{bq[0]:.5g}, {bq[1]:.5g}]  head {statistics.median(h):12.5g} "
              f"[{hq[0]:.5g}, {hq[1]:.5g}]  wins {wins}/{n}  {kind}", file=out)
    return rows


def run_once(checkout, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def run_pairs(args):
    os.makedirs(args.out, exist_ok=True)
    paths = {side: os.path.join(args.out, f"{side}.jsonl") for side in ("base", "head")}
    checkouts = {"base": args.base, "head": args.head}
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for position, side in enumerate(order):
                result, report = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                rec = {"side": side, "workload": workload, "pair": i, "seed": seed,
                       "position": position, "result": result, "report": report}
                with open(paths[side], "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"{workload} pair {i} {side}: {json.dumps(result['metrics'])}", flush=True)
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run both checkouts in alternating order, then diff")
    r.add_argument("--base", required=True, help="checkout of the parent commit")
    r.add_argument("--head", required=True, help="checkout of the change")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True, help="directory for base.jsonl and head.jsonl")
    d = sub.add_parser("diff", help="compare two recorded run sets")
    d.add_argument("base")
    d.add_argument("head")
    for p in (r, d):
        p.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = load_benchmark(args.benchmark)[0]["run_seconds"]
        paths = run_pairs(args)
        diff(paths["base"], paths["head"], args.benchmark)
    else:
        diff(args.base, args.head, args.benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
