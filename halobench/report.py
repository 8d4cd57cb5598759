#!/usr/bin/env python3
"""Steadiness report: are two sets of benchmark runs within BENCHMARK.json's bounds?

    python3 halobench/report.py --runs 10 --sets 2

Each set runs every workload once per seed (seeds 1 .. runs, the same
seeds in every set) through run.py with BENCHMARK.json's run_seconds,
and saves each run's record and result under .halobench/report/. For
every end-to-end metric x workload the report prints each set's median
and its spread, the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, and the second
set's drift from the first in the metric's worse direction.

A spread above the metric's bound fails, setup_s included, as does a
drift above it; a spread above a third of the bound is flagged "wide".
Every run must be correct with no failed operation, and one seed must
give one output digest in every set. Exit status 1 on any failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

OUT = os.path.join(".halobench", "report")


def load_benchmark():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "halobench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = p.stdout.decode().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "exit": p.returncode, "record": None, "result": None}
    return {
        "workload": workload,
        "seed": seed,
        "exit": p.returncode,
        "record": json.loads(lines[-2]).get("halobench_record"),
        "result": json.loads(lines[-1]),
    }


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def analyze(runs, bench):
    failures = []
    metrics = bench["end_to_end"]
    sets = sorted({r["set"] for r in runs})
    for r in runs:
        res = r["result"]
        if res is None:
            failures.append(f"{r['workload']} seed {r['seed']} set {r['set']}: exit {r['exit']}")
        elif not res["correct"] or res["failed"] != 0:
            failures.append(f"{r['workload']} seed {r['seed']} set {r['set']}: correct={res['correct']} failed={res['failed']}")
    digests = {}
    for r in runs:
        if r["record"]:
            digests.setdefault((r["workload"], r["seed"]), set()).add(r["record"]["output_digest"])
    for (w, s), ds in sorted(digests.items()):
        if len(ds) > 1:
            failures.append(f"{w} seed {s}: output digest differs between sets")
    print(f"{'workload':<12} {'metric':<22} {'bound':>5} " + " ".join(
        f"{'median' + str(k):>12} {'spread' + str(k):>8}" for k in sets) + f" {'drift':>7}  verdict")
    for w in [x["name"] for x in bench["workloads"]]:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, meds = [], []
            verdict = "ok"
            for k in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and r["set"] == k and r["result"]]
                if not vals:
                    cols.append(f"{'-':>12} {'-':>8}")
                    meds.append(None)
                    continue
                med, sp = spread(vals)
                meds.append(med)
                cols.append(f"{med:>12.6g} {sp:>8.4f}")
                if sp > bound:
                    verdict = "FAIL spread"
                    failures.append(f"{w} {name}: set {k} spread {sp:.4f} > bound {bound}")
                elif sp > bound / 3 and verdict == "ok":
                    verdict = "wide"
            drift = ""
            if len(meds) >= 2 and meds[0] and meds[-1] is not None:
                worse = (meds[-1] - meds[0]) / abs(meds[0])
                if m["better"] == "higher":
                    worse = -worse
                drift = f"{worse:+.4f}"
                if worse > bound:
                    verdict = "FAIL drift"
                    failures.append(f"{w} {name}: drift {worse:+.4f} > bound {bound}")
            if all(x is None for x in meds):
                continue
            print(f"{w:<12} {name:<22} {bound:>5} " + " ".join(cols) + f" {drift:>7}  {verdict}")
    for f in failures:
        print("FAIL", f)
    print("report:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    a = ap.parse_args()
    bench = load_benchmark()
    os.makedirs(OUT, exist_ok=True)
    runs = []
    for k in range(1, a.sets + 1):
        for w in [x["name"] for x in bench["workloads"]]:
            for seed in range(1, a.runs + 1):
                r = run_once(w, seed, bench["run_seconds"])
                r["set"] = k
                runs.append(r)
                with open(os.path.join(OUT, f"set{k}-{w}-seed{seed}.json"), "w") as fh:
                    json.dump(r, fh)
                wall = r["result"]["metrics"]["wall_s"]["value"] if r["result"] else float("nan")
                print(f"set {k} {w} seed {seed}: exit {r['exit']} wall_s {wall:.3f}", file=sys.stderr, flush=True)
    sys.exit(analyze(runs, bench))


if __name__ == "__main__":
    main()
