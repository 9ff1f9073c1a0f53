#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartiles as a share of that
median (statistics.quantiles(values, n=4)), next to the metric's bound.
Run from the repository root:

    python3 e2ebench/spread.py --runs 10 --workloads report-cold,churn,fleet

Each run's JSON line is appended to --log for later inspection.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--log", default=".bench_build/spread.jsonl")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    ok = True
    with open(args.log, "a") as log:
        for w in names:
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.first_seed + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", "0"]
                out = subprocess.run(cmd, capture_output=True, text=True)
                lines = out.stdout.strip().splitlines()
                if out.returncode != 0 or not lines:
                    print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
                    ok = False
                    continue
                res = json.loads(lines[-1])
                loop = [re.search(r"steal ([0-9.]+%); (\d+) more", l) for l in lines]
                loop = [m for m in loop if m]
                steal, dropped = (loop[0].group(1), int(loop[0].group(2))) if loop else (None, None)
                log.write(json.dumps({"workload": w, "seed": seed, "steal": steal,
                                      "not_recorded": dropped, "result": res}) + "\n")
                log.flush()
                if not res["correct"] or res["failed"]:
                    ok = False
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"  {w} seed {seed}: steal {steal}, {dropped} not recorded  "
                      + "  ".join(f"{k} {v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                      flush=True)
            print(f"{w} ({args.runs} runs)")
            for m in metrics:
                v = values[m["name"]]
                if len(v) < 2:
                    continue
                med = statistics.median(v)
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
                bound = m["bound"]
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
                print(f"  {m['name']:<34} median {med:12.4f} {m['unit']:<6} spread {spread:7.4f}"
                      f"  bound {bound}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
