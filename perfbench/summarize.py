"""Run the benchmark in sets of seeds and summarise every metric.

    python3 perfbench/summarize.py --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench/baseline.json

Run from the repository root.  It makes SETS sets of runs, one after
another; each set makes one untraced run per seed of every workload, with
the run length from BENCHMARK.json.  Then it makes one traced run of every
workload on each of the first TRACED_SEEDS seeds.  Per workload it writes,
for each end-to-end metric and set, the median, quartiles and quartile
spread ((Q3 - Q1) / median), and how much worse each later set's median is
than the first's (``worse_by``, a share of the first median; negative is
better).  Per-layer metrics are the medians over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2  # a benchmark is accepted when two sets of runs agree within its bounds
TRACED_SEEDS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One benchmark run; returns (result, environment, wall seconds)."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}{done.stderr}")
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return json.loads(lines[-1]), env, wall


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def worse_by(first: float, later: float, better: str) -> float:
    """Share of `first` by which `later` is worse; negative when better."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("need at least 2 seeds for quartiles")
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {name: [] for name in names}  # name -> one list of results per set
    walls = {name: [] for name in names}
    for k in range(SETS):
        for name in names:
            results[name].append([])
            for seed in args.seeds:
                result, env, wall = run(name, seed, seconds, 0)
                results[name][k].append(result)
                walls[name].append(wall)
                print(f"set {k + 1} {name} seed {seed} ({wall:.0f} s): " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
    traced = {name: [run(name, seed, seconds, 1)[0] for seed in args.seeds[:TRACED_SEEDS]]
              for name in names}

    doc = {"run_seconds": seconds, "seeds": args.seeds, "traced_seeds": args.seeds[:TRACED_SEEDS],
           "environment": env, "workloads": {}}
    for name in names:
        end_to_end = {}
        for m in bench["end_to_end"]:
            sets = [summary([r["metrics"][m["name"]]["value"] for r in rs]) for rs in results[name]]
            end_to_end[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "sets": sets,
                "worse_by": [worse_by(sets[0]["median"], s["median"], m["better"]) for s in sets[1:]],
            }
        per_layer = {
            metric: {"unit": value["unit"], "median": statistics.median(
                t["metrics"][metric]["value"] for t in traced[name]),
                "values": [t["metrics"][metric]["value"] for t in traced[name]]}
            for metric, value in traced[name][0]["metrics"].items()
        }
        every = [r for rs in results[name] for r in rs] + traced[name]
        doc["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "run_wall_s": summary(walls[name]),
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
        }
        print(f"{name}: metric, median per set, spread per set, worse_by, bound")
        for metric, e in end_to_end.items():
            print(f"  {metric:22s} " + " ".join(f"{s['median']:10.5g}" for s in e["sets"])
                  + "  " + " ".join(f"{s['spread']:.3f}" for s in e["sets"])
                  + "  " + " ".join(f"{w:+.3f}" for w in e["worse_by"]) + f"  {e['bound']}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
