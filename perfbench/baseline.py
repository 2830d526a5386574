"""Measures the starting line of the benchmark and writes BASELINE.json.

Run from the repository root:

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

For each workload it runs the benchmark command of BENCHMARK.json once per
seed 1..10 with tracing off, and once at the default seed with tracing on. It
prints each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median) next to a third of the
metric's bound, and records them with the traced per-layer table and the
run manifest (cores, GOMAXPROCS, Go version, command, seeds, event-queue
backend, output digests). The traced run must print the untraced run's
digest.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {p.returncode}:\n{p.stdout}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(args)}: output check failed")
    head = dict(re.findall(r"(\S+) (\S+)", lines[0]))
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return res, head, digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="perfbench/BASELINE.json")
    opt = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd, secs = bench["command"], bench["run_seconds"]
    out = {"manifest": {}, "end_to_end": {}, "per_layer": {}}
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in SEEDS:
            res, head, digest = run(cmd, name, seed, secs, 0)
            for k in values:
                values[k].append(res["metrics"][k]["value"])
            if seed == 1:
                out["manifest"][name] = {
                    "command": cmd + ["--workload", name, "--seed", "<seed>",
                                      "--seconds", str(secs), "--trace", "0|1"],
                    "seeds": list(SEEDS),
                    "go": head["go"], "cores": int(head["cores"]),
                    "GOMAXPROCS": int(head["GOMAXPROCS"]), "eventq": head["eventq"],
                    "digest_seed1": digest,
                }
        table = {}
        print(name)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            table[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": m["bound"], "runs": v}
            flag = ""
            if spread > m["bound"] / 3:
                flag, ok = "  WIDE", False
            print(f"  {m['name']:12} median {med:14.6g} {m['unit']:5} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  bound/3 {m['bound'] / 3:.4f}{flag}")
        out["end_to_end"][name] = table
        res, _, digest = run(cmd, name, 1, secs, 1)
        if digest != out["manifest"][name]["digest_seed1"]:
            sys.exit(f"{name}: traced run's digest {digest} differs from the untraced run's")
        out["per_layer"][name] = {k: v["value"] for k, v in res["metrics"].items()}
    with open(opt.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("wrote", opt.out, "" if ok else "(some spreads above a third of their bound)")


if __name__ == "__main__":
    main()
