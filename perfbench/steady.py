#!/usr/bin/env python3
"""Collect runs of the benchmark and report how steady they are.

Run from the repository root:

  python3 perfbench/steady.py collect --workload service --seeds 1-10 --out runs/a
  python3 perfbench/steady.py report runs/a            # one set
  python3 perfbench/steady.py report runs/a runs/b     # compare two sets

`collect` runs `bash perfbench/run.sh` once per seed and keeps each
run's standard output as <out>/<workload>-<seed>.out. `report` reads
every .out file of a directory, groups the runs by workload, and prints
for each metric its median, quartiles, the interquartile range and
(max-min) as shares of the median, and the metric's bound from
BENCHMARK.json. An IQR above a third of the bound is flagged. With two
directories it also prints how far the second set's median moved from
the first's in the metric's worse direction, flagged past the bound.
The host's calibration loops are reported the same way, so a slow
episode of the host shows beside the figures it slowed.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.monotonic() - start
        name = f"{args.workload}-{seed}" + ("-trace" if args.trace else "")
        (out / f"{name}.out").write_text(proc.stdout)
        (out / f"{name}.err").write_text(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
        print(f"{name}: exit {proc.returncode} in {wall:.1f}s {last[0][:100]}", flush=True)


def load(directory):
    """Returns {workload: [run]}, run = {"metrics", "correct", "failed"};
    the host's calibration loops join the metrics as host.*."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        header = next((l for l in lines if l.startswith("# perfbench ")), "")
        fields = dict(f.split("=", 1) for f in header.split()[2:])
        meta = next((json.loads(l)["meta"] for l in lines if l.startswith('{"meta"')), {})
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        host = meta.get("host", {})
        for k in ("cpu_loop_ms", "memcopy_loop_ms"):
            if k in host:
                metrics["host." + k] = host[k]
        runs.setdefault(fields.get("workload", path.stem), []).append(
            {"metrics": metrics, "correct": result["correct"], "failed": result["failed"]})
    return runs


def bounds():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        out.setdefault(m["name"], m)
    return out


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def report(args):
    sets = [load(d) for d in args.dirs]
    spec = bounds()
    for workload in sorted(sets[0]):
        first = sets[0][workload]
        bad = sum(1 for r in first if not r["correct"])
        print(f"== {workload}: {len(first)} runs, {bad} not correct")
        print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'iqr%':>7} {'range%':>7} {'bound%':>7}"
              + (f" {'median2':>12} {'worse%':>7}" if len(sets) > 1 else ""))
        for name in sorted(first[0]["metrics"]):
            values = [r["metrics"][name] for r in first if name in r["metrics"]]
            med, q1, q3 = summary(values)
            iqr = (q3 - q1) / med * 100 if med else 0.0
            rng = (max(values) - min(values)) / med * 100 if med else 0.0
            m = spec.get(name, {})
            bound = m.get("bound")
            flag = ""
            if bound is not None and iqr > bound * 100 / 3:
                flag = "  <- iqr above bound/3"
            line = (f"{name:30} {med:12.4f} {q1:12.4f} {q3:12.4f} {iqr:7.2f} {rng:7.2f} "
                    f"{'' if bound is None else f'{bound * 100:.0f}':>7}")
            if len(sets) > 1 and workload in sets[1]:
                values2 = [r["metrics"][name] for r in sets[1][workload] if name in r["metrics"]]
                if values2 and med:
                    med2 = statistics.median(values2)
                    worse = (med2 - med) / med * 100
                    if m.get("better") == "higher":
                        worse = -worse
                    line += f" {med2:12.4f} {worse:7.2f}"
                    if bound is not None and worse > bound * 100:
                        flag += "  <- worse than bound"
            print(line + flag)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
                   if (ROOT / "BENCHMARK.json").exists() else 20)
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("dirs", nargs="+")
    args = ap.parse_args()
    collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    main()
