#!/usr/bin/env python3
"""Self-test of the gaea end-to-end benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 2]

Checks that BENCHMARK.json is well formed, then runs every workload briefly
with tracing off and on. Each run must exit 0 and end with a result line
that is correct, has no failed answers, and emits exactly the metrics
BENCHMARK.json names for that mode, each with its declared unit.
"""

import argparse
import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append("BENCHMARK.json has unexpected top-level keys")
    names = set()
    for group, keys in (("workloads", {"name", "why"}),
                        ("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for entry in spec[group]:
            if set(entry) != keys:
                problems.append(f"{group} entry {entry} has the wrong keys")
            name = entry.get("name", "")
            if not NAME.match(name) or name in names:
                problems.append(f"bad or repeated name {name!r}")
            names.add(name)
            if "unit" in entry and not UNIT.match(entry["unit"]):
                problems.append(f"bad unit for {name}")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"why of {name} is too long")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {name} is out of range")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in spec["end_to_end"]):
        problems.append("setup_s is missing")
    return problems


def check_run(spec, workload, trace, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result has the wrong keys")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: failed_op_share is not 0 "
                        f"({result['failed']}/{result['attempted']})")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted must be a whole number >= 1")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{where}: missing {missing} extra {extra} "
                        f"wrong units {wrong}")
    for name, value in result["metrics"].items():
        if not isinstance(value["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    if trace == 0:
        for name, value in result["metrics"].items():
            if value["value"] <= 0:
                problems.append(f"{where}: end-to-end {name} is not positive")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace, args.seconds)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
