#!/usr/bin/env python3
"""Self-test of the e2ebench benchmark at a tiny size.

    python3 e2ebench/selftest.py

Runs every workload through run.py --tiny, timed and traced, and asserts:
  - the run is correct (error_rate 0);
  - every metric named in layers.json for that workload and mode is
    emitted with its unit, and nothing unlisted is emitted;
  - the result line carries every BENCHMARK.json metric of the mode;
  - a planted digest mismatch drives error_rate above 0;
  - a planted gate failure drives error_rate above 0.
Exits 0 when every assertion holds.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 7
failures = []


def expect(ok, what):
    print("  %s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "0",
               "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
    ledger_path = next(line.split(": ", 1)[1] for line in out
                       if line.startswith("ledger: "))
    with open(ledger_path) as f:
        return json.loads(out[-1]), json.load(f)["ledger"]


def wanted(layers, workload, trace):
    names = {}
    for m in layers["metrics"]:
        scope = m["workloads"]
        scope = layers[scope] if isinstance(scope, str) else scope
        if workload in scope and m["trace"] <= trace:
            names[m["name"]] = m["unit"]
    return names


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)

    for workload in layers["all"]:
        for trace in (0, 1):
            print("%s trace=%d" % (workload, trace))
            result, ledger = run(workload, trace)
            expect(result["correct"] and result["failed"] == 0,
                   "%s trace=%d is correct" % (workload, trace))
            emitted = {n: m["unit"] for n, m in ledger["metrics"].items()}
            listed = wanted(layers, workload, trace)
            for name, unit in listed.items():
                expect(emitted.get(name) == unit,
                       "%s emitted in %s" % (name, unit))
            expect(set(emitted) <= set(listed),
                   "no unlisted metric: %s" % sorted(set(emitted) - set(listed)))
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"] and
                       isinstance(got.get("value"), (int, float)),
                       "result line has %s" % m["name"])

    print("planted digest mismatch")
    result, _ = run("scorecard", 0, "--plant-digest-mismatch")
    expect(result["failed"] > 0, "digest mismatch drives error_rate > 0")
    print("planted gate failure")
    result, _ = run("gates", 0, "--plant-gate-failure")
    expect(result["failed"] > 0, "gate failure drives error_rate > 0")

    print("selftest: %s" % ("PASS" if not failures else
                            "FAIL (%d)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
