#!/usr/bin/env python3
"""End-to-end host-time benchmark of the eclsim pipeline.

    python3 e2ebench/run.py --workload scorecard --seed 1 --seconds 15 --trace 0

Builds e2ebench/ (and the src/ libraries it links) on first use, runs
one workload in one process, checks its outputs, and prints every metric
by name and unit. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones (and writes a Chrome trace of host-clock spans). The
full ledger -- every metric with its numerator and denominator, the
checks, and the box fingerprint -- goes to
<build>/results/<workload>-seed<N>-trace<T>.json.

Extra flags: --record stores this run's digest and exact counts in
e2ebench/expected.json; --tiny, --plant-digest-mismatch and
--plant-gate-failure serve the self-test (selftest.py).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ("scorecard", "undirected", "gates")
RUN_TIMEOUT_S = 175


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the e2ebench binary; return its path."""
    build_dir = os.path.join(build_root(), "e2ebench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "e2ebench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tree_digest():
    """SHA-256 over the sources the binary is built from."""
    sha = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name == "expected.json" or name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                sha.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    sha.update(f.read())
    return sha.hexdigest()


def fingerprint(ledger):
    info = ledger["info"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": "g++ " + info.get("compiler", "?"),
        "build_type": info.get("build_type", "?"),
        "git_commit": git_commit(),
        "source_sha256": tree_digest(),
        "jobs": int(info.get("jobs", "0")),
    }


def load_expected():
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def expected_checks(ledger, workload, seed, plant_digest):
    """Compare the digest and the exact counts with the recorded seed."""
    recorded = load_expected().get(workload, {}).get(str(seed))
    checks = []
    if plant_digest:
        recorded = dict(recorded or {})
        recorded["digest"] = "0" * 16
    if recorded is None:
        return checks
    digest = ledger["info"].get("digest")
    if "digest" in recorded and digest is not None:
        checks.append({"name": "digest matches the recorded seed",
                       "ok": digest == recorded["digest"],
                       "detail": "%s vs %s" % (digest, recorded["digest"])})
    for name, metric in ledger["metrics"].items():
        if metric.get("exact") and name in recorded:
            checks.append({"name": name + " repeats exactly",
                           "ok": metric["value"] == recorded[name],
                           "detail": "%r vs %r" % (metric["value"],
                                                   recorded[name])})
    return checks


def record(ledger, workload, seed):
    data = load_expected()
    entry = {name: m["value"] for name, m in ledger["metrics"].items()
             if m.get("exact")}
    if "digest" in ledger["info"]:
        entry["digest"] = ledger["info"]["digest"]
    data.setdefault(workload, {})[str(seed)] = entry
    with open(EXPECTED, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def render(name, metric):
    text = "  %-34s %16.6g %s" % (name, metric["value"], metric["unit"])
    if "num" in metric:
        text += "   (%.6g / %.6g)" % (metric["num"], metric["den"])
    if metric.get("exact"):
        text += "   [exact]"
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-digest-mismatch", action="store_true")
    parser.add_argument("--plant-gate-failure", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    out_dir = os.path.join(build_root(), "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-tiny" if args.tiny else "")
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace]
    if args.trace:
        command.append("--trace-out=" + os.path.join(out_dir,
                                                     stem + ".trace.json"))
    if args.tiny:
        command.append("--tiny")
    if args.plant_gate_failure:
        command.append("--plant-gate-failure")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    if run.returncode != 0 or not run.stdout.strip():
        fail("workload %s exited with %d" % (args.workload, run.returncode))
    ledger = json.loads(run.stdout.strip().splitlines()[-1])

    # A tiny run is a different cell set: it never matches a full record.
    key = args.workload + ("-tiny" if args.tiny else "")
    checks = ledger["checks"] + expected_checks(
        ledger, key, args.seed, args.plant_digest_mismatch)
    failed = sum(1 for c in checks if not c["ok"])
    metrics = {}
    for m in wanted:
        got = ledger["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    full = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "fingerprint": fingerprint(ledger),
            "ledger": ledger, "checks": checks}
    ledger_path = os.path.join(out_dir, stem + ".json")
    with open(ledger_path, "w") as f:
        json.dump(full, f, indent=1)
        f.write("\n")
    if args.record and failed == 0:
        record(ledger, key, args.seed)

    print("e2ebench %s seed=%d trace=%d" % (args.workload, args.seed,
                                            args.trace))
    print("fingerprint: " + json.dumps(full["fingerprint"], sort_keys=True))
    for name, metric in ledger["metrics"].items():
        print(render(name, metric))
    for key, value in ledger["info"].items():
        print("  %s: %s" % (key, value))
    for c in checks:
        print("  %s  %s  %s" % ("PASS" if c["ok"] else "FAIL", c["name"],
                               c["detail"]))
    print("ledger: " + ledger_path)
    print("error_rate: %d/%d = %.6g" % (failed, len(checks),
                                        failed / max(len(checks), 1)))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
