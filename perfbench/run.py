#!/usr/bin/env python3
"""Benchmark of the pipm simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig10-pr --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the simulator library from src/ plus the driver) into
.bench_build/ in Release mode, runs the driver's own tests, then runs the
driver. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a report
with the run's provenance and the figures that are not metrics.

    python3 perfbench/run.py compare OLD.txt NEW.txt

compares two saved outputs metric by metric against the bounds in
BENCHMARK.json, and refuses (exit 2) when their provenance differs.

Arguments other than compare and --help go to the driver, which parses
them strictly. Exit codes: 0 ok, 1 build/test/run failure or a failed
output check, 2 bad arguments or incomparable results.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = BUILD_DIR / "perfbench-work"
# The driver caps --seconds at 120, so only a hung run reaches this.
RUN_TIMEOUT_S = 175
# Provenance fields that must match for two results to be compared.
COMPARABLE = ("cpu", "nproc", "compiler", "build_type", "asserts",
              "workload", "seconds", "trace")


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """git describe when the checkout is a repository, plus a digest of the
    sources built."""
    describe = "nogit"
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
                check=True).stdout.strip() or "nogit"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"{describe}+{digest.hexdigest()[:12]}"


def build(env):
    """Configure once, then build the driver and its tests."""
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       env=env, stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "perfbench", "perfbench_tests"],
                   env=env, stdout=log, stderr=log, check=True)
    subprocess.run([str(BUILD_DIR / "perfbench_tests")],
                   env=env, stdout=log, stderr=log, check=True)


def run(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 1)
    # The library reads PIPM_* knobs from the environment: run without.
    # Temporary files (the compiler's too) stay inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIPM_")}
    env["TMPDIR"] = str(BUILD_DIR / "tmp")
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build or self-test failed: {e}", 1)
    cmd = [str(BUILD_DIR / "perfbench"), *argv,
           "--source-id", source_id(), "--work-dir", str(WORK_DIR)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    if proc.returncode == 2:
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"driver exited with {proc.returncode} after "
             f"{time.monotonic() - start:.1f} s", 1)
    print("\n".join(lines), flush=True)
    return proc.returncode


def load(path):
    """(provenance, metrics) of a saved benchmark output."""
    lines = Path(path).read_text().strip().splitlines()
    report = json.loads(lines[-2])["perfbench_report"]
    return report["provenance"], json.loads(lines[-1])["metrics"]


def compare(old_path, new_path):
    old_prov, old = load(old_path)
    new_prov, new = load(new_path)
    differs = [k for k in COMPARABLE if old_prov.get(k) != new_prov.get(k)]
    if differs:
        fail("refusing to compare results with different provenance: " +
             ", ".join(f"{k} {old_prov.get(k)!r} vs {new_prov.get(k)!r}"
                       for k in differs), 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    for name in new:
        if name not in old or name not in bounds:
            continue
        a, b = old[name]["value"], new[name]["value"]
        change = (b - a) / a if a else 0.0
        if bounds[name]["better"] == "higher":
            change = -change
        regress = change > bounds[name].get("bound", float("inf"))
        worse |= regress
        print(f"{name:32s} {a:>16.6g} -> {b:<16.6g} worse by {change:+.1%}"
              f"{'  REGRESSION' if regress else ''}")
    return 1 if worse else 0


def main(argv):
    if any(a in ("-h", "--help") for a in argv):
        print(__doc__)
        return 0
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD NEW", 2)
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
