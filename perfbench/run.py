#!/usr/bin/env python3
"""Builds the PRES suite and its benchmark from source, then runs one measurement.

    python3 perfbench/run.py --workload diagnose|record|service --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the result
object; the lines before it give the host, the exact counters and any
failed operation. Spans of a traced run and the exact-counter ledger go to
perfbench/out/.

Exact counters (attempts, picks, entries, bytes) must repeat bit for bit
for one seed and one version of the sources: the ledger remembers them per
(workload, seed, seconds, trace, source digest), and a run that disagrees
fails without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 175


def die(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over every file the benchmark's binaries are built from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml", BENCH / "Cargo.lock"]
    for d in (ROOT / "crates", BENCH / "src"):
        files += [p for p in d.rglob("*") if p.is_file()]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "pres-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        # Cargo's output goes to stderr; standard output carries results only.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def check_exact(key, exact):
    """Compares this run's exact counters with earlier runs of the same key."""
    ledger_path = OUT / "exact.json"
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.get(key)
    if seen is not None and seen != exact:
        diff = {k: (seen.get(k), exact.get(k)) for k in sorted(set(seen) | set(exact))
                if seen.get(k) != exact.get(k)}
        die(f"determinism tripwire: exact counters of {key} changed (before, now): {diff}", 3)
    ledger[key] = exact
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["diagnose", "record", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=[0, 1])
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"{ROOT} holds no PRES sources (Cargo.toml, crates/); nothing to build or measure", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build(target)
    OUT.mkdir(exist_ok=True)

    started = time.monotonic()
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pres", str(target / "release" / "pres"), "--out", str(OUT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark exceeded {RUN_LIMIT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        die(f"benchmark exited with {done.returncode}")
    exact = next((json.loads(line[len("exact "):]) for line in lines if line.startswith("exact ")), None)
    if exact is None:
        die("benchmark printed no exact counters")
    key = f"{args.workload}/seed={args.seed}/seconds={args.seconds}/trace={args.trace}/src={source_digest()}"
    check_exact(key, exact)
    print("\n".join(lines[:-1]))
    print(f"wall {time.monotonic() - started:.3f} s")
    print(lines[-1])


if __name__ == "__main__":
    main()
