#!/usr/bin/env python3
"""Build and run the ZKDET end-to-end benchmark.

    python3 perfbench/run.py --workload exchange|audit|market --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source tree.  The script builds zkbench
(perfbench/zkbench.ml) and the libraries it links with dune, inside the
tree, then runs it.  zkbench's standard output is passed through: its
last line is the JSON result, the line before it a report with the host
record, the output checks and the deterministic fields.  The exit code is
zkbench's, or 1 when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "zkbench.exe")
# Deterministic fields of earlier runs, keyed by source digest and seed.
RECORDS = os.path.join(ROOT, ".perfbench")
# Longer than any full-size run, shorter than the 180 s a run may take.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources zkbench is built from."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["exchange", "audit", "market"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    # --root keeps dune from adopting an enclosing project; the shared
    # cache is off so the build writes nothing outside the tree.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/zkbench.exe"],
        cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--commit", commit(),
           "--record-dir", RECORDS, "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
