#!/usr/bin/env python3
"""The benchmark's own test: every workload at the tiny size.

    python3 perfbench/test_perfbench.py

For each workload it runs run.py untraced and traced with one seed, and
checks that
  - each run exits 0 with correct = true and no failed operation
    (fail_ratio = 0);
  - the untraced run prints every end_to_end metric of BENCHMARK.json and
    the traced run every per_layer metric, each with its unit;
  - both runs report identical deterministic fields;
  - the report carries the host record.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        sys.exit("FAILED: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        runs = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run(name, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{name} trace={trace}: not correct")
            expect(result["attempted"] >= 1, f"{name}: nothing attempted")
            expect(result["failed"] == 0 and report["fail_ratio"] == 0,
                   f"{name} trace={trace}: fail_ratio {report['fail_ratio']}")
            wanted = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics/units differ: "
                   f"missing {sorted(set(wanted) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted))}, "
                   f"units {[k for k in wanted if got.get(k, wanted[k]) != wanted[k]]}")
            for k, v in result["metrics"].items():
                expect(isinstance(v["value"], (int, float)), f"{name}: {k} not a number")
            if trace == 0:
                for k, v in result["metrics"].items():
                    expect(v["value"] > 0, f"{name}: end-to-end {k} is {v['value']}")
            host = report["host"]
            for k in ("nproc", "cpu_model", "ocaml_version", "pool_domains", "commit"):
                expect(k in host, f"{name}: host record lacks {k}")
            runs[trace] = report
        expect(runs[0]["deterministic"] == runs[1]["deterministic"],
               f"{name}: deterministic fields differ between traced and untraced runs:"
               f"\n  {runs[0]['deterministic']}\n  {runs[1]['deterministic']}")
        print(f"ok {name}: {runs[0]['operations']} + {runs[1]['operations']} operations, "
              f"deterministic {json.dumps(runs[0]['deterministic'])[:100]}")
    print("perfbench test passed")


if __name__ == "__main__":
    main()
