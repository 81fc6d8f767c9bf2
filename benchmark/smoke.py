"""Smoke test of the benchmark itself.

    python3 benchmark/smoke.py

Runs every workload for one second (whole passes, so a little longer),
untraced and traced. Checks that each run exits 0, that its last line
is the result object with exactly the keys the contract names, that
every metric of BENCHMARK.json appears both in that object and on a
``name value unit`` line, and that the seven end-to-end metrics,
``failed_frac`` included, are printed. Then checks that a copy holding
only BENCHMARK.json and benchmark/ exits non-zero without a result.
Prints each workload's ``failed_frac``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
PRINTED_ONLY = ("failed_frac",)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace):
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    problems = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"], None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append("no op attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted] + ([] if trace else list(PRINTED_ONLY))
    printed = {}
    for line in lines[:-1]:
        m = re.match(r"^(\S+) (\S+) (\S+)", line)
        if m and not line.startswith("#"):
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} missing from the result or has another unit")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("result metrics differ from BENCHMARK.json")
    for name in names:
        if name not in printed:
            problems.append(f"{name} not printed with a unit")
    return problems, (printed.get("failed_frac"), result)


def check_isolated():
    """A directory with only BENCHMARK.json and benchmark/ must fail."""
    iso = ROOT / ".bench_out" / "isolated"
    shutil.rmtree(iso, ignore_errors=True)
    iso.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", iso)
    shutil.copytree(ROOT / "benchmark", iso / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "algebra-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=iso)
    shutil.rmtree(iso)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"isolated copy exited {proc.returncode} with output {last[0][:80]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems, info = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            extra = ""
            if info and trace == 0:
                frac, result = info
                extra = (f" failed_frac={frac[0]:g} ({result['failed']} of "
                         f"{result['attempted']}) correct={result['correct']}")
            print(f"{workload} trace={trace}: {status}{extra}", flush=True)
            failures += bool(problems)
    problems = check_isolated()
    print("isolated copy: " + ("ok (exits non-zero, no result)" if not problems
                               else "FAIL " + "; ".join(problems)))
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
