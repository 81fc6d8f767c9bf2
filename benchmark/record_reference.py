"""Record the reference outputs that the benchmark's checks compare with.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 benchmark/record_reference.py

It rewrites two files of ``benchmark/reference/``:

* ``explore_cli.json`` and ``explore_cli_grids.npz``: the explore-cli
  corpus (argv of every README command on fixed systems drawn from
  ``CORPUS_SEED``), the exit code, JSON numbers, SVG sha256 and CSV
  grids each command produced, the cycles reports that the ``verify``
  ops read, and the separatrix end points of the explored cubics.

``golden_cubics.json`` in the same directory is not recorded: it is
acceptance criterion 1's table of the ten cubic configurations (labels
and region counts from the paper), written by hand.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import holoflow as hf  # noqa: E402
from holoflow import classify, odeint, pwcycles  # noqa: E402

import workloads  # noqa: E402

CORPUS_SEED = workloads.CORPUS_SEED
PER_KIND = 4
PORTRAIT = ["--window=-2,2,-2,2", "--grid", "64,64", "--levels", "6",
            "--out-svg", "{out}/portrait.svg"]

def fmt_real(x):
    return repr(float(x))


def fmt_complex(z):
    return f"{fmt_real(z.real)},{fmt_real(z.imag)}"


def fmt_coeffs(coeffs):
    return ",".join(f"({fmt_complex(c)})" for c in coeffs)


def cnormal(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def corpus_argv(rng):
    """(kind, argv, files) for every corpus command."""
    out = []
    for i in range(PER_KIND):
        flag = "--holo" if i % 2 else "--antiholo"
        out.append(("potential", ["potential", f"{flag}={fmt_coeffs(cnormal(rng, 3 + i % 2))}",
                                  "--out", "{out}/potential.json",
                                  "--grid-csv", "{out}/grid.csv",
                                  "--window=-2,2,-2,2", "--grid", "24,24"],
                    {"json": "potential.json", "csv": "grid.csv"}))
        a1, a0 = cnormal(rng, 2)
        out.append(("classify-cubic", ["classify-cubic", f"--a1={fmt_complex(a1)}",
                                       f"--a0={fmt_complex(a0)}", "--out", "{out}/cubic.json"],
                    {"json": "cubic.json"}))
        alpha = complex(*rng.normal(size=2))
        out.append(("bernoulli", ["bernoulli", "--n", str(2 + i), f"--alpha={fmt_complex(alpha)}",
                                  "--out", "{out}/bernoulli.json"],
                    {"json": "bernoulli.json"}))
        pw = workloads.draw_antiholo_pair(rng, 2)
        out.append(("cycles-antiholo", ["cycles", "--family", "antiholo",
                                        f"--upper={fmt_coeffs(pw.upper.p.coeffs)}",
                                        f"--lower={fmt_coeffs(pw.lower.p.coeffs)}",
                                        "--out", "{out}/cycles.json"],
                    {"json": "cycles.json"}))
        s = workloads.draw_mixed_linear(rng)
        params = [s.a1, s.a2, s.b1, s.b2, s.a, s.b, s.x0]
        out.append(("cycles-mixed-linear", ["cycles", "--family", "mixed-linear",
                                            "--params=" + ",".join(map(fmt_real, params)),
                                            "--out", "{out}/cycles.json"],
                    {"json": "cycles.json"}))
        k = workloads.draw_mixed_general(rng)
        params = [k.a1, k.a2, k.b1, k.b2, k.a, k.b, k.x0, k.y0]
        out.append(("cycles-mixed-general", ["cycles", "--family", "mixed-general",
                                             "--params=" + ",".join(map(fmt_real, params)),
                                             "--out", "{out}/cycles.json"],
                    {"json": "cycles.json"}))
        flag = "--holo" if i % 2 else "--antiholo"
        curve = (["--circle=" + ",".join(map(fmt_real, [rng.uniform(-1, 1), rng.uniform(-1, 1),
                                          rng.uniform(0.5, 2)]))] if i < 2 else
                 ["--polygon=" + ";".join(fmt_complex(complex(*rng.uniform(-2, 2, 2)))
                                          for _ in range(3 + i))])
        out.append(("flowstats", ["flowstats", f"{flag}={fmt_coeffs(cnormal(rng, 2 + i))}",
                                  *curve, "--out", "{out}/flowstats.json"],
                    {"json": "flowstats.json"}))
        out.append(("verify", ["verify", "--report", f"{{out}}/verify-{i}.json"], {}))
        roots = rng.uniform(-1.8, 1.8, (2 + i % 2, 2)) @ np.array([1, 1j])
        out.append(("portrait-holo", ["portrait", "--holo=" + fmt_coeffs(
            hf.CPoly.from_roots(roots).coeffs), *PORTRAIT], {"svg": "portrait.svg"}))
        out.append(("portrait-antiholo", ["portrait", "--antiholo=" + fmt_coeffs(
            cnormal(rng, 3 + i % 2)), *PORTRAIT], {"svg": "portrait.svg"}))
        pw = workloads.draw_antiholo_pair(rng, 2)
        out.append(("portrait-piecewise", ["portrait",
                                           f"--upper={fmt_coeffs(pw.upper.p.coeffs)}",
                                           f"--lower={fmt_coeffs(pw.lower.p.coeffs)}",
                                           *PORTRAIT], {"svg": "portrait.svg"}))
    return out


def verify_inputs(rng, outdir):
    """Cycles reports with confirmed candidates, recorded through the
    cycles command: mixed-linear draws until PER_KIND confirm."""
    reports = {}
    while len(reports) < PER_KIND:
        s = workloads.draw_mixed_linear(rng)
        if not pwcycles.solve_mixed_linear_on_sigma(s):
            continue
        params = [s.a1, s.a2, s.b1, s.b2, s.a, s.b, s.x0]
        code, _ = workloads.run_cli(["cycles", "--family", "mixed-linear",
                                     "--params=" + ",".join(map(fmt_real, params)),
                                     "--out", str(outdir / "cycles.json")])
        if code != 0:
            raise SystemExit(f"cycles exited {code} on {params}")
        with open(outdir / "cycles.json", encoding="utf-8") as fh:
            reports[f"verify-{len(reports)}.json"] = json.load(fh)
    return reports


def separatrix_cubics(rng):
    out = []
    for _ in range(PER_KIND):
        a1, a0 = cnormal(rng, 2)
        p = hf.CPoly([a0, a1, 0.0, 1.0])
        expected = []
        for saddle in classify.infinity_equilibria(3):
            traj = odeint.trace_separatrix(p, saddle)
            end = traj.end_point()
            expected.append({"terminal": traj.terminal.value, "end": [end.real, end.imag],
                             "steps": len(traj.samples) - 1})
        out.append({"p": [[c.real, c.imag] for c in p.coeffs], "expected": expected})
    return out


def main():
    refdir = ROOT / "benchmark" / "reference"
    refdir.mkdir(exist_ok=True)
    outdir = ROOT / ".bench_out" / "record"
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(CORPUS_SEED)
    inputs = verify_inputs(rng, outdir)
    for name, report in inputs.items():
        with open(outdir / name, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    commands = []
    grids = {}
    for kind, argv, files in corpus_argv(rng):
        entry = {"kind": kind, "argv": argv, "files": files}
        code, stdout = workloads.run_cli([a.replace("{out}", str(outdir)) for a in argv])
        if code != 0:
            raise SystemExit(f"corpus command exited {code}: {argv}")
        expected = {"exit": code, **workloads.read_outputs(entry, outdir)}
        if kind == "verify":
            expected["stdout"] = stdout
        if "csv" in expected:
            key = f"grid{len(grids)}"
            grids[key] = expected["csv"]
            expected["csv"] = key
        entry["expected"] = expected
        commands.append(entry)
    ref = {"corpus_seed": CORPUS_SEED, "commands": commands,
           "verify_inputs": inputs, "separatrix": separatrix_cubics(rng)}
    with open(refdir / "explore_cli.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    np.savez_compressed(refdir / "explore_cli_grids.npz", **grids)
    print(f"recorded {len(commands)} commands, {len(grids)} grids into {refdir}")


if __name__ == "__main__":
    main()
