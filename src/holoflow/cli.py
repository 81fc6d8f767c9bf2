"""Command-line interface.

Commands: potential, classify-cubic, bernoulli, cycles, flowstats,
portrait, verify. Complex scalars are written "re,im"; polynomials are
ascending coefficient lists whose entries are bare reals or "(re,im)"
pairs, e.g. "1,0,(0,1)" for 1 + i z^2. Exit codes: 0 success, 1 solver
error, 2 usage error; a NaN or infinite number is a usage error.
Tolerances are fixed: the solvers' own (see ``pwcycles``), which
``verify`` applies as well.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import classify, flowstats, odeint, pwcycles, render
from .cpoly import CPoly
from .errors import CenterContinuum, ContinuumDetected, HoloflowError
from .potential import anti_holomorphic, build_potential, holomorphic


def parse_finite(text):
    """float(text); NaN and inf raise ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def parse_complex(text):
    parts = text.split(",")
    if len(parts) == 1:
        return complex(parse_finite(parts[0]), 0.0)
    if len(parts) != 2:
        raise ValueError(f"expected 're' or 're,im', got {text!r}")
    return complex(parse_finite(parts[0]), parse_finite(parts[1]))


def parse_coeffs(text):
    """Ascending coefficient list: entries are reals or (re,im) pairs."""
    entries = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            current.append(ch)
        elif ch == "," and depth == 0:
            entries.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    entries.append("".join(current).strip())
    coeffs = []
    for e in entries:
        if not e:
            raise ValueError(f"empty coefficient in {text!r}")
        if e.startswith("(") and e.endswith(")"):
            coeffs.append(parse_complex(e[1:-1]))
        else:
            coeffs.append(complex(parse_finite(e), 0.0))
    return coeffs


def _spec_from_args(args):
    if getattr(args, "holo", None) is not None:
        return holomorphic(parse_coeffs(args.holo))
    if getattr(args, "antiholo", None) is not None:
        return anti_holomorphic(parse_coeffs(args.antiholo))
    raise ValueError("provide --holo or --antiholo coefficients")


def _grid_from_args(args):
    """(Window, nx, ny) from --window and --grid."""
    vals = [parse_finite(v) for v in args.window.split(",")]
    if len(vals) != 4:
        raise ValueError("window must be x_min,x_max,y_min,y_max")
    nx, ny = (int(v) for v in args.grid.split(","))
    return render.Window(*vals), nx, ny


def _rep_to_json(rep):
    return {
        "poly": [[c.real, c.imag] for c in rep.poly_part.coeffs],
        "log_terms": [
            {"residue": [r.real, r.imag], "pole": [p.real, p.imag]}
            for r, p in rep.log_terms
        ],
        "rational_terms": [
            {"coeff": [c.real, c.imag], "pole": [p.real, p.imag], "order": order}
            for c, p, order in rep.rational_terms
        ],
    }


def cmd_potential(args):
    spec = _spec_from_args(args)
    rep = build_potential(spec)
    payload = {"kind": spec.kind.value, "potential": _rep_to_json(rep)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    if args.grid_csv:
        window, nx, ny = _grid_from_args(args)
        xs, ys, phi, psi = render.potential_grid(rep, window, nx, ny)
        render.write_grid_csv(args.grid_csv, xs, ys, psi, phi)
    print(f"potential written to {args.out}")
    return 0


def _equilibria_json(infos):
    return [
        {
            "re": e.location.real,
            "im": e.location.imag,
            "multiplicity": e.multiplicity,
            "lambda_re": e.lam.real,
            "lambda_im": e.lam.imag,
            "type": e.etype.value,
        }
        for e in infos
    ]


def cmd_classify_cubic(args):
    a1 = parse_complex(args.a1)
    a0 = parse_complex(args.a0)
    portrait = classify.classify_cubic(a1, a0)
    report = {
        "config_label": portrait.config_label,
        "equilibria": _equilibria_json(portrait.equilibria),
        "regions": {
            "center": portrait.center_regions,
            "sepal": portrait.sepal_regions,
            "alpha_omega": portrait.alpha_omega_regions,
        },
        "infinity": [
            {"angle": e.angle, "det": e.saddle_det}
            for e in classify.infinity_equilibria(3)
        ],
    }
    _emit_json(report, args.out)
    return 0


def cmd_bernoulli(args):
    alpha = parse_complex(args.alpha)
    portrait = classify.bernoulli_portrait(args.n, alpha)
    report = {
        "n": portrait.n,
        "alpha": [alpha.real, alpha.imag],
        "equilibria": _equilibria_json(portrait.equilibria),
        "regions": {
            "center": portrait.center_regions,
            "alpha_omega": portrait.alpha_omega_regions,
        },
        "infinity": [
            {"angle": e.angle, "det": e.saddle_det} for e in portrait.infinity
        ],
    }
    _emit_json(report, args.out)
    return 0


def _candidates_json(candidates):
    return [
        {
            "x1": c.x1,
            "x2": c.x2,
            "multiplier": c.multiplier,
            "stability": c.stability.value,
            "verified": c.verified.value,
        }
        for c in candidates
    ]


def _field(record, key, owner):
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"{owner} lacks {key!r}")
    return record[key]


def _antiholo_system(system):
    upper, lower = (anti_holomorphic([complex(r, i) for r, i in system[side]])
                    for side in ("upper", "lower"))
    spec = pwcycles.PiecewiseSpec(upper, lower)
    return (spec, lambda: pwcycles.solve_antiholo_pair(spec),
            pwcycles.candidate_bound(spec))


def _mixed_spec(system, cls):
    names = [f.name for f in dataclasses.fields(cls)]
    if not isinstance(system["params"], list) or len(system["params"]) != len(names):
        raise ValueError(f"{system['family']} params: {','.join(names)}")
    return cls(*system["params"])


def _mixed_linear_system(system):
    spec = _mixed_spec(system, pwcycles.MixedLinearSpec)
    return spec.as_piecewise(), lambda: pwcycles.solve_mixed_linear_on_sigma(spec), 1


def _mixed_general_system(system):
    k = _mixed_spec(system, pwcycles.MixedGeneralConstants)
    return k.as_piecewise(), lambda: pwcycles.solve_mixed_general(k), 3


# family -> (the system-record keys its cycles flags fill, decoder); the
# decoders look each solver up at call time
FAMILIES = {
    "antiholo": (("upper", "lower"), _antiholo_system),
    "mixed-linear": (("params",), _mixed_linear_system),
    "mixed-general": (("params",), _mixed_general_system),
}


def _numbers(value):
    """Every int or float inside nested lists."""
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)):
        yield value


def _is_finite(number):  # False also for a JSON integer past float range
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def decode_system(system):
    """(PiecewiseSpec, solve, bound) of a cycles report's system record;
    solve() returns the candidates. Raises ValueError on an unknown
    family, a missing key, a non-finite number or a wrong parameter
    count."""
    family = _field(system, "family", "system")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    keys, decode = FAMILIES[family]
    for key in keys:
        value = _field(system, key, f"{family} system")
        if not all(map(_is_finite, _numbers(value))):
            raise ValueError(f"{family} system {key!r} holds a non-finite number")
    try:
        return decode(system)
    except TypeError as exc:  # entries of the wrong type
        raise ValueError(f"malformed {family} system: {exc}") from None


def cmd_cycles(args):
    system = {"family": args.family}
    for key in FAMILIES[args.family][0]:
        text = getattr(args, key)
        if text is None:
            continue
        if key == "params":
            system[key] = [float(v) for v in text.split(",")]
        else:
            system[key] = [[c.real, c.imag] for c in CPoly(parse_coeffs(text)).coeffs]
    _, solve, bound = decode_system(system)
    # the mixed solvers raise only CenterContinuum, solve_antiholo_pair
    # only ContinuumDetected
    try:
        candidates, continuum = solve(), False
    except (CenterContinuum, ContinuumDetected):
        candidates, continuum = [], True
    report = {
        "family": args.family.replace("-", "_"),
        "system": system,
        "candidates": _candidates_json(candidates),
        "continuum": continuum,
        "bound": bound,
    }
    _emit_json(report, args.out)
    return 0


def cmd_flowstats(args):
    field = _spec_from_args(args)
    if args.circle:
        cx, cy, r = (parse_finite(v) for v in args.circle.split(","))
        curve = flowstats.Circle(complex(cx, cy), r)
    elif args.polygon:
        verts = [parse_complex(v) for v in args.polygon.split(";")]
        curve = flowstats.Polygon(tuple(verts))
    else:
        raise ValueError("provide --circle or --polygon")
    result = flowstats.contour_integral(field, curve, n_nodes=args.nodes)
    report = {"circulation": result.circulation, "net_flow": result.net_flow}
    _emit_json(report, args.out)
    return 0


def cmd_portrait(args):
    window, nx, ny = _grid_from_args(args)
    if args.upper is not None or args.lower is not None:
        for flag, text in (("--upper", args.upper), ("--lower", args.lower)):
            if text is None:
                raise ValueError(f"a piecewise portrait needs {flag} as well")
        upper = anti_holomorphic(parse_coeffs(args.upper))
        lower = anti_holomorphic(parse_coeffs(args.lower))
        xs, ys, psi = render.piecewise_psi_grid(upper, lower, window, nx, ny)
        phi = None
    else:
        spec = _spec_from_args(args)
        rep = build_potential(spec)
        xs, ys, phi, psi = render.potential_grid(rep, window, nx, ny)
    if args.levels_at:
        levels = [parse_finite(v) for v in args.levels_at.split(",")]
    else:
        levels = render.default_levels(psi, args.levels)
    contours = [("psi", psi, levels)]
    if phi is not None and not args.levels_at:
        contours.append(("phi", phi, render.default_levels(phi, args.levels)))
    groups = [(f"{name}-level-{li}", render.marching_squares(xs, ys, values, level))
              for name, values, values_levels in contours
              for li, level in enumerate(values_levels)]
    svg = render.svg_document(groups, window)
    with open(args.out_svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    if args.out_csv:
        render.write_grid_csv(args.out_csv, xs, ys, psi, phi)
    print(f"portrait written to {args.out_svg}")
    return 0


def cmd_verify(args):
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    pw, _, _ = decode_system(_field(report, "system", "report"))
    failures = 0
    candidates = _field(report, "candidates", "report")
    if not isinstance(candidates, list):
        raise ValueError("report candidates must be a list")
    for cand in candidates:
        verified = _field(cand, "verified", "candidate")
        x1 = _field(cand, "x1", "candidate")
        if not (isinstance(x1, (int, float)) and _is_finite(x1)):
            raise ValueError(f"candidate x1 must be a finite number, got {x1!r}")
        if verified != pwcycles.Verified.NUMERICALLY_CONFIRMED.value:
            print(f"SKIP x1={x1:.9g} ({verified})")
            continue
        ret = odeint.return_map(pw, x1)
        ok = pwcycles.closes(x1, None if ret is None else abs(ret - x1))
        print(f"{'PASS' if ok else 'FAIL'} x1={x1:.9g} return={ret}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="holoflow",
        description="Complex potentials and piecewise limit cycles for planar polynomial systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("potential", help="potential representation + sampled grid")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--holo", help="ascending coefficients of p for zdot = p(z)")
    g.add_argument("--antiholo", help="ascending coefficients of p for zdot = conj(p(z))")
    p.add_argument("--out", default="potential.json")
    p.add_argument("--grid-csv", default=None)
    p.add_argument("--window", default="-2,2,-2,2")
    p.add_argument("--grid", default="64,64")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("classify-cubic", help="configuration of zdot = z^3 + A1 z + A0")
    p.add_argument("--a1", required=True, help="A1 as re,im")
    p.add_argument("--a0", required=True, help="A0 as re,im")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify_cubic)

    p = sub.add_parser("bernoulli", help="portrait of zdot = z^n - alpha z")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True, help="alpha as re,im")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("cycles", help="limit-cycle candidates of a piecewise system")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--upper", help="antiholo: upper polynomial coefficients")
    p.add_argument("--lower", help="antiholo: lower polynomial coefficients")
    p.add_argument("--params", help="mixed families: comma-separated constants")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("flowstats", help="circulation and net flow around a closed curve")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--holo")
    g.add_argument("--antiholo")
    c = p.add_mutually_exclusive_group(required=True)
    c.add_argument("--circle", help="cx,cy,radius")
    c.add_argument("--polygon", help="vertices 're,im' separated by ';'")
    p.add_argument("--nodes", type=int, default=flowstats.DEFAULT_NODES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flowstats)

    p = sub.add_parser("portrait", help="streamline contours as SVG (+ grid CSV)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--holo")
    g.add_argument("--antiholo")
    p.add_argument("--upper", help="piecewise: upper antiholo coefficients")
    p.add_argument("--lower", help="piecewise: lower antiholo coefficients")
    p.add_argument("--window", default="-2,2,-2,2")
    p.add_argument("--grid", default="128,128")
    p.add_argument("--levels", type=int, default=12)
    p.add_argument("--levels-at", default=None, help="explicit comma-separated levels")
    p.add_argument("--out-svg", default="portrait.svg")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("verify", help="re-run odeint handshakes on a cycle report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def _emit_json(report, out_path):
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {out_path}")
    else:
        print(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except HoloflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
