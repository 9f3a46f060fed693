"""Command-line front end: verify suites, evaluate operators, run transforms."""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .intertwine import chi_poly_scaled, ek_left_inverse_D, erdelyi_kober_I
from .kummer import bold_M, kummer_M
from .opengine import apply_T_poly
from .polycore import MPoly
from .rootgeom import (
    OrthogonalSubsystem,
    RationalVector,
    _fraction_str,
    build_subsystem_coordinate,
)
from .suites import SUITE_NAMES, SuiteConfig, run_suites
from .transform import TransformRequest


def _parse_kappas(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


def _load_subsystem(args, dim: int) -> OrthogonalSubsystem:
    if args.subsystem:
        with open(args.subsystem) as fh:
            return OrthogonalSubsystem.from_json(fh.read())
    kappas = _parse_kappas(args.kappa)
    if len(kappas) == 1 and dim > 1:
        kappas = kappas * dim
    if len(kappas) != dim:
        raise ValueError(f"{len(kappas)} multiplicities for dimension {dim}; "
                         "pass one per coordinate or a subsystem file")
    return build_subsystem_coordinate(dim, kappas)


def _scale_display(subsystem: OrthogonalSubsystem) -> str:
    parts = [f"Γ({_fraction_str(k + 1)})" for k in subsystem.kappas if k > 0]
    if not parts:
        return "1"
    if len(parts) == 1:
        return f"1/{parts[0]}"
    return "1/(" + "*".join(parts) + ")"


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(seed=args.seed, faults=frozenset(args.inject_fault or ()),
                      workers=args.workers)
    report = run_suites(args.suite or None, cfg)
    for line in report.console_lines():
        print(line)
    if args.out:
        report.write(args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_eval(args) -> int:
    kind = args.kind
    needs = "z" if kind == "M" else "poly"
    if getattr(args, needs) is None:
        raise ValueError(f"eval {kind} needs --{needs}")
    if kind == "T":
        poly = MPoly.from_text(args.poly)
        xi = RationalVector.parse(args.xi) if args.xi else RationalVector.unit(0, 1)
        dim = max(poly.nvars, xi.dim)
        poly = MPoly.from_text(args.poly, nvars=dim)
        if xi.dim != dim:
            raise ValueError(f"direction has dimension {xi.dim}, polynomial {dim}")
        sub = _load_subsystem(args, dim)
        print(apply_T_poly(sub, xi, poly).to_text())
        return 0
    if kind == "chi":
        poly = MPoly.from_text(args.poly)
        sub = _load_subsystem(args, poly.nvars)
        poly = MPoly.from_text(args.poly, nvars=sub.dim)
        img, _scale = chi_poly_scaled(sub, poly)
        print(f"{img.to_text()} (scale: {_scale_display(sub)})")
        return 0
    if kind == "M":
        kappa = float(Fraction(args.kappa))
        z = complex(args.z)
        v = bold_M(kappa, z) if args.bold else kummer_M(kappa, z)
        if v.imag == 0:
            print(repr(v.real))
        else:
            print(repr(v))
        return 0
    if kind == "EK":
        poly = MPoly.from_text(args.poly, nvars=1)
        gamma = Fraction(args.gamma)
        delta = Fraction(args.delta)
        out = (ek_left_inverse_D(poly, gamma, delta) if args.inverse
               else erdelyi_kober_I(poly, gamma, delta))
        print(out.to_text())
        return 0
    raise ValueError(f"unknown eval kind {kind!r}")


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:count")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _cmd_transform(args) -> int:
    req = TransformRequest(args.function, float(Fraction(args.kappa)),
                           _parse_grid(args.grid))
    csv = req.run()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projdunkl",
        description="Projection-difference derivative operators: verification "
                    "suites, exact operator evaluation, and the deformed "
                    "Fourier transform.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", action="append", choices=SUITE_NAMES,
                          help="run only this suite (repeatable)")
    p_verify.add_argument("--seed", type=int, default=12345)
    p_verify.add_argument("--out", help="write the JSONL report here")
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--inject-fault", action="append", choices=SUITE_NAMES,
                          help="activate the designated fault of this suite "
                               "(repeatable; the suite must fail)")
    p_verify.set_defaults(func=_cmd_verify)

    p_eval = subs.add_parser("eval", help="evaluate one operator exactly")
    p_eval.add_argument("kind", choices=["T", "chi", "M", "EK"])
    p_eval.add_argument("--kappa", default="0", help="multiplicity, or a "
                        "comma-separated list (one per coordinate)")
    p_eval.add_argument("--poly", help="polynomial text, e.g. 'x1^2 - 2*x2'")
    p_eval.add_argument("--xi", help="direction vector, e.g. '(1, -1/2)'")
    p_eval.add_argument("--z", help="evaluation point for M (complex, e.g. '1+2j')")
    p_eval.add_argument("--bold", action="store_true",
                        help="kernel normalization for M (divided by Gamma(kappa+1))")
    p_eval.add_argument("--gamma", default="0", help="base order for EK")
    p_eval.add_argument("--delta", default="1", help="integration order for EK")
    p_eval.add_argument("--inverse", action="store_true",
                        help="apply the left inverse for EK")
    p_eval.add_argument("--subsystem", help="JSON file describing the root system")
    p_eval.set_defaults(func=_cmd_eval)

    p_tr = subs.add_parser("transform", help="tabulate the deformed transform")
    p_tr.add_argument("--function", required=True,
                      help="catalog function name (bump, gaussian, ind13, ...)")
    p_tr.add_argument("--kappa", required=True)
    p_tr.add_argument("--grid", required=True, help="lambda grid start:stop:count")
    p_tr.add_argument("--out", help="write CSV here instead of stdout")
    p_tr.set_defaults(func=_cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
