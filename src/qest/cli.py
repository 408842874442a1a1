"""Command-line interface.

Subcommands: ``validate``, ``eta``, ``qfi``, ``sweep``, ``demo``.  Exit codes
are a stable contract: 0 success, 1 validation failure, 2 parse error,
3 domain or range error, 4 I/O error.  Every other package error (a
degenerate channel or family, singular geometry, an eigensolver that does
not converge) also exits 3, with a one-line message on stderr and no
traceback.  The environment variable ``QEST_TOL``, a finite positive number,
overrides the default residual tolerance used by ``validate``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .channel_io import demo_dict, load_channel_file, matrix_to_json
from .channels import (
    extend_family,
    family_from_low_noise,
    instantiate,
    validate_first_order,
    validate_trace_preserving,
)
from .errors import ParameterRangeError, QestError, SchemaError, ValidationError
from .estimation import channel_qfi
from .linalg import bloch_to_density, hermitian_eig, pure_to_density, tensor_product
from .lownoise import (
    METHOD_BOTH,
    METHOD_CLOSED_FORM,
    METHOD_DIRECT,
    enhancement_factor,
    eta_bruteforce,
    optimal_input_states,
)
from .unitary import unitary_channel_family

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

_METHODS = {"closed": METHOD_CLOSED_FORM, "direct": METHOD_DIRECT, "both": METHOD_BOTH}


def _tolerance(default: float = 1e-9) -> float:
    raw = os.environ.get("QEST_TOL")
    if raw is None:
        return default
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValidationError(f"QEST_TOL={raw!r} is not a number") from exc
    if not 0.0 < tol < float("inf"):
        raise ValidationError(f"QEST_TOL={raw!r} is not a finite positive number")
    return tol


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def cmd_validate(args) -> int:
    parsed = load_channel_file(args.file)
    tol = _tolerance()
    if parsed.unitary is not None:
        family = unitary_channel_family(parsed.unitary)
        residuals = {
            _fmt(theta): validate_trace_preserving(family.evaluate(theta))
            for theta in (0.1, 0.5, 1.0, 2.0)
        }
        ok = all(r < tol for r in residuals.values())
        _print_json({"type": parsed.kind, "unitarity_residuals": residuals, "ok": ok})
        return EXIT_OK if ok else EXIT_VALIDATION

    ln = parsed.low_noise
    lo, hi = ln.validity
    tp_residuals = {
        _fmt(eps): validate_trace_preserving(instantiate(ln, float(eps)))
        for eps in np.linspace(lo, hi, 5)
    }
    first_order = validate_first_order(ln)
    kappa_residual = abs(sum(abs(k) * abs(k) for k in ln.kappas) - 1.0)
    ok = (
        all(r < tol for r in tp_residuals.values())
        and first_order < tol
        and kappa_residual < tol
    )
    _print_json(
        {
            "type": parsed.kind,
            "trace_preserving_residuals": tp_residuals,
            "first_order_residual": first_order,
            "kappa_norm_residual": kappa_residual,
            "tolerance": tol,
            "ok": ok,
        }
    )
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_eta(args) -> int:
    parsed = load_channel_file(args.file)
    if parsed.low_noise is None:
        raise ParameterRangeError("the enhancement factor is defined for noise channels only")
    if parsed.dim != 2:
        raise ParameterRangeError(f"only qubit channels are supported, got dim {parsed.dim}")
    report = enhancement_factor(parsed.low_noise.noise_ops, method=_METHODS[args.method])
    out = report.to_dict()
    if args.grid is not None:
        out["eta_bruteforce"] = eta_bruteforce(parsed.low_noise.noise_ops, args.grid)
    _print_json(out)
    return EXIT_OK


def _parse_input_spec(spec: str, ancilla: bool):
    if spec.strip().lower() == "bell":
        if not ancilla:
            raise ParameterRangeError("the bell input needs --ancilla")
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        return pure_to_density(bell), "bell"
    try:
        x = np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise ParameterRangeError(
            f"input spec {spec!r} is neither 'bell' nor a Bloch triple x,y,z"
        ) from exc
    if x.shape != (3,):
        raise ParameterRangeError(f"Bloch input needs exactly 3 components, got {len(x)}")
    rho = bloch_to_density(x)
    if ancilla:
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0
        return tensor_product(rho, ground), list(map(float, x))
    return rho, list(map(float, x))


def cmd_qfi(args) -> int:
    parsed = load_channel_file(args.file)
    if parsed.dim != 2:
        raise ParameterRangeError(f"only qubit channels are supported, got dim {parsed.dim}")
    if parsed.low_noise is not None:
        family = family_from_low_noise(parsed.low_noise)
    else:
        family = unitary_channel_family(parsed.unitary)
    if args.ancilla:
        family = extend_family(family, 2)
    rho, input_desc = _parse_input_spec(args.input, args.ancilla)
    res = channel_qfi(family, rho, args.epsilon)
    sld_eigs, _ = hermitian_eig(res.sld)
    out = {
        "epsilon": args.epsilon,
        "input": input_desc,
        "ancilla": bool(args.ancilla),
        "qfi": res.qfi,
        "sld_eigenvalues": [float(v) for v in sld_eigs],
        "inverse_qfi": (1.0 / res.qfi) if res.qfi > 0 else None,
    }
    if res.optimal_estimator is not None:
        shifted = res.optimal_estimator - res.theta * np.eye(family.dim)
        variance = float(np.real(np.trace(res.rho @ shifted @ shifted)))
        out["estimator_variance"] = variance
        out["estimator"] = matrix_to_json(res.optimal_estimator)
    else:
        out["estimator_variance"] = None
    _print_json(out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    parsed = load_channel_file(args.file)
    if parsed.low_noise is None:
        raise ParameterRangeError("sweeps are defined for noise channels only")
    if parsed.dim != 2:
        raise ParameterRangeError(f"only qubit channels are supported, got dim {parsed.dim}")
    ln = parsed.low_noise
    lo, hi = ln.validity
    if not (0.0 < args.eps_start < args.eps_end <= hi):
        raise ParameterRangeError(
            f"need 0 < eps-start < eps-end <= {hi}, got [{args.eps_start}, {args.eps_end}]"
        )
    if args.steps < 1:
        raise ParameterRangeError(f"steps must be >= 1, got {args.steps}")

    report = enhancement_factor(ln.noise_ops, method=METHOD_DIRECT)
    pure, extended = optimal_input_states(report)
    rho_s = pure_to_density(pure)
    rho_sa = pure_to_density(extended)
    family = family_from_low_noise(ln)
    family_ext = extend_family(family, 2)

    grid = np.geomspace(args.eps_start, args.eps_end, args.steps)
    lines = ["epsilon,qfi_S,qfi_SA,eps_qfi_S,eps_qfi_SA"]
    for eps in grid:
        eps = float(eps)
        qfi_s = channel_qfi(family, rho_s, eps).qfi
        qfi_sa = channel_qfi(family_ext, rho_sa, eps).qfi
        lines.append(
            ",".join(_fmt(v) for v in (eps, qfi_s, qfi_sa, eps * qfi_s, eps * qfi_sa))
        )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_demo(args) -> int:
    axis = tuple(float(v) for v in args.axis.split(",")) if args.axis else (0.0, 0.0, 1.0)
    if len(axis) != 3:
        raise ParameterRangeError("axis needs exactly 3 comma-separated components")
    _print_json(
        demo_dict(
            args.name,
            beta_e=args.betaE,
            axis=axis,
            seed=args.seed,
            num_m=args.num_M,
            scale=args.scale,
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qest",
        description="Quantum Fisher information and ancilla-assisted enhancement "
        "for one-parameter qubit noise channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check trace preservation and expansion data")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eta", help="ancilla-assisted enhancement factor")
    p.add_argument("file")
    p.add_argument("--method", choices=sorted(_METHODS), default="direct")
    p.add_argument("--grid", type=int, default=None,
                   help="also run the brute-force search on this many sphere grid points")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("qfi", help="quantum Fisher information at one parameter value")
    p.add_argument("file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--input", required=True, help="Bloch triple x,y,z or 'bell'")
    p.add_argument("--ancilla", action="store_true", help="extend by a qubit ancilla")
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("sweep", help="CSV sweep of QFI over a log-spaced epsilon grid")
    p.add_argument("file")
    p.add_argument("--eps-start", type=float, required=True, dest="eps_start")
    p.add_argument("--eps-end", type=float, required=True, dest="eps_end")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="print the JSON file for a named catalog channel")
    p.add_argument("name")
    p.add_argument("--betaE", type=float, default=1.0)
    p.add_argument("--axis", default=None, help="rotation axis as x,y,z")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--num-M", type=int, default=3, dest="num_M")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QestError as exc:
        # every other package error: range, degeneracy, singular geometry, convergence
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
