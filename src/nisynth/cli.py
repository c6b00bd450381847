"""Command-line front end.

Subcommands: ``analyze``, ``synthesize``, ``stabilize``, ``verify``,
``simulate``.  Each emits a JSON report on stdout (or ``--out``): one line
of JSON with sorted keys, encoded by the standard library's C encoder;
``python -m json.tool`` indents it.  ``simulate``'s norms are finite for
any representable norm, however large or small the state's entries.  Exit
codes: 0 success / verdict holds, 1 verdict fails, 2 usage or input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys as _sys
import time

import numpy as np

from . import __version__, certify, structure, synth
from .errors import InputError, NumericalError, RelativeDegreeNotOneError, VerdictError
from .linalg import StabilityClass, frobenius_norm
from .statespace import (
    Minimality,
    UncertainSystem,
    interconnect_positive_feedback,
    is_minimal,
    load_json,
    load_system,
    read_input,
    simulate,
)

EXIT_OK = 0
EXIT_VERDICT_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def _emit(report, args):
    """Write the report to ``--out``, else to stdout; an unwritable
    ``--out`` is cleared, and raised as an ``InputError``."""
    report["timings"] = {"seconds": round(time.perf_counter() - args._t0, 6)}
    # no indent: only then does json use its C encoder; a non-finite
    # float raises ValueError, which main reports as exit 2
    text = json.dumps(report, sort_keys=True, allow_nan=False)
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        path, args.out = args.out, None
        raise InputError(f"cannot write report file {path}: {exc}") from exc


def _scaled_norm(x):
    """``(m, k)`` with ``||x||_2 = m 2^k``: ``m`` is the norm of ``x 2^-k``,
    ``k`` the binary exponent of the largest magnitude, so ``m`` neither
    overflows nor underflows; binary scaling is exact."""
    _, k = math.frexp(float(np.abs(x).max()))
    return frobenius_norm(np.ldexp(x, -k)), k


def _norm(x):
    """``||x||_2`` from ``_scaled_norm``: finite wherever the norm is
    representable, and ``np.linalg.norm(x)`` bit for bit wherever that
    neither overflows nor underflows."""
    m, k = _scaled_norm(x)
    with np.errstate(over="ignore"):  # a norm above the float range: inf
        return float(np.ldexp(m, k))


def _load_system(args):
    """The system of ``args.system`` and the report's base, from one read
    of the file: the ``sha256`` reported is that of the bytes parsed."""
    data = read_input(args.system)
    system = load_system(args.system, data)
    return system, {
        "command": " ".join(args._argv),
        "tool": {"name": "nisynth", "version": __version__},
        "inputs": {"system": args.system,
                   "sha256": hashlib.sha256(data).hexdigest()},
    }


def _number(value, name, kind=(int, float)):
    """``value`` when JSON gave a number of ``kind`` (a bool is none)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{name} must be {what}, got {value!r}")
    return value


def _config_from_args(args):
    """A SynthesisConfig from a --params file and direct flags, and the
    ``_transform_args`` of either file's transforms."""
    params = {}
    if args.params:
        params = load_json(args.params, "parameter")
        if not isinstance(params, dict):
            raise InputError("--params file must hold a JSON object")
    transforms = params.pop("transforms", None)
    if args.transforms:
        transforms = load_json(args.transforms, "transforms")
    for flag, key in (("y2", "Y2"), ("y3", "Y3"), ("epsilon", "epsilon"),
                      ("seed", "rng_seed")):
        val = getattr(args, flag, None)
        if val is not None:
            params[key] = val
    known = set(synth.SynthesisConfig.__dataclass_fields__)
    unknown = set(params) - known
    if unknown:
        raise InputError(f"unknown synthesis parameters: {sorted(unknown)}")
    for key, val in params.items():  # matrix fields take lists and None too
        if key in ("epsilon", "rng_seed") or \
                not isinstance(val, (list, type(None))):
            _number(val, key, int if key == "rng_seed" else (int, float))
    return synth.SynthesisConfig(**params), _transform_args(transforms)


def _transform_args(transforms):
    if not transforms:
        return {}
    if not isinstance(transforms, dict):
        raise InputError("transforms must be a JSON object")
    unknown = set(transforms) - {"T_y", "T_x", "T_u"}
    if unknown:
        raise InputError(f"unknown transform keys: {sorted(unknown)}")
    return {key: val for key, val in transforms.items() if val is not None}


def _pipeline_normal_form(system, target, overrides):
    """Output transformation plus normal form for a synthesis target."""
    if target == "ssni":
        info = structure.relative_degree_vector(system)
        if info.p1 < system.n_outputs:
            raise RelativeDegreeNotOneError(
                f"strongly-strict synthesis needs relative degree "
                f"{{1,...,1}} of the original outputs, rank(C B) = p "
                f"(got r={info.r}, p1={info.p1})")
        overrides = {"T_y": np.eye(system.n_outputs), **overrides}
    return structure.to_normal_form(system, **overrides)


def cmd_analyze(args):
    system, report = _load_system(args)
    # the original outputs' degrees, before the transforms file is read
    info0 = structure.relative_degree_vector(system)
    overrides = _transform_args(
        load_json(args.transforms, "transforms") if args.transforms else None)
    nf = structure.to_normal_form(system, **overrides)
    # the normal form's screen proves the plant minimal without an eig of
    # its A; only when it cannot does the plant's own PBH test decide
    m = Minimality(controllable=True, observable=True) \
        if nf.screened_minimal else is_minimal(system)
    report["minimality"] = {"controllable": m.controllable,
                            "observable": m.observable}
    report["relative_degree"] = {"r": list(info0.r), "p1": info0.p1,
                                 "p2": info0.p2}
    report["transformed_relative_degree"] = {"r": list(nf.rd_info.r)}
    report["normal_form"] = {
        "p1": nf.p1, "p2": nf.p2, "m": nf.m,
        "blocks": {name: getattr(nf, name).tolist()
                   for name in ("A00", "A01", "A02", "A03", "A10", "A11",
                                "A12", "A13", "A30", "A31", "A32", "A33")},
        "transforms": nf.transforms.to_dict(),
    }
    split = structure.split_zero_dynamics(nf)
    report["phase"] = {
        "minimum_phase": split.stability is StabilityClass.HURWITZ}
    report["zero_dynamics_split"] = {
        "m_a": split.m_a, "m_b": split.m_b,
        "A00a": split.A00a.tolist(), "A00b": split.A00b.tolist(),
        "S": split.S.tolist(),
    }
    _emit(report, args)
    return EXIT_OK


def _report_gains(report, gains):
    """Write the gains, closed loop, certificate and its verdict."""
    law = gains.law
    report["gains"] = {
        "K_x": law.K_x.tolist(),
        "K_v": law.K_v.tolist(),
        "K_w": law.K_w.tolist(),
        "blocks": gains.gains_dict(),
        "transforms": gains.normal_form.transforms.to_dict(),
        "free_parameters": gains.free_parameters,
    }
    report["closed_loop"] = gains.nominal_closed.to_dict()
    report["certificate"] = gains.certificate.to_dict()
    report["verdicts"] = {"certificate": gains.verdict.to_dict()}


def cmd_synthesize(args):
    system, report = _load_system(args)
    cfg, overrides = _config_from_args(args)
    report["target"] = args.target
    report["rng_seed"] = cfg.rng_seed
    nf = _pipeline_normal_form(system, args.target, overrides)
    synthesizer = {"ni": synth.synthesize_ni, "osni": synth.synthesize_osni,
                   "ssni": synth.synthesize_ssni}[args.target]
    _report_gains(report, synthesizer(nf, cfg))
    _emit(report, args)
    return EXIT_OK


def cmd_stabilize(args):
    system, report = _load_system(args)
    cfg, overrides = _config_from_args(args)
    usys = UncertainSystem(plant=system, gamma=args.gamma)
    report["gamma"] = args.gamma
    report["rng_seed"] = cfg.rng_seed
    result = synth.robust_stabilize(usys, cfg, **overrides)
    _report_gains(report, result.gains)
    freq = certify.classify_freq(result.gains.nominal_closed, "ni")
    report["verdicts"]["frequency_ni"] = freq.to_dict()
    report["dc"] = {"lam_max_R0": result.lam_max_R0,
                    "bound": result.dc_bound,
                    "transformed_value": result.dc_value,
                    "margin": result.dc_margin}
    _emit(report, args)
    return EXIT_OK if freq.holds else EXIT_VERDICT_FAILS


def cmd_verify(args):
    system, report = _load_system(args)
    report["class"] = args.ni_class
    cert_data = None
    eps = args.epsilon
    if args.certificate:
        cert_data = load_json(args.certificate, "certificate")
        if not isinstance(cert_data, dict) or \
                not isinstance(cert_data.get("class", ""), str):
            raise InputError(
                "certificate must be a JSON object whose 'class' is a string")
        cert_class = cert_data.get("class", args.ni_class).lower()
        if cert_class != args.ni_class:
            raise InputError(
                f"certificate class {cert_class!r} does not match "
                f"--class {args.ni_class}")
        if "Y" not in cert_data:
            raise InputError("certificate JSON must hold a matrix 'Y'")
        if eps is None and cert_data.get("epsilon") is not None:
            eps = _number(cert_data["epsilon"], "certificate epsilon")
    verdicts = {}
    holds = True
    freq = certify.classify_freq(system, args.ni_class, eps=eps)
    verdicts["frequency"] = freq.to_dict()
    holds &= freq.holds
    if cert_data is not None:
        verdict, cert = certify.verify_certificate(
            system, args.ni_class, cert_data["Y"], eps)
        verdicts["certificate"] = verdict.to_dict()
        report["certificate"] = cert.to_dict()
        holds &= verdict.holds
    report["verdicts"] = verdicts
    _emit(report, args)
    return EXIT_OK if holds else EXIT_VERDICT_FAILS


def cmd_simulate(args):
    system, report = _load_system(args)
    if args.delta:
        delta = load_system(args.delta)
        system = interconnect_positive_feedback(system, delta)
        report["delta"] = args.delta
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError as exc:
        raise InputError(f"--x0 must be comma-separated numbers: {exc}") from exc
    traj = simulate(system, x0, t_end=args.t_end, dt=args.dt)
    (m0, k0), (m_end, k_end) = _scaled_norm(x0), _scaled_norm(traj.states[-1])
    with np.errstate(over="ignore"):  # beyond the float range: inf
        # the ratio of the scaled norms, so a norm's overflow does not
        # carry into it; bit for bit norm_end / norm0 in the normal range
        ratio = float(np.ldexp(m_end / m0, k_end - k0)) if m0 else None
    sim = report["simulation"] = {
        "t_end": args.t_end, "dt": args.dt, "n_states": system.n,
        "x0": x0.tolist(), "final_state": traj.states[-1].tolist(),
        "initial_norm": _norm(x0), "final_norm": _norm(traj.states[-1]),
        "ratio": ratio,
    }
    # JSON has no inf: such a figure is reported as null, with a note
    notes = []
    for field in ("initial_norm", "final_norm", "ratio"):
        if sim[field] is not None and not math.isfinite(sim[field]):
            sim[field] = None
            notes.append(f"{field} exceeds the float range")
    if notes:
        sim["notes"] = notes
    _emit(report, args)
    return EXIT_OK


@functools.cache
def build_parser():
    """The parser, built once on the first call; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="nisynth",
        description="Negative-imaginary analysis, synthesis and robust "
                    "stabilization for LTI state-space systems")
    parser.add_argument("--version", action="version",
                        version=f"nisynth {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("system", help="system JSON file")
        p.add_argument("--out", help="write the report to this file")

    def synthesis_options(p):
        p.add_argument("--y2", type=float, help="scalar Y2 (meaning y2 * I)")
        p.add_argument("--y3", type=float, help="scalar Y3 (meaning y3 * I)")
        p.add_argument("--seed", type=int, help="seed for random parameters")
        p.add_argument("--params", help="JSON file of synthesis parameters")
        p.add_argument("--transforms", help="JSON file pinning T_y/T_x/T_u")

    p = sub.add_parser("analyze", help="structural analysis and normal form")
    common(p)
    p.add_argument("--transforms", help="JSON file pinning T_y/T_x/T_u")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="state-feedback synthesis")
    common(p)
    synthesis_options(p)
    p.add_argument("--target", choices=("ni", "osni", "ssni"), default="ni")
    p.add_argument("--epsilon", type=float, help="output strictness level")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("stabilize",
                       help="robust stabilization under SNI uncertainty")
    common(p)
    synthesis_options(p)
    p.add_argument("--gamma", type=float, required=True,
                   help="DC bound on the uncertainty")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("verify", help="class membership tests")
    common(p)
    p.add_argument("--class", dest="ni_class",
                   choices=("ni", "sni", "osni", "ssni"), required=True)
    p.add_argument("--certificate", help="certificate JSON to check")
    p.add_argument("--epsilon", type=float,
                   help="output strictness level for osni")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "simulate",
        help="zero-input simulation with the exact transition matrix")
    common(p)
    p.add_argument("--delta", help="uncertainty system JSON to interconnect")
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.set_defaults(func=cmd_simulate)
    return parser


def _emit_error(args, exc, kind, code):
    """Emit ``exc``'s report and return ``code``; an unwritable --out is
    reported instead, on stdout."""
    report = {
        "command": " ".join(args._argv),
        "tool": {"name": "nisynth", "version": __version__},
        "error": {"kind": kind, "type": type(exc).__name__,
                  "message": str(exc)},
    }
    try:
        _emit(report, args)
    except InputError as unwritable:
        return _emit_error(args, unwritable, "input-error", EXIT_INPUT_ERROR)
    return code


def main(argv=None):
    argv = list(_sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    args._argv = ["nisynth"] + argv
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except VerdictError as exc:
        return _emit_error(args, exc, "verdict", EXIT_VERDICT_FAILS)
    # a LAPACK failure is a ValueError too: it must be caught first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return _emit_error(args, exc, "numerical-failure", EXIT_NUMERICAL)
    except (InputError, OSError, ValueError) as exc:
        return _emit_error(args, exc, "input-error", EXIT_INPUT_ERROR)


if __name__ == "__main__":
    raise SystemExit(main())
