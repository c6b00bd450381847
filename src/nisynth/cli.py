"""Command-line front end.

Subcommands: ``analyze``, ``synthesize``, ``stabilize``, ``verify``,
``simulate``.  Each emits a JSON report on stdout (or ``--out``).  Exit
codes: 0 success / verdict holds, 1 verdict fails, 2 usage or input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys as _sys
import time

import numpy as np

from . import __version__, certify, structure, synth
from .errors import InputError, NumericalError, RelativeDegreeNotOneError, VerdictError
from .linalg import StabilityClass
from .statespace import (
    UncertainSystem,
    has_zero_at_origin,
    interconnect_positive_feedback,
    is_minimal,
    load_system,
    simulate,
)

EXIT_OK = 0
EXIT_VERDICT_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _emit(report, args):
    report["timings"] = {"seconds": round(time.perf_counter() - args._t0, 6)}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_report(args, sys_path):
    return {
        "command": " ".join(args._argv),
        "tool": {"name": "nisynth", "version": __version__},
        "inputs": {"system": sys_path, "sha256": _sha256(sys_path)},
    }


def _config_from_args(args):
    """Merge a --params file and direct flags into a SynthesisConfig."""
    params = {}
    if getattr(args, "params", None):
        params = _load_json(args.params, "parameter")
        if not isinstance(params, dict):
            raise InputError("--params file must hold a JSON object")
    transforms = params.pop("transforms", None)
    if getattr(args, "transforms", None):
        transforms = _load_json(args.transforms, "transforms")
    for flag, key in (("y2", "Y2"), ("y3", "Y3"), ("epsilon", "epsilon"),
                      ("seed", "rng_seed")):
        val = getattr(args, flag, None)
        if val is not None:
            params[key] = val
    known = set(synth.SynthesisConfig.__dataclass_fields__)
    unknown = set(params) - known
    if unknown:
        raise InputError(f"unknown synthesis parameters: {sorted(unknown)}")
    return synth.SynthesisConfig(**params), transforms


def _transform_args(transforms):
    if not transforms:
        return {}
    if not isinstance(transforms, dict):
        raise InputError("transforms must be a JSON object")
    unknown = set(transforms) - {"T_y", "T_x", "T_u"}
    if unknown:
        raise InputError(f"unknown transform keys: {sorted(unknown)}")
    return {key: np.asarray(val, dtype=float)
            for key, val in transforms.items() if val is not None}


def _pipeline_normal_form(system, target, overrides):
    """Output transformation plus normal form for a synthesis target."""
    T_y = overrides.get("T_y")
    if target == "ssni":
        info = structure.relative_degree_vector(system)
        if info.kind is not structure.RdKind.FULL or \
                any(d != 1 for d in info.r):
            raise RelativeDegreeNotOneError(
                f"strongly-strict synthesis needs relative degree "
                f"{{1,...,1}} of the original outputs (got r={info.r})")
        T_y = np.eye(system.n_outputs) if T_y is None else T_y
    return structure.to_normal_form(system, T_y,
                                    T_x=overrides.get("T_x"),
                                    T_u=overrides.get("T_u"))


def cmd_analyze(args):
    system = load_system(args.system)
    report = _base_report(args, args.system)
    m = is_minimal(system)
    report["minimality"] = {"controllable": m.controllable,
                            "observable": m.observable}
    report["zero_at_origin"] = has_zero_at_origin(system)
    # the normal form's T_y search computes the original outputs' degrees
    # before any other test and records them; with a transforms file it
    # may not run, so the degrees are computed here, before the file is read
    info0 = structure.relative_degree_vector(system) if args.transforms \
        else None
    overrides = _transform_args(
        _load_json(args.transforms, "transforms") if args.transforms else None)
    nf = structure.to_normal_form(system, overrides.get("T_y"),
                                  T_x=overrides.get("T_x"),
                                  T_u=overrides.get("T_u"))
    info0 = info0 or nf.source_rd_info
    report["relative_degree"] = {"r": list(info0.r),
                                 "kind": info0.kind.value,
                                 "notes": list(info0.notes)}
    report["transformed_relative_degree"] = {"r": list(nf.rd_info.r),
                                             "kind": nf.rd_info.kind.value}
    report["normal_form"] = {
        "p1": nf.p1, "p2": nf.p2, "m": nf.m,
        "blocks": {name: getattr(nf, name).tolist()
                   for name in ("A00", "A01", "A02", "A03", "A10", "A11",
                                "A12", "A13", "A30", "A31", "A32", "A33")},
        "transforms": nf.transforms.to_dict(),
    }
    split = structure.split_zero_dynamics(nf)
    report["phase"] = {
        "weakly_minimum_phase": split.stability is not StabilityClass.UNSTABLE,
        "minimum_phase": split.stability is StabilityClass.HURWITZ}
    report["zero_dynamics_split"] = {
        "m_a": split.m_a, "m_b": split.m_b,
        "A00a": split.A00a.tolist(), "A00b": split.A00b.tolist(),
        "S": split.S.tolist(),
    }
    _emit(report, args)
    return EXIT_OK


def _gains_payload(gains, law):
    return {
        "K_x": law.K_x.tolist(),
        "K_v": law.K_v.tolist(),
        "K_w": law.K_w.tolist(),
        "blocks": gains.gains_dict(),
        "transforms": gains.normal_form.transforms.to_dict(),
        "free_parameters": gains.free_parameters,
    }


def cmd_synthesize(args):
    system = load_system(args.system)
    cfg, transforms = _config_from_args(args)
    overrides = _transform_args(transforms)
    report = _base_report(args, args.system)
    report["target"] = args.target
    report["rng_seed"] = cfg.rng_seed
    nf = _pipeline_normal_form(system, args.target, overrides)
    synthesizer = {"ni": synth.synthesize_ni, "osni": synth.synthesize_osni,
                   "ssni": synth.synthesize_ssni}[args.target]
    gains = synthesizer(nf, cfg)
    law = synth.compose_full_gain(gains)
    closed, Y_orig, eps_orig = synth.original_coordinates_certificate(gains)
    cert = certify.compute_certificate(closed, gains.ni_class, Y_orig,
                                       eps_orig)
    report["gains"] = _gains_payload(gains, law)
    report["closed_loop"] = closed.to_dict()
    report["certificate"] = cert.to_dict()
    report["verdicts"] = {"certificate": gains.verdict.to_dict()}
    _emit(report, args)
    return EXIT_OK


def cmd_stabilize(args):
    system = load_system(args.system)
    cfg, transforms = _config_from_args(args)
    overrides = _transform_args(transforms)
    usys = UncertainSystem(plant=system, gamma=args.gamma)
    report = _base_report(args, args.system)
    report["gamma"] = args.gamma
    report["rng_seed"] = cfg.rng_seed
    result = synth.robust_stabilize(usys, cfg, T_y=overrides.get("T_y"),
                                    T_x=overrides.get("T_x"),
                                    T_u=overrides.get("T_u"))
    report["gains"] = _gains_payload(result.gains, result.law)
    report["closed_loop"] = result.nominal_closed.to_dict()
    report["certificate"] = result.certificate_original.to_dict()
    freq = certify.classify_freq(result.nominal_closed, "ni")
    report["verdicts"] = {
        "certificate": result.gains.verdict.to_dict(),
        "frequency_ni": freq.to_dict(),
    }
    report["dc"] = {"lam_max_R0": result.lam_max_R0,
                    "bound": result.dc_bound,
                    "transformed_value": result.dc_value,
                    "margin": result.dc_margin}
    _emit(report, args)
    return EXIT_OK if freq.holds else EXIT_VERDICT_FAILS


def cmd_verify(args):
    system = load_system(args.system)
    report = _base_report(args, args.system)
    report["class"] = args.ni_class
    cert_data = None
    eps = args.epsilon
    if args.certificate:
        cert_data = _load_json(args.certificate, "certificate")
        cert_class = cert_data.get("class", args.ni_class).lower()
        if cert_class != args.ni_class:
            raise InputError(
                f"certificate class {cert_class!r} does not match "
                f"--class {args.ni_class}")
        if "Y" not in cert_data:
            raise InputError("certificate JSON must hold a matrix 'Y'")
        if eps is None:
            eps = cert_data.get("epsilon")
    verdicts = {}
    holds = True
    grid = certify.FrequencyGrid.default(system, points=args.grid_points)
    freq = certify.classify_freq(system, args.ni_class, grid=grid, eps=eps)
    verdicts["frequency"] = freq.to_dict()
    holds &= freq.holds
    if cert_data is not None:
        verdict, cert = certify.verify_certificate(
            system, args.ni_class, np.asarray(cert_data["Y"], dtype=float),
            eps)
        verdicts["certificate"] = verdict.to_dict()
        report["certificate"] = cert.to_dict()
        holds &= verdict.holds
    report["verdicts"] = verdicts
    _emit(report, args)
    return EXIT_OK if holds else EXIT_VERDICT_FAILS


def cmd_simulate(args):
    system = load_system(args.system)
    report = _base_report(args, args.system)
    if args.delta:
        delta = load_system(args.delta)
        system = interconnect_positive_feedback(system, delta)
        report["delta"] = args.delta
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError as exc:
        raise InputError(f"--x0 must be comma-separated numbers: {exc}") from exc
    traj = simulate(system, x0, t_end=args.t_end, dt=args.dt)
    norm0 = float(np.linalg.norm(x0))
    norm_end = float(np.linalg.norm(traj.states[-1]))
    report["simulation"] = {
        "t_end": args.t_end, "dt": args.dt, "n_states": system.n,
        "x0": x0.tolist(), "final_state": traj.states[-1].tolist(),
        "initial_norm": norm0, "final_norm": norm_end,
        "ratio": norm_end / norm0 if norm0 else None,
    }
    _emit(report, args)
    return EXIT_OK


def build_parser():
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

    p = sub.add_parser("analyze", help="structural analysis and normal form")
    common(p)
    p.add_argument("--transforms", help="JSON file pinning T_y/T_x/T_u")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="state-feedback synthesis")
    common(p)
    p.add_argument("--target", choices=("ni", "osni", "ssni"), default="ni")
    p.add_argument("--y2", type=float, help="scalar Y2 (meaning y2 * I)")
    p.add_argument("--y3", type=float, help="scalar Y3 (meaning y3 * I)")
    p.add_argument("--epsilon", type=float, help="output strictness level")
    p.add_argument("--seed", type=int, help="seed for randomized parameters")
    p.add_argument("--params", help="JSON file of synthesis parameters")
    p.add_argument("--transforms", help="JSON file pinning T_y/T_x/T_u")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("stabilize",
                       help="robust stabilization under SNI uncertainty")
    common(p)
    p.add_argument("--gamma", type=float, required=True,
                   help="DC bound on the uncertainty")
    p.add_argument("--y2", type=float)
    p.add_argument("--y3", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--params", help="JSON file of synthesis parameters")
    p.add_argument("--transforms", help="JSON file pinning T_y/T_x/T_u")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("verify", help="class membership tests")
    common(p)
    p.add_argument("--class", dest="ni_class",
                   choices=("ni", "sni", "osni", "ssni"), required=True)
    p.add_argument("--certificate", help="certificate JSON to check")
    p.add_argument("--grid-points", type=int, default=certify.GRID_POINTS)
    p.add_argument("--epsilon", type=float,
                   help="output strictness level for osni")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="fixed-step simulation")
    common(p)
    p.add_argument("--delta", help="uncertainty system JSON to interconnect")
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.set_defaults(func=cmd_simulate)
    return parser


def _emit_error(args, exc, kind):
    report = {
        "command": " ".join(getattr(args, "_argv", ["nisynth"])),
        "tool": {"name": "nisynth", "version": __version__},
        "error": {"kind": kind, "type": type(exc).__name__,
                  "message": str(exc)},
    }
    _emit(report, args)


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
        _emit_error(args, exc, "verdict")
        return EXIT_VERDICT_FAILS
    # a LAPACK failure is a ValueError too: it must be caught first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        _emit_error(args, exc, "numerical-failure")
        return EXIT_NUMERICAL
    except (InputError, OSError, ValueError) as exc:
        _emit_error(args, exc, "input-error")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
