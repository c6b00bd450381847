"""The payload digest's outcome hash: a rounding-level change of a gain
leaves it in place, a different error class moves it."""

import dataclasses
import importlib.util
import json
from pathlib import Path

from nisynth import UncertainSystem, classify_freq, robust_stabilize
from nisynth.errors import NoRdLeqTwoError, NumericalError

_spec = importlib.util.spec_from_file_location(
    "payload_digest",
    Path(__file__).resolve().parent.parent / "tools" / "payload_digest.py")
payload_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(payload_digest)


def test_outcome_ignores_rounding_and_tells_errors_apart(demo_plant):
    res = robust_stabilize(UncertainSystem(plant=demo_plant, gamma=1.0))
    result = (res, classify_freq(res.nominal_closed, "ni"))
    K_x = res.law.K_x.copy()
    K_x[0, 0] += 1e-15
    law = dataclasses.replace(res.law, K_x=K_x)
    moved = (dataclasses.replace(
        res, gains=dataclasses.replace(res.gains, law=law)), result[1])
    digest, outcome = payload_digest.op_digest, payload_digest.op_outcome
    # the workdir is read only for a CLI op
    assert digest("robust", moved, None) != digest("robust", result, None)
    assert outcome("robust", moved) == outcome("robust", result)
    assert outcome("reject", NumericalError("x")) != \
        outcome("reject", NoRdLeqTwoError("x"))
    report = json.dumps({"error": {"type": "NumericalError"}})
    assert outcome("cli", (3, report)) != outcome("cli", (0, "{}"))
