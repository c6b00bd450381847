"""SHA-256 digest of the program's outputs on the bench workloads.

Runs the ops of ``bench/workloads.py`` (imported, never modified) for a
fixed schedule: suite-small 10 rounds, suite-large 2 and cli-demo 6, each
at seeds 3 and 7, 652 ops in all.  Every op's raw result is hashed: arrays
by dtype, shape and bytes, floats by their exact hex form, exceptions by
type and message, dataclasses field by field.  A CLI report is hashed as
parsed JSON without its ``timings`` and with the scratch directory of the
run replaced by a placeholder, so two checkouts of the same code print the
same hashes.

Usage (from the root of the repository)::

    python3 tools/payload_digest.py    # per-op hashes, then the total

The last three lines are ``outcomes <sha256>``, ``ops N`` and ``total
<sha256>``.  Two checkouts whose totals match produce every output byte
for byte alike on these ops.  The outcomes digest hashes each op's coarse
result only: the class of the exception it raised, or else each
``Verdict.holds`` and each ``retries_used`` in it; for a CLI op, its exit
code and ``error.type``.  A declared drift that moves the total leaves it
unchanged when no verdict, error class, exit code or retry count moved.
"""

import os

# The bench's own setting, pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: (workload, rounds) per seed
SCHEDULE = (("suite-small", 10), ("suite-large", 2), ("cli-demo", 6))
SEEDS = (3, 7)
WORKDIR = "<workdir>"


def _feed(h, obj):
    """Update ``h`` with a canonical, type-tagged encoding of ``obj``."""
    if obj is None or isinstance(obj, (bool, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, enum.Enum):
        h.update(f"enum:{type(obj).__name__}.{obj.name}".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"int:{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"float:{float(obj).hex()}".encode())
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(f"complex:{obj.real.hex()},{obj.imag.hex()}".encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"array:{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, BaseException):
        h.update(f"raised:{type(obj).__name__}:{obj}".encode())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dataclass:{type(obj).__name__}(".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode() + b"=")
            _feed(h, getattr(obj, f.name))
            h.update(b",")
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            _feed(h, key)
            h.update(b":")
            _feed(h, obj[key])
            h.update(b",")
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
            h.update(b",")
        h.update(b"]")
    else:
        raise TypeError(f"no digest encoding for {type(obj).__name__}")


def _cli_payload(result, workdir):
    """A CLI op's ``(code, text)`` without timings and the run's paths."""
    code, text = result
    report = json.loads(text.replace(str(workdir), WORKDIR))
    report.pop("timings", None)
    return code, report


def op_digest(kind, result, workdir):
    h = hashlib.sha256()
    _feed(h, _cli_payload(result, workdir) if kind == "cli" else result)
    return h.hexdigest()


def _coarse(obj, out):
    """Append to ``out`` the coarse outcomes in ``obj``, in walk order:
    an exception's class, each ``Verdict.holds``, each ``retries_used``."""
    if isinstance(obj, BaseException):
        out.append(("raised", type(obj).__name__))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if type(obj).__name__ == "Verdict":
            out.append(("holds", obj.holds))
        else:
            for f in dataclasses.fields(obj):
                _coarse(getattr(obj, f.name), out)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            if key == "retries_used":
                out.append(("retries", obj[key]))
            else:
                _coarse(obj[key], out)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _coarse(item, out)


def op_outcome(kind, result):
    """SHA-256 of an op's coarse result (see the module docstring)."""
    if kind == "cli":
        code, text = result
        coarse = [code, json.loads(text).get("error", {}).get("type")]
    else:
        coarse = []
        _coarse(result, coarse)
    h = hashlib.sha256()
    _feed(h, coarse)
    return h.hexdigest()


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import nisynth
    import nisynth.cli  # noqa: F401  (the cli-demo ops call it)
    import workloads

    os.chdir(ROOT)
    total, outcomes = hashlib.sha256(), hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            for name, rounds in SCHEDULE:
                work = workloads.WORKLOADS[name](nisynth, ROOT, workdir)
                work.prepare()
                for r in range(rounds):
                    for slot, op in enumerate(work.round(seed, r)):
                        work.run(op)
                        digest = op_digest(op.kind, op.result, workdir)
                        total.update(digest.encode())
                        outcomes.update(
                            op_outcome(op.kind, op.result).encode())
                        count += 1
                        print(f"{name} seed={seed} round={r} "
                              f"slot={slot} {op.kind} {digest}")
    print(f"outcomes {outcomes.hexdigest()}")
    print(f"ops {count}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
