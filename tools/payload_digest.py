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

The last line is ``total <sha256>``.  Two checkouts whose totals match
produce every output byte for byte alike on these ops.
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


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import nisynth
    import nisynth.cli  # noqa: F401  (the cli-demo ops call it)
    import workloads

    os.chdir(ROOT)
    total = hashlib.sha256()
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
                        count += 1
                        print(f"{name} seed={seed} round={r} "
                              f"slot={slot} {op.kind} {digest}")
    print(f"ops {count}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
