"""Benchmark of nisynth: one command, three workloads, checked outputs.

Usage (from the root of the repository)::

    python3 bench/run.py --workload suite-small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the traced
run, which prints the per-layer metrics and writes its spans to
``bench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads, the speed correction and reference
figures.
"""

import os

# A plain single-threaded baseline: pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: time of one reference kernel at the reference speed; every timed
#: interval is scaled by T_REF_NOMINAL / (reference time next to it)
T_REF_NOMINAL = 1.9e-3
#: fresh interpreters timed for setup_s (after one untimed start)
SETUP_STARTS = 7

# ------------------------------------------------------- reference kernel

# Bound at import, so the tracer's numpy wrappers never touch the kernel.
_la = {f: getattr(np.linalg, f) for f in
       ("eigvals", "eigvalsh", "norm", "solve")}
_ref_rng = np.random.default_rng(20240917)
_REF_A = _ref_rng.standard_normal((6, 6)) - 3.0 * np.eye(6)
_REF_B = _ref_rng.standard_normal((6, 2)).astype(complex)
_REF_C = _ref_rng.standard_normal((2, 6))
_REF_I = np.eye(6)
_REF_OMEGAS = np.logspace(-2.0, 2.0, 16)


def reference():
    """Seconds taken by a fixed frequency sweep over a 6-state system.

    Per point it makes the calls the program's hot loop makes (eigenvalues,
    a 2-norm, a complex solve, a Hermitian eigenvalue problem) from a
    Python loop.  Of the kernels tried (this one, the same LAPACK calls
    without the sweep, 40x40 SVDs, pure-Python JSON work) its time tracked
    the program's op time most closely across processes.
    """
    t0 = time.perf_counter()
    worst = np.inf
    for w in _REF_OMEGAS:
        _la["eigvals"](_REF_A)
        scale = _la["norm"](_REF_A, 2)
        R = _REF_C @ _la["solve"](1j * w * _REF_I - _REF_A, _REF_B)
        H = 1j * (R - R.conj().T)
        lam = _la["eigvalsh"]((H + H.conj().T) / 2.0)
        worst = min(worst, float(lam[0]) / scale)
    t1 = time.perf_counter()
    if not np.isfinite(worst):
        raise RuntimeError("reference kernel produced a non-finite value")
    return t1 - t0


# ------------------------------------------------------------ measuring


def measure_setup():
    """(raw, reference) per fresh interpreter that imports nisynth.cli;
    the reference is the median of five kernel runs before the start and
    five after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import nisynth.cli"]
    subprocess.run(cmd, env=env, check=True)       # fills the file caches
    def burst():
        # one kernel run varies by about 28 %; a median of ten does not
        return [reference() for _ in range(5)]

    samples = []
    before = burst()
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        t1 = time.perf_counter()
        after = burst()
        samples.append((t1 - t0, float(np.median(before + after))))
        before = after
    return samples


def measure_ops(workload, seed, seconds, tracer=None):
    """Run whole rounds for about ``seconds``.

    Returns the op records, the reference samples ``(time, duration)`` and
    the number of rounds.  Each op is timed between two runs of the
    reference kernel.  Inputs are drawn before a round and outputs judged
    after it, outside the timed intervals.  The traced run instead runs
    the workload's fixed ``trace_rounds``, so two traced runs of one seed
    trace the same ops and give identical counts; its odd rounds are
    traced and its even rounds are not, so it measures its own overhead.
    """
    clock = time.perf_counter
    records, refs = [], []
    start = clock()

    def sample():
        t = clock()
        refs.append((t - start, reference()))

    rounds = 0
    while True:
        ops = workload.round(seed, rounds)
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        sample()
        for op in ops:
            if traced:
                tracer.op = len(records)
            t0 = clock()
            workload.run(op)
            t1 = clock()
            sample()
            records.append({"kind": op.kind, "round": rounds,
                            "start_s": t0 - start, "raw_s": t1 - t0,
                            "traced": traced, "op": op})
        if traced:
            tracer.uninstall()
        for rec in records[-len(ops):]:
            op = rec.pop("op")
            rec["errors"] = workload.judge(op)
            rec["known_fault"] = op.known_fault
            rec.update(op.extra)
        rounds += 1
        if tracer is not None:
            done = rounds == workload.trace_rounds
        else:
            # stop at the round boundary nearest to ``seconds``
            elapsed = clock() - start
            done = elapsed + elapsed / rounds / 2.0 >= seconds
        if done:
            break
    attach_reference(records, refs)
    return records, refs, rounds


#: half-width of the window of reference samples that scales an interval
REF_WINDOW_S = 0.5


def attach_reference(records, refs):
    """Set each record's ``ref_s``: the median reference time of the
    samples taken within REF_WINDOW_S of its interval (at least the two
    samples next to it).  The median ignores a sample that was itself
    disturbed; the window still follows the machine's speed, which drifts
    over seconds."""
    times = [t for t, _ in refs]
    for rec in records:
        t0, t1 = rec["start_s"], rec["start_s"] + rec["raw_s"]
        lo = min(bisect.bisect_left(times, t0 - REF_WINDOW_S),
                 bisect.bisect_left(times, t0) - 1)
        hi = max(bisect.bisect_right(times, t1 + REF_WINDOW_S),
                 bisect.bisect_right(times, t1) + 1)
        rec["ref_s"] = float(np.median([d for _, d in refs[max(lo, 0):hi]]))


def corrected(raw, ref):
    return raw * T_REF_NOMINAL / ref


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def quantile(x, p):
    """Harrell-Davis estimate of the p-quantile of ``x``: the mean of the
    order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.

    A single order statistic near the 90th percentile follows the few
    slowest ops, and one op varies by about 12 % between repetitions with
    a long slow tail; the weighted mean over the neighbouring order
    statistics halves the run-to-run spread of suite-large's op_p90_ms.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 40000
    t = (np.arange(steps) + 0.5) / steps
    pdf = np.exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
                 - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    cdf = np.concatenate([[0.0], np.cumsum(pdf)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.arange(steps + 1) / steps, cdf)
    return float(np.diff(edges) @ x)


def end_to_end(records, setup):
    raw = np.array([r["raw_s"] for r in records])
    cor = np.array([corrected(r["raw_s"], r["ref_s"]) for r in records])
    setup_raw = np.array([s[0] for s in setup])
    setup_cor = np.array([corrected(*s) for s in setup])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(t, s):
        p50, p90 = quantile(t, 0.5), quantile(t, 0.9)
        return {"setup_s": (float(np.median(s)), "s"),
                "ops_per_s": (len(t) / float(np.sum(t)), "1/s"),
                "op_p50_ms": (float(p50) * 1e3, "ms"),
                "op_p90_ms": (float(p90) * 1e3, "ms"),
                "peak_rss_mb": (peak, "MB")}
    return figures(cor, setup_cor), figures(raw, setup_raw)


#: per-layer metrics: self time per op of these spans, summed
SELF_MS = {
    "linalg.eig": ("linalg.eig",),
    "linalg.rank": ("linalg.rank",),
    "linalg.solve_lyapunov": ("linalg.solve_lyapunov",),
    "statespace.eval_tf": ("statespace.eval_tf",),
    "statespace.is_minimal": ("statespace.is_minimal",),
    "statespace.simulate": ("statespace.simulate",),
    "statespace.load_system": ("statespace.load_system",),
    "structure.find_output_transformation":
        ("structure.find_output_transformation",),
    "structure.to_normal_form": ("structure.to_normal_form",),
    "structure.split_zero_dynamics": ("structure.split_zero_dynamics",),
    "certify.classify_freq": ("certify.classify_freq",),
    "certify.verify_certificate": ("certify.verify_certificate",),
    "synth.synthesize": ("synth.synthesize_ni", "synth.synthesize_osni",
                         "synth.synthesize_ssni"),
    "synth.robust_stabilize": ("synth.robust_stabilize",),
    "cli.main": ("cli.main",),
}
#: ... calls per op of these spans and numpy.linalg counters
CALLS = ("linalg.eig", "linalg.rank", "linalg.spectral_norm", "lapack.svd",
         "lapack.solve", "statespace.eval_tf",
         "structure.relative_degree_vector")
#: ... and mean per op of these op outputs: name -> (key, unit)
PER_OP = {"synth.retries": ("retries", "count"),
          "cli.report_kb": ("report_kb", "KiB")}


def per_layer(records, tracer):
    """Per-op figures of the traced rounds, and the tracing overhead."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    factors = {k: T_REF_NOMINAL / r["ref_s"] for k, r in enumerate(records)}
    calls, self_ms = tracer.totals(factors)
    n = len(traced)
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name] / n, "count")
    for name, spans in SELF_MS.items():
        out[f"{name}.self_ms"] = (sum(self_ms[s] for s in spans) / n, "ms")
    for name, (key, unit) in PER_OP.items():
        out[name] = (sum(r.get(key, 0) for r in traced) / n, unit)

    def mean_op(rs):
        return sum(corrected(r["raw_s"], r["ref_s"]) for r in rs) / len(rs)
    out["trace.overhead_pct"] = (100.0 * (mean_op(traced) / mean_op(plain)
                                          - 1.0), "%")
    return out


def main(argv=None):
    import workloads
    import tracing

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "nisynth" / "cli.py",
              ROOT / workloads.CliDemo.PLANT]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: the program is not here: missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nisynth
    import nisynth.cli  # noqa: F401  (the CLI layer is traced too)

    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](nisynth, ROOT, OUT)
    for _ in range(20):
        reference()
    setup = [] if args.trace else measure_setup()
    work.prepare()
    warm = work.warmup(args.seed)
    work.run(warm)
    errors = work.judge(warm)
    if errors:
        print(f"bench: warm-up op failed: {errors}", file=sys.stderr)
    tracer = tracing.Tracer(nisynth) if args.trace else None
    records, refs, rounds = measure_ops(work, args.seed, args.seconds,
                                        tracer)

    failed = [r for r in records if r["errors"]]
    correct = all(r["known_fault"] for r in failed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "rounds": rounds,
               "ops": len(records), "environment": environment()}
    if args.trace:
        metrics = per_layer(records, tracer)
        tracer.write(OUT / f"trace-{tag}.json",
                     dict(summary, ops_traced=[
                         {"op": k, "kind": r["kind"], "round": r["round"],
                          "factor": T_REF_NOMINAL / r["ref_s"]}
                         for k, r in enumerate(records) if r["traced"]]))
    else:
        metrics, raw = end_to_end(records, setup)
        summary["raw"] = {k: v for k, (v, _) in raw.items()}
    summary["metrics"] = {k: v for k, (v, _) in metrics.items()}
    unknown = [r for r in failed if not r["known_fault"]]
    summary["failures"] = [{"kind": r["kind"], "round": r["round"],
                            "errors": r["errors"]} for r in unknown[:20]]
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        dict(summary, records=records, reference_samples=refs), indent=1))
    print(json.dumps({k: summary[k] for k in
                      ("environment", "rounds", "ops", "failures")
                      + (() if args.trace else ("raw",))}))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
