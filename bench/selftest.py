"""Self-test of the benchmark's correctness checks.

Each check must pass the program's right answer and reject a wrong one
(a perturbed gain, a flipped verdict, a forward-Euler state in place of
the RK4 one, ...).  Run from the root of the repository::

    python3 bench/selftest.py

It prints one line per case and exits 1 if any check accepts a wrong
answer or rejects a right one.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def perturbed(M, i=0, j=0, delta=1e-3):
    M = np.array(M, dtype=float)
    M[i, j] += delta
    return M


def euler_final(A, x0, t_end, dt):
    x = np.array(x0, dtype=float)
    for _ in range(int(round(t_end / dt))):
        x = x + dt * (A @ x)
    return x


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import nisynth
    import nisynth.cli  # noqa: F401

    cases = []                       # (name, errors, wrong answer?)

    def case(name, errors, wrong):
        cases.append((name, errors, wrong))

    with tempfile.TemporaryDirectory() as tmp:
        small = workloads.SuiteSmall(nisynth, ROOT, tmp)
        ops = {}
        for op in small.round(seed=7, round_index=0):
            # the last op of each kind, so the largest shape
            ops[op.data["expect"] if op.kind == "reject" else op.kind] = op
            small.run(op)

        # robust NI: the emitted law, its certificate and the loop
        op = ops["robust"]
        d, (res, verdict) = op.data, op.result
        A, B, C = d["A"], d["B"], d["C"]
        K_x, K_v, Y = res.law.K_x, res.law.K_v, res.Y_original
        A_cl, B_cl = checks.closed_loop(A, B, K_x, K_v)
        case("robust op as emitted", small.judge(op), False)
        case("certificate, K_x entry +1e-3", checks.check_certificate(
            A, B, C, perturbed(K_x), K_v, Y, "ni"), True)
        case("certificate, Y entry +1e-3", checks.check_certificate(
            A, B, C, K_x, K_v, perturbed(Y, 0, 0), "ni"), True)
        case("frequency, verdict flipped", checks.check_frequency(
            A_cl, B_cl, C, not verdict.holds), True)
        lam = checks.dc_gain(A_cl, B_cl, C)
        case("DC gain, gamma 1.01/lambda_max(R(0))", checks.check_dc(
            A_cl, B_cl, C, 1.01 / lam), True)
        case("robust loop, k/a = 10/lambda_max(R(0))",
             checks.check_robust_loop(A_cl, B_cl, C, 10.0 / lam, 1.0, 1.0),
             True)
        p1, p2, m_a, m_b = d["shape"]
        case("structure, m_b off by one", checks.check_shape(
            (p1, p2, m_a + m_b + 1, m_a, m_b + 1),
            small._shape(res.gains)), True)

        # output-strict and strongly-strict laws
        for kind in ("osni", "ssni"):
            op = ops[kind]
            gains, law, Y, eps, verdict = op.result
            A, B, C = op.data["A"], op.data["B"], op.data["C"]
            case(f"{kind} op as emitted", small.judge(op), False)
            case(f"{kind} certificate, K_x entry +1e-3",
                 checks.check_certificate(A, B, C, perturbed(law.K_x),
                                          law.K_v, Y, kind, eps), True)
        gains, law, Y, eps, verdict = ops["osni"].result
        A, B, C = (ops["osni"].data[k] for k in "ABC")
        case("osni certificate, eps x 100", checks.check_certificate(
            A, B, C, law.K_x, law.K_v, Y, "osni", 100.0 * eps), True)

        # rejections
        for expect in ("NoRdLeqTwoError", "NotWeaklyMinimumPhaseError"):
            op = ops[expect]
            case(f"{expect} as raised", small.judge(op), False)
            raised = [c.__name__ for c in type(op.result).__mro__]
            case(f"{expect}, verdict flipped (a result returned)",
                 checks.check_rejection(expect, None), True)
            case(f"{expect}, another error class",
                 checks.check_rejection(expect, ["InputError"] + raised[1:]),
                 True)
        plain = dict(ops["robust"].data, expect="NoRdLeqTwoError")
        case("NoRdLeqTwoError raised on a degree <= 2 plant",
             small.judge_reject(plain, ops["NoRdLeqTwoError"].result, {}),
             True)

        # the narrow resonance: not NI; only the exact answer passes
        op = ops["resonance"]
        A, B, C = (op.data[k] for k in "ABC")
        case("resonance, program's holds=True", small.judge(op), True)
        case("resonance, holds=False", checks.check_frequency(
            A, B, C, False, expect=False), False)

        # CLI: the paper's law, exit codes, normal form, simulation
        demo = workloads.CliDemo(nisynth, ROOT, tmp)
        demo.prepare()
        by_command = {}
        for op in demo.round(seed=7, round_index=0):
            demo.run(op)
            by_command[op.data["command"]] = op
            case(f"cli {op.data['command']} as emitted", demo.judge(op),
                 False)
        op = by_command["stabilize"]
        code, text = op.result
        report = json.loads(text)
        gains = report["gains"]
        case("paper law, K_x entry +1e-6", checks.check_paper_law(
            perturbed(gains["K_x"], 1, 2, 1e-6), gains["K_w"],
            checks.PAPER_LAM_R0), True)
        case("paper law, K_w entry +1e-6", checks.check_paper_law(
            gains["K_x"], perturbed(gains["K_w"], 0, 1, 1e-6),
            checks.PAPER_LAM_R0), True)
        case("paper law, lambda_max(R(0)) + 1e-6", checks.check_paper_law(
            gains["K_x"], gains["K_w"], checks.PAPER_LAM_R0 + 1e-6), True)
        case("stabilize, exit code 1", demo.judge_cli(
            op.data, (1, text), {}), True)
        case("synthesize ssni, exit code 0", demo.judge_cli(
            by_command["synthesize-ssni"].data,
            (0, by_command["synthesize-ssni"].result[1]), {}), True)
        op = by_command["analyze"]
        report = json.loads(op.result[1])
        report["normal_form"]["blocks"]["A13"] = perturbed(
            report["normal_form"]["blocks"]["A13"]).tolist()
        case("analyze, block A13 entry +1e-3", demo.judge_cli(
            op.data, (0, json.dumps(report)), {}), True)
        op = by_command["simulate"]
        x0 = op.data["x0"]
        A_loop = checks.loop_matrix(*demo.closed_abc, *demo.delta)
        case("simulate, forward-Euler state", checks.check_simulation(
            A_loop, x0, 20.0, euler_final(A_loop, x0, 20.0, 0.01)), True)

    # the metric names the run prints are the ones BENCHMARK.json lists
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, _ = run.end_to_end([{"raw_s": 0.01, "ref_s": 0.002}],
                            [(0.2, 0.002)])
    layers = ({f"{n}.calls" for n in run.CALLS}
              | {f"{n}.self_ms" for n in run.SELF_MS}
              | set(run.PER_OP) | {"trace.overhead_pct"})
    for key, names in (("end_to_end", set(e2e)), ("per_layer", layers)):
        want = {m["name"] for m in listed[key]}
        case(f"{key} metric names match BENCHMARK.json",
             [] if names == want else [f"differ: {names ^ want}"], False)

    bad = 0
    for name, errors, wrong in cases:
        ok = bool(errors) == wrong
        bad += not ok
        verdict = ("rejected" if errors else "accepted")
        print(f"[selftest] {'PASS' if ok else 'FAIL'}  {name}: {verdict}"
              + (f" ({errors[0][:90]})" if errors else ""))
    print(f"[selftest] {len(cases) - bad}/{len(cases)} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
