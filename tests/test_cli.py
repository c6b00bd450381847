import argparse
import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nisynth
from nisynth import cli, structure
from nisynth.cli import main
from nisynth.errors import VerdictError
from nisynth.statespace import interconnect_positive_feedback, load_system
from nisynth.structure import to_normal_form
from nisynth.synth import synthesize_ssni

from gen import (
    EDGE_ZERO_DYNAMICS,
    MALFORMED_SYSTEMS,
    edge_plant,
    feedthrough_plant,
    planted_system,
    uncontrollable_plant,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def run_cli_clean(capsys, *argv):
    """``run_cli`` for a run that must leave no traceback: nothing on
    stderr and one line of JSON on stdout."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 1 and out.endswith("\n")
    return code, json.loads(out)


def assert_verdict_checks_certificate(rep):
    """The certificate verdict of a report is the check of its certificate."""
    verdict, cert = rep["verdicts"]["certificate"], rep["certificate"]
    assert verdict["holds"] is True
    assert verdict["class"] == cert["class"]
    assert verdict["worst_margin"] == cert["residuals"]["lyap_residual"]


@pytest.fixture()
def plant_path(sample_paths):
    return str(sample_paths["plant"])


@pytest.fixture()
def params_path(sample_paths):
    return str(sample_paths["params"])


class TestAnalyze:
    def test_demo_plant(self, capsys, plant_path, params_path):
        code, rep = run_cli(capsys, "analyze", plant_path)
        assert code == 0
        assert rep["minimality"] == {"controllable": True, "observable": True}
        assert sorted(rep["transformed_relative_degree"]["r"]) == [1, 2]
        assert rep["phase"] == {"minimum_phase": True}
        assert rep["inputs"]["sha256"]

    def test_original_degrees_computed_once(self, capsys, plant_path):
        # the report's degrees of the original outputs are analyze's own
        # relative_degree_vector of the plant, not a copy the normal form
        # keeps
        code, rep = run_cli(capsys, "analyze", plant_path)
        assert code == 0
        info = structure.relative_degree_vector(load_system(plant_path))
        assert rep["relative_degree"] == {
            "r": list(info.r), "p1": info.p1, "p2": info.p2}
        assert rep["relative_degree"] == {"r": [1, 1], "p1": 1, "p2": 1}

    def test_pinned_transforms(self, capsys, plant_path, params_path,
                               tmp_path):
        transforms = json.loads(Path(params_path).read_text())["transforms"]
        tf = tmp_path / "tf.json"
        tf.write_text(json.dumps(transforms))
        code, rep = run_cli(capsys, "analyze", plant_path,
                            "--transforms", str(tf))
        assert code == 0
        assert rep["normal_form"]["blocks"]["A00"] == [[-1.0]]
        assert rep["normal_form"]["blocks"]["A01"] == [[2.0]]

    def test_triple_integrator_exits_one(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({
            "A": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            "B": [[0], [0], [1]], "C": [[1, 0, 0]]}))
        code, rep = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert rep["error"]["type"] == "NoRdLeqTwoError"

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[0, 1')
        code, rep = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "line" in rep["error"]["message"]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        path = str(tmp_path / "nope.json")
        code, rep = run_cli_clean(capsys, "analyze", path)
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert rep["error"]["message"].startswith(
            f"cannot read system file {path}")

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_lapack_failure_exits_three(self, capsys, tmp_path):
        # finite entries, but LAPACK's SVD does not converge on them
        big = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "A": [[big, -big, big], [-big, big, -big], [big, big, -big]],
            "B": [[1], [0], [0]], "C": [[0, 0, 1]]}))
        code, rep = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert rep["error"]["kind"] == "numerical-failure"

    def test_markov_overflow_exits_three(self, capsys, tmp_path):
        # C B = C A B = 0, and ||A||_F^2 = 1e320 overflows: the relative
        # degree is undecided, not a verdict, and no warning escapes
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "A": [[-1e160, 0, 0], [0, -1, 0], [0, 0, -2]],
            "B": [[0], [0], [1]], "C": [[0, 1, 0]]}))
        code, rep = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert rep["error"]["type"] == "NumericalError"
        assert rep["error"]["message"].startswith("the Markov parameters")


class TestSynthesize:
    def test_deterministic_gain_payload(self, capsys, plant_path):
        code1, rep1 = run_cli(capsys, "synthesize", plant_path, "--seed", "7")
        code2, rep2 = run_cli(capsys, "synthesize", plant_path, "--seed", "7")
        assert code1 == code2 == 0
        assert json.dumps(rep1["gains"], sort_keys=True) == \
            json.dumps(rep2["gains"], sort_keys=True)

    def test_seed_changes_gains(self, capsys, plant_path):
        _, rep1 = run_cli(capsys, "synthesize", plant_path, "--seed", "1")
        _, rep2 = run_cli(capsys, "synthesize", plant_path, "--seed", "2")
        assert json.dumps(rep1["gains"]) != json.dumps(rep2["gains"])

    def test_certificate_round_trip(self, capsys, plant_path, tmp_path):
        code, rep = run_cli(capsys, "synthesize", plant_path, "--seed", "3")
        assert code == 0
        assert_verdict_checks_certificate(rep)
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(rep["closed_loop"]))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(rep["certificate"]))
        code2, rep2 = run_cli(capsys, "verify", str(closed), "--class", "ni",
                              "--certificate", str(cert))
        assert code2 == 0
        assert rep2["verdicts"]["certificate"]["holds"] is True
        assert rep2["verdicts"]["frequency"]["holds"] is True

    def test_pinned_params_file(self, capsys, plant_path, params_path):
        code, rep = run_cli(capsys, "synthesize", plant_path,
                            "--params", params_path)
        assert code == 0
        assert rep["gains"]["K_x"] == [[0.0, -3.0, -1.0, -2.0],
                                       [-3.0, -6.0, 14.5, -1.5]]
        assert rep["gains"]["K_v"] == [[1.0, 1.0], [0.0, -1.0]]

    def test_ssni_on_degree_two_plant_exits_one(self, capsys, plant_path):
        code, rep = run_cli(capsys, "synthesize", plant_path,
                            "--target", "ssni")
        assert code == 1
        assert rep["error"]["type"] == "RelativeDegreeNotOneError"

    @pytest.mark.parametrize("T_y", [None, [[2.0, 1.0], [-1.0, 1.0]]],
                             ids=["identity", "pinned"])
    def test_ssni_law_is_the_librarys(self, capsys, tmp_path, T_y):
        # a {1,...,1} plant keeps its outputs (T_y = I) unless a
        # transforms file pins T_y; either way the CLI's law is the one
        # synthesize_ssni delivers from that normal form
        drawn, _ = planted_system(np.random.default_rng(5), 2, 0, 0, 2)
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(drawn.to_dict()))
        argv = ["synthesize", str(path), "--target", "ssni"]
        if T_y is not None:
            pinned = tmp_path / "transforms.json"
            pinned.write_text(json.dumps({"T_y": T_y}))
            argv += ["--transforms", str(pinned)]
        code, rep = run_cli(capsys, *argv)
        assert code == 0
        nf = to_normal_form(load_system(str(path)),
                            np.eye(2) if T_y is None else np.array(T_y))
        assert rep["gains"]["K_x"] == synthesize_ssni(nf).law.K_x.tolist()

    def test_unknown_param_rejected(self, capsys, plant_path, tmp_path):
        bad = tmp_path / "params.json"
        for name in ("Y9", "theta", "k13_policy", "y1a", "Qb",
                     "max_retries"):
            bad.write_text(json.dumps({name: 1.0}))
            code, rep = run_cli(capsys, "synthesize", plant_path,
                                "--params", str(bad))
            assert code == 2, name
            assert name in rep["error"]["message"]


class TestMalformedInput:
    """A system file that is no system, or a transforms file that does
    not fit the plant, exits 2 with one line of JSON naming an
    ``InputError``, whatever the command."""

    @pytest.mark.parametrize("text", MALFORMED_SYSTEMS.values(),
                             ids=MALFORMED_SYSTEMS.keys())
    def test_malformed_system_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, rep = run_cli_clean(capsys, "analyze", str(path))
        assert code == 2
        assert rep["error"]["type"] == "InputError"

    def test_numeric_string_and_boolean_entries_exit_two(self, capsys,
                                                         tmp_path):
        # numpy reads "-1.5" and true as numbers; JSON calls them a string
        # and a boolean, which no matrix entry may be
        path = tmp_path / "typed.json"
        path.write_text('{"A": [["-1.5"]], "B": [[true]], "C": [[1]]}')
        code, rep = run_cli_clean(capsys, "analyze", str(path))
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert rep["error"]["message"] == \
            "A must be a matrix of numbers, not strings or booleans"

    def test_integer_beyond_the_float_range_exits_two(self, capsys,
                                                      tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"A": [[1' + "0" * 400 + ']], "B": [[1]], '
                        '"C": [[1]]}')
        code, rep = run_cli_clean(capsys, "analyze", str(path))
        assert code == 2
        assert rep["error"]["type"] == "InputError"

    @pytest.mark.parametrize("argv", [["analyze"], ["synthesize"],
                                      ["stabilize", "--gamma", "1"]],
                             ids=lambda argv: argv[0])
    def test_name_not_a_string_exits_two(self, capsys, plant_path, tmp_path,
                                         argv):
        plant = json.loads(Path(plant_path).read_text())
        path = tmp_path / "named.json"
        path.write_text(json.dumps({**plant, "name": 5}))
        code, rep = run_cli_clean(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert rep["error"]["message"] == "name must be a string, got 5"

    def test_transforms_that_do_not_fit_exit_two(self, capsys, plant_path,
                                                 params_path, tmp_path):
        transforms = json.loads(Path(params_path).read_text())["transforms"]
        transforms["T_u"] = [[1, 0], [0, 1]]  # the demo's is diag(1, -1)
        path = tmp_path / "transforms.json"
        path.write_text(json.dumps(transforms))
        code, rep = run_cli_clean(capsys, "synthesize", plant_path,
                                  "--transforms", str(path))
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert rep["error"]["message"].startswith(
            "supplied T_u does not match")


class TestOneRead:
    """Each command opens the system file once and reports the SHA-256
    of the bytes it parsed."""

    @pytest.mark.parametrize("system, argv", [
        ("plant", ["analyze"]), ("plant", ["synthesize"]),
        ("plant", ["stabilize", "--gamma", "1"]),
        ("uncertainty", ["verify", "--class", "ni"]),
        ("plant", ["simulate", "--x0", "1,0,0,0", "--t-end", "1",
                   "--dt", "0.1"])],
        ids=lambda arg: arg[0] if isinstance(arg, list) else None)
    def test_system_file_opened_once(self, capsys, monkeypatch, sample_paths,
                                     system, argv):
        path = str(sample_paths[system])
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        code, rep = run_cli(capsys, argv[0], path, *argv[1:])
        monkeypatch.undo()
        assert code == 0
        assert opened.count(path) == 1
        assert rep["inputs"]["sha256"] == \
            hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestStabilize:
    def test_demo_law(self, capsys, plant_path, params_path):
        code, rep = run_cli(capsys, "stabilize", plant_path, "--gamma", "1",
                            "--params", params_path)
        assert code == 0
        assert rep["gains"]["K_w"] == [[0.0, 1.0], [0.0, -2.0]]
        assert abs(rep["dc"]["lam_max_R0"] - 0.6545) < 5e-4
        assert rep["verdicts"]["frequency_ni"]["holds"] is True
        assert_verdict_checks_certificate(rep)

    def test_dc_violation_exits_one(self, capsys, plant_path):
        code, rep = run_cli(capsys, "stabilize", plant_path, "--gamma", "1",
                            "--y2", "1.0", "--y3", "1.0")
        assert code == 1
        assert rep["error"]["type"] == "DcGainConditionError"


class TestFeedthrough:
    """A plant with ``D != 0`` is not strictly proper: every command that
    reads its relative degrees exits 2, naming the requirement."""

    @pytest.mark.parametrize("argv", [["analyze"],
                                      ["synthesize", "--target", "osni"],
                                      ["stabilize", "--gamma", "0.1"]],
                             ids=lambda argv: argv[0])
    def test_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "feedthrough.json"
        path.write_text(json.dumps(feedthrough_plant().to_dict()))
        code, rep = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert "strictly proper" in rep["error"]["message"]


class TestUncontrollablePlant:
    """A plant that is not minimal has no normal form to report on or to
    synthesize from: both commands exit 1 with the controllability
    verdict."""

    @pytest.mark.parametrize("argv", [["analyze"], ["synthesize"]],
                             ids=lambda argv: argv[0])
    def test_exits_one(self, capsys, tmp_path, argv):
        path = tmp_path / "uncontrollable.json"
        path.write_text(json.dumps(uncontrollable_plant().to_dict()))
        code, rep = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert rep["error"]["type"] == "NotControllableError"


class TestInternalDynamicsAtTheEdge:
    """analyze, synthesize and stabilize reach the one decision on where
    the internal dynamics' eigenvalues lie: a zero at the origin exits 1,
    one inside the tolerance band exits 3, never 2 or a LAPACK error."""

    @pytest.mark.parametrize("argv", [["analyze"], ["synthesize"],
                                      ["stabilize", "--gamma", "1"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", sorted(EDGE_ZERO_DYNAMICS))
    def test_exit_code_and_error(self, capsys, tmp_path, name, argv):
        A00, error = EDGE_ZERO_DYNAMICS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(edge_plant(A00).to_dict()))
        code, rep = run_cli(capsys, argv[0], str(path), *argv[1:])
        message = rep["error"]["message"]
        if error is VerdictError:
            assert code == 1 and rep["error"]["type"] == "VerdictError"
            assert "zero at the origin" in message
        else:
            assert code == 3 and rep["error"]["type"] == "NumericalError"
            assert message.startswith("internal dynamics:"), message


class TestVerify:
    def test_open_loop_not_sni(self, capsys, plant_path):
        code, rep = run_cli(capsys, "verify", plant_path, "--class", "sni")
        assert code == 1
        assert rep["error"]["type"] == "PoleInForbiddenRegionError"

    def test_grid_points_flag(self, capsys, plant_path, params_path, tmp_path):
        # the decision points replace the grid: the report counts them,
        # and the old --grid-points option is a usage error
        code, rep = run_cli(capsys, "stabilize", plant_path, "--gamma", "1",
                            "--params", params_path)
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(rep["closed_loop"]))
        code2, rep2 = run_cli(capsys, "verify", str(closed), "--class", "ni")
        assert code2 == 0
        notes = rep2["verdicts"]["frequency"]["notes"]
        assert notes[0].startswith("candidates for -1e-08 of ")
        assert notes[1].startswith("decision points: ")
        code3 = main(["verify", str(closed), "--class", "ni",
                      "--grid-points", "50"])
        captured = capsys.readouterr()
        assert code3 == 2 and captured.out == ""
        assert "unrecognized arguments: --grid-points 50" in captured.err

    def test_huge_grid_exits_two(self, capsys, monkeypatch, plant_path):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(np, "logspace", no_grid)
        code = main(["verify", plant_path, "--class", "ni",
                     "--grid-points", str(10 ** 15)])
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_singular_level_set_weight_exits_three(self, capsys, tmp_path):
        # a degree-2 output and C B = diag(1e6, 0): the OSNI Hamiltonian's
        # W - level I spreads from 1e-8 to 2e6
        path = tmp_path / "tight.json"
        path.write_text(json.dumps({
            "A": [[-1.0, 0, 0], [0, -1, 1], [0, -1, -1]],
            "B": [[1.0, 0], [0, 0], [0, 1]], "C": [[1e6, 0, 0], [0, 1, 0]]}))
        code, rep = run_cli(capsys, "verify", str(path), "--class", "osni",
                            "--epsilon", "1e-7")
        assert code == 3
        assert rep["error"]["kind"] == "numerical-failure"
        assert rep["error"]["type"] == "NumericalError"

    def test_mismatched_certificate_class(self, capsys, plant_path, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"Y": [[1.0]], "class": "ssni"}))
        code, _ = run_cli(capsys, "verify", plant_path, "--class", "ni",
                          "--certificate", str(cert))
        assert code == 2


class TestEntryPoint:
    """``python -m nisynth`` in a fresh interpreter: the package's
    ``__main__``, its exit code and its JSON on stdout."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(nisynth.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "nisynth", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert "Traceback" not in done.stderr
        return done.returncode, json.loads(done.stdout)

    def test_stabilize_then_simulate_the_robust_loop(self, sample_paths,
                                                     tmp_path):
        code, rep = self.run_module(
            "stabilize", str(sample_paths["plant"]), "--gamma", "1",
            "--params", str(sample_paths["params"]))
        assert code == 0
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(rep["closed_loop"]))
        x0 = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
        code, rep = self.run_module(
            "simulate", str(closed), "--delta",
            str(sample_paths["uncertainty"]),
            "--x0=" + ",".join(map(repr, x0.tolist())), "--t-end", "20",
            "--dt", "0.01")
        assert code == 0
        loop = interconnect_positive_feedback(
            load_system(closed), load_system(sample_paths["uncertainty"]))
        lam, V = np.linalg.eig(loop.A)
        exact = np.real(V @ (np.exp(20.0 * lam) * np.linalg.solve(V, x0)))
        final = np.array(rep["simulation"]["final_state"])
        assert np.linalg.norm(final - exact) <= 1e-9 * np.linalg.norm(x0)

    def test_divergence_exits_three(self, tmp_path):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({"A": [[50.0]], "B": [[1.0]],
                                    "C": [[1.0]]}))
        code, rep = self.run_module("simulate", str(path), "--x0", "1",
                                    "--t-end", "1000", "--dt", "0.5")
        assert code == 3
        assert rep["error"]["type"] == "SimulationDivergedError"


class TestSimulate:
    def test_plain_decay(self, capsys, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]],
                                    "C": [[1.0]]}))
        code, rep = run_cli(capsys, "simulate", str(path), "--x0", "1.0",
                            "--t-end", "1.0", "--dt", "0.01")
        assert code == 0
        assert abs(rep["simulation"]["final_norm"] - np.exp(-1.0)) < 1e-6

    def test_interconnected_simulation(self, capsys, plant_path,
                                       params_path, sample_paths, tmp_path):
        code, rep = run_cli(capsys, "stabilize", plant_path, "--gamma", "1",
                            "--params", params_path)
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(rep["closed_loop"]))
        code2, rep2 = run_cli(
            capsys, "simulate", str(closed),
            "--delta", str(sample_paths["uncertainty"]),
            "--x0", "1,1,1,1,1,1", "--t-end", "20", "--dt", "0.01")
        assert code2 == 0
        assert rep2["simulation"]["n_states"] == 6
        assert rep2["simulation"]["ratio"] < 0.1

    def test_bad_x0_exits_two(self, capsys, plant_path):
        code, _ = run_cli(capsys, "simulate", plant_path, "--x0", "a,b")
        assert code == 2

    def test_wrong_x0_dimension_exits_two(self, capsys, plant_path):
        code, _ = run_cli(capsys, "simulate", plant_path, "--x0", "1,2")
        assert code == 2

    def test_divergence_exits_three(self, capsys, tmp_path):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({"A": [[50.0]], "B": [[1.0]],
                                    "C": [[1.0]]}))
        code = main(["simulate", str(path), "--x0", "1", "--t-end", "1000",
                     "--dt", "0.5"])
        out, err = capsys.readouterr()
        assert code == 3
        assert err == "" and "Traceback" not in out
        rep = json.loads(out)
        assert rep["error"] == {"kind": "numerical-failure",
                                "type": "SimulationDivergedError",
                                "message": "state became non-finite at "
                                           "t=14.5"}

    @pytest.mark.parametrize("x0", ["1e200", "1e-300"])
    def test_norms_of_extreme_states(self, capsys, tmp_path, x0):
        # the norms scale x by a power of two first: squaring 1e200
        # overflows and squaring 1e-300 underflows, but neither norm does
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]],
                                    "C": [[1.0]]}))
        code, rep = run_cli(capsys, "simulate", str(path), "--x0", x0,
                            "--t-end", "1", "--dt", "0.1")
        assert code == 0
        sim = rep["simulation"]
        assert sim["initial_norm"] == float(x0)
        assert sim["final_norm"] == abs(sim["final_state"][0])
        assert sim["ratio"] == sim["final_norm"] / sim["initial_norm"]
        assert abs(sim["ratio"] - np.exp(-1.0)) < 1e-12

    def test_ratio_beyond_the_float_range(self, capsys, tmp_path):
        # 1e-300 grown by e^710: both norms are finite, their ratio is not
        path = tmp_path / "growth.json"
        path.write_text(json.dumps({"A": [[1.0]], "B": [[1.0]],
                                    "C": [[1.0]]}))
        code, rep = run_cli(capsys, "simulate", str(path), "--x0", "1e-300",
                            "--t-end", "710", "--dt", "1")
        assert code == 0
        sim = rep["simulation"]
        assert sim["initial_norm"] == 1e-300
        assert sim["final_norm"] == abs(sim["final_state"][0])
        assert sim["final_norm"] == pytest.approx(
            np.exp(710.0 + np.log(1e-300)), rel=1e-9)
        assert sim["ratio"] is None
        assert sim["notes"] == ["ratio exceeds the float range"]

    def test_no_notes_in_range(self, capsys, plant_path):
        code, rep = run_cli(capsys, "simulate", plant_path,
                            "--x0", "1,1,1,1", "--t-end", "1", "--dt", "0.1")
        assert code == 0
        assert "notes" not in rep["simulation"]

    FINITE = "t_end and dt must be finite and positive"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(("--t-end", "inf"), FINITE, id="--t-end-inf"),
        pytest.param(("--t-end", "nan"), FINITE, id="--t-end-nan"),
        pytest.param(("--dt", "inf"), FINITE, id="--dt-inf"),
        # t_end / dt overflows: no step count, nothing allocated
        pytest.param(("--t-end", "1e300", "--dt", "1e-300"),
                     "t_end / dt asks for inf samples of 7 entries; at "
                     "most 4194304 entries are stored",
                     id="--t-end-1e300---dt-1e-300")])
    def test_non_finite_horizon_exits_two(self, capsys, plant_path, argv,
                                          message):
        code, rep = run_cli(capsys, "simulate", plant_path,
                            "--x0", "1,1,1,1", *argv)
        assert code == 2
        assert rep["error"]["kind"] == "input-error"
        assert rep["error"]["message"] == message


class TestNonFiniteScalars:
    @pytest.mark.parametrize("argv, name", [
        pytest.param(("synthesize", "{plant}", "--target", "osni",
                      "--epsilon", "inf"), "epsilon", id="synthesize-eps-inf"),
        pytest.param(("synthesize", "{plant}", "--y2", "nan"), "Y2",
                     id="synthesize-y2-nan"),
        pytest.param(("synthesize", "{plant}", "--y2", "inf"), "Y2",
                     id="synthesize-y2-inf"),
        pytest.param(("verify", "{stable}", "--class", "osni",
                      "--epsilon", "inf"), "eps", id="verify-eps-inf"),
        pytest.param(("verify", "{stable}", "--class", "osni",
                      "--epsilon", "nan"), "eps", id="verify-eps-nan"),
        pytest.param(("stabilize", "{plant}", "--gamma", "inf"), "gamma",
                     id="stabilize-gamma-inf")])
    def test_exits_two_naming_the_parameter(self, capsys, tmp_path,
                                            plant_path, argv, name):
        stable = tmp_path / "stable.json"
        stable.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]],
                                      "C": [[1.0]]}))
        code = main([a.format(plant=plant_path, stable=stable)
                     for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ""
        rep = json.loads(out)
        assert rep["error"]["kind"] == "input-error"
        assert rep["error"]["message"].startswith(f"{name} ")


class TestUsage:
    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_two(self, capsys, plant_path):
        assert main(["analyze", plant_path, "--bogus"]) == 2

    def test_parser_is_built_once_and_keeps_no_state(
            self, capsys, monkeypatch, plant_path, params_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        calls = [
            (0, ("analyze", plant_path)),
            (2, ("analyze", plant_path, "--bogus")),
            (0, ("stabilize", plant_path, "--gamma", "1",
                 "--params", params_path)),
            (0, ("--version",)),
            (0, ("synthesize", plant_path, "--seed", "3")),
            (0, ("--help",)),
            (0, ("simulate", plant_path, "--x0", "1,0,0,1", "--t-end", "1")),
        ]

        def run(argv):
            code = main(list(argv))
            out, err = capsys.readouterr()
            if out.startswith("{"):
                out = json.loads(out)
                del out["timings"]
            return code, out, err

        cli.build_parser.cache_clear()
        shared, counts = [], []
        for code, argv in calls:
            shared.append(run(argv))
            counts.append(len(built))
            assert shared[-1][0] == code
        # the first call builds the parser and its five subcommands
        assert counts == [6] * len(calls)
        for (_, argv), result in zip(calls, shared):
            cli.build_parser.cache_clear()
            assert run(argv) == result


class TestJsonTypes:
    """A JSON value of the wrong type is an input error (exit 2), not a
    traceback."""

    @pytest.mark.parametrize("where, data", [
        ("params", {"epsilon": "x"}),
        ("params", {"rng_seed": "abc"}),
        ("params", {"rng_seed": 1.5}),
        ("params", {"Y2": "abc"}),
        ("ni", [1]),
        ("ni", {"class": 5}),
        ("osni", {"class": "osni", "epsilon": "x"}),
        ("params", {"Y2": [[{}]]}),
        ("ni", {"Y": {"a": 1}}),
        ("transforms", {"T_y": {"a": 1}}),
    ], ids=["epsilon-str", "seed-str", "seed-float", "Y2-str",
            "certificate-list", "class-int", "certificate-epsilon-str",
            "Y2-object-entry", "certificate-Y-object", "T_y-object"])
    def test_wrong_type_exits_two(self, capsys, plant_path, tmp_path, where,
                                  data):
        path = tmp_path / "input.json"
        if where == "params":
            argv = ["synthesize", plant_path, "--target", "osni",
                    "--params", str(path)]
        elif where == "transforms":
            argv = ["analyze", plant_path, "--transforms", str(path)]
        else:
            _, rep = run_cli(capsys, "synthesize", plant_path,
                             "--target", "osni", "--seed", "5")
            closed = tmp_path / "closed.json"
            closed.write_text(json.dumps(rep["closed_loop"]))
            if isinstance(data, dict):
                data = {"Y": rep["certificate"]["Y"], **data}
            argv = ["verify", str(closed), "--class", where,
                    "--certificate", str(path)]
        path.write_text(json.dumps(data))
        code, rep = run_cli(capsys, *argv)
        assert code == 2
        assert rep["error"]["kind"] == "input-error"
        assert rep["error"]["type"] == "InputError"


class TestOsniRoundTrip:
    def test_certificate_round_trip(self, capsys, plant_path, tmp_path):
        code, rep = run_cli(capsys, "synthesize", plant_path,
                            "--target", "osni", "--seed", "5",
                            "--epsilon", "0.3")
        assert code == 0
        assert 0 < rep["certificate"]["epsilon"] < 0.3
        assert_verdict_checks_certificate(rep)
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(rep["closed_loop"]))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(rep["certificate"]))
        code2, rep2 = run_cli(capsys, "verify", str(closed),
                              "--class", "osni", "--certificate", str(cert))
        assert code2 == 0


class TestReportLayout:
    """A report is one line of JSON with sorted keys and the C encoder's
    separators, on stdout or in the ``--out`` file."""

    @staticmethod
    def assert_one_line(text):
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    @pytest.mark.parametrize("code, argv", [
        pytest.param(0, ("analyze", "{plant}"), id="analyze"),
        pytest.param(0, ("synthesize", "{plant}", "--seed", "3"),
                     id="synthesize"),
        pytest.param(0, ("synthesize", "{plant}", "--target", "osni",
                         "--seed", "5"), id="synthesize-osni"),
        pytest.param(0, ("stabilize", "{plant}", "--gamma", "1",
                         "--params", "{params}"), id="stabilize"),
        pytest.param(1, ("verify", "{plant}", "--class", "sni"),
                     id="verify"),
        pytest.param(0, ("simulate", "{plant}", "--x0", "1,0,0,1",
                         "--t-end", "1"), id="simulate"),
        # the ssni refusal: an error report
        pytest.param(1, ("synthesize", "{plant}", "--target", "ssni"),
                     id="error-report")])
    def test_stdout_and_out_file(self, capsys, tmp_path, plant_path,
                                 params_path, code, argv):
        argv = [a.format(plant=plant_path, params=params_path) for a in argv]
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert err == ""
        self.assert_one_line(out)
        report = tmp_path / "report.json"
        assert main(argv + ["--out", str(report)]) == code
        assert capsys.readouterr().out == ""
        text = report.read_text(encoding="utf-8")
        self.assert_one_line(text)
        assert json.loads(text).keys() == json.loads(out).keys()

    @pytest.mark.parametrize("own_code, argv", [
        pytest.param(0, ("analyze", "{plant}"), id="analyze"),
        pytest.param(1, ("synthesize", "{plant}", "--target", "ssni"),
                     id="error-report")])
    def test_unwritable_out_file_reported_on_stdout(
            self, capsys, tmp_path, plant_path, own_code, argv):
        # the report, of a success or of an error, cannot be delivered:
        # the run is an input error about the file, reported on stdout
        out = tmp_path / "missing" / "report.json"
        argv = [a.format(plant=plant_path) for a in argv]
        assert main(argv) == own_code
        capsys.readouterr()
        code, rep = run_cli_clean(capsys, *argv, "--out", str(out))
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert rep["error"]["message"].startswith(
            f"cannot write report file {out}")
        assert not out.parent.exists()

    def test_non_finite_float_refused(self, capsys, tmp_path):
        args = argparse.Namespace(_t0=0.0, out=None)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit({"value": float("inf")}, args)
        assert capsys.readouterr().out == ""
        # a norm above the float range is reported as null with a note;
        # the ratio of the scaled norms stays finite
        path = tmp_path / "decay.json"
        path.write_text(json.dumps({"A": [[-1.0, 0.0], [0.0, -1.0]],
                                    "B": [[1.0], [0.0]],
                                    "C": [[1.0, 0.0]]}))
        code, rep = run_cli(capsys, "simulate", str(path),
                            "--x0", "1.7e308,1.7e308", "--t-end", "1",
                            "--dt", "0.1")
        assert code == 0
        sim = rep["simulation"]
        assert sim["initial_norm"] is None
        assert sim["notes"] == ["initial_norm exceeds the float range"]
        assert sim["final_norm"] == pytest.approx(
            1.7e308 * (np.sqrt(2.0) * np.exp(-1.0)), rel=1e-12)
        assert abs(sim["ratio"] - np.exp(-1.0)) < 1e-12
