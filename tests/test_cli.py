import json

import numpy as np
import pytest

from nisynth import structure
from nisynth.cli import main
from nisynth.statespace import load_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


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
        assert rep["zero_at_origin"] is False
        assert sorted(rep["transformed_relative_degree"]["r"]) == [1, 2]
        assert rep["phase"]["weakly_minimum_phase"] is True
        assert rep["inputs"]["sha256"]

    def test_original_degrees_computed_once(self, capsys, plant_path,
                                            monkeypatch):
        # the report takes the original outputs' degrees from the T_y
        # search of the normal form instead of computing them again
        original = structure.relative_degree_vector
        outputs = []

        def counting(sys):
            outputs.append(sys.C.copy())
            return original(sys)

        monkeypatch.setattr(structure, "relative_degree_vector", counting)
        code, rep = run_cli(capsys, "analyze", plant_path)
        assert code == 0
        C = load_system(plant_path).C
        assert sum(np.array_equal(c, C) for c in outputs) == 1
        info = original(load_system(plant_path))
        assert rep["relative_degree"] == {
            "r": list(info.r), "kind": info.kind.value,
            "notes": list(info.notes)}

    def test_pinned_transforms(self, capsys, plant_path, params_path,
                               tmp_path):
        transforms = json.load(open(params_path))["transforms"]
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
        code, _ = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2

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

    def test_unknown_param_rejected(self, capsys, plant_path, tmp_path):
        bad = tmp_path / "params.json"
        for name in ("Y9", "theta", "k13_policy", "y1a", "Qb",
                     "max_retries"):
            bad.write_text(json.dumps({name: 1.0}))
            code, rep = run_cli(capsys, "synthesize", plant_path,
                                "--params", str(bad))
            assert code == 2, name
            assert name in rep["error"]["message"]


class TestStabilize:
    def test_demo_law(self, capsys, plant_path, params_path):
        code, rep = run_cli(capsys, "stabilize", plant_path, "--gamma", "1",
                            "--params", params_path)
        assert code == 0
        assert rep["gains"]["K_w"] == [[0.0, 1.0], [0.0, -2.0]]
        assert abs(rep["dc"]["lam_max_R0"] - 0.6545) < 5e-4
        assert rep["verdicts"]["frequency_ni"]["holds"] is True

    def test_dc_violation_exits_one(self, capsys, plant_path):
        code, rep = run_cli(capsys, "stabilize", plant_path, "--gamma", "1",
                            "--y2", "1.0", "--y3", "1.0")
        assert code == 1
        assert rep["error"]["type"] == "DcGainConditionError"


class TestVerify:
    def test_open_loop_not_sni(self, capsys, plant_path):
        code, rep = run_cli(capsys, "verify", plant_path, "--class", "sni")
        assert code == 1
        assert rep["error"]["type"] == "PoleInForbiddenRegionError"

    def test_grid_points_flag(self, capsys, plant_path, params_path, tmp_path):
        code, rep = run_cli(capsys, "stabilize", plant_path, "--gamma", "1",
                            "--params", params_path)
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(rep["closed_loop"]))
        code2, rep2 = run_cli(capsys, "verify", str(closed), "--class", "ni",
                              "--grid-points", "50")
        assert code2 == 0
        assert "50 points" in " ".join(rep2["verdicts"]["frequency"]["notes"])

    def test_mismatched_certificate_class(self, capsys, plant_path, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"Y": [[1.0]], "class": "ssni"}))
        code, _ = run_cli(capsys, "verify", plant_path, "--class", "ni",
                          "--certificate", str(cert))
        assert code == 2


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


class TestUsage:
    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_two(self, capsys, plant_path):
        assert main(["analyze", plant_path, "--bogus"]) == 2


class TestOsniRoundTrip:
    def test_certificate_round_trip(self, capsys, plant_path, tmp_path):
        code, rep = run_cli(capsys, "synthesize", plant_path,
                            "--target", "osni", "--seed", "5",
                            "--epsilon", "0.3")
        assert code == 0
        assert 0 < rep["certificate"]["epsilon"] < 0.3
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(rep["closed_loop"]))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(rep["certificate"]))
        code2, rep2 = run_cli(capsys, "verify", str(closed),
                              "--class", "osni", "--certificate", str(cert))
        assert code2 == 0
