"""Instance decoding, execution, CLI exit codes, report determinism."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from setcover_kit.cli import main
from setcover_kit.instances import (
    EXIT_FALSIFIED,
    EXIT_INPUT,
    EXIT_OK,
    InstanceError,
    builtin_instances,
    decode_instance,
    jsonify,
    render_text,
    run_instance,
)
from setcover_kit.mappings import SIGN_CORNER_CAP
from setcover_kit.penalty import PENALTY_SEARCH_CAP


class TestDecode:
    def test_builtins_decode(self):
        for name, data in builtin_instances().items():
            decoded = decode_instance(data)
            assert decoded["kind"] == data["kind"], name

    def test_unknown_field_reports_path(self):
        data = copy.deepcopy(builtin_instances()["t1"])
        data["maps"]["psi"]["bogus"] = 1
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert "$.maps.psi.bogus" in str(err.value)

    def test_wrong_version(self):
        data = copy.deepcopy(builtin_instances()["t1"])
        data["version"] = "setcover-kit/2"
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert "$.version" in str(err.value)

    def test_missing_block(self):
        data = copy.deepcopy(builtin_instances()["t1"])
        del data["solve"]
        with pytest.raises(InstanceError):
            decode_instance(data)

    def test_bad_number_reports_path(self):
        data = copy.deepcopy(builtin_instances()["t1"])
        data["maps"]["psi"]["a"] = "fast"
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert "$.maps.psi.a" in str(err.value)

    def test_nested_matrix_path(self):
        data = copy.deepcopy(builtin_instances()["sublinear"])
        data["maps"]["psi"]["groups"][0][1] = ["oops", 0.0]
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert "groups[0][1][0]" in str(err.value)

    def test_family_dim_y_is_an_unknown_field(self):
        data = copy.deepcopy(builtin_instances()["family"])
        data["family"]["dim_y"] = 1
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert err.value.path == "$.family.dim_y"
        assert err.value.reason == "unknown field"

    def test_family_p_bar_must_be_one_dimensional(self):
        # the ball-radius family reads only p[0]; its parameter grid is 1-d
        data = copy.deepcopy(builtin_instances()["family"])
        data["family"]["p_bar"] = [1.0, 0.0]
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert err.value.path == "$.family.p_bar"
        assert "reads only p[0]" in err.value.reason and "1-d" in err.value.reason

    def test_family_x_bar_must_lie_in_the_domain(self):
        data = copy.deepcopy(builtin_instances()["family"])
        data["family"]["x_bar"] = [2.0, 0.0]  # psi maps from R^1
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert err.value.path == "$.family.x_bar"
        assert "psi's domain" in err.value.reason and "dimension 1" in err.value.reason

    def test_penalty_l_exclusivity(self):
        data = copy.deepcopy(builtin_instances()["t1_penalty"])
        data["penalty"]["l"] = 2.0  # together with threshold_factor
        with pytest.raises(InstanceError):
            decode_instance(data)


class TestRun:
    def test_t1_solve(self):
        decoded = decode_instance(builtin_instances()["t1"])
        code, result = run_instance(decoded)
        assert code == EXIT_OK
        assert result["trace"]["status"] == "converged"
        assert result["trace"]["iterates"][-1]["residual"] <= 1e-6

    def test_certify_expectations(self):
        data = builtin_instances()["sphere_scale_set_covering"]
        code, result = run_instance(decode_instance(data))
        assert code == EXIT_OK  # falsified, but the instance expected that
        assert result["certificate"]["verdict"] == "falsified"
        unexpected = copy.deepcopy(data)
        unexpected["certify"]["expect"] = None
        del unexpected["certify"]["expect"]
        code2, _ = run_instance(decode_instance(unexpected))
        assert code2 == EXIT_FALSIFIED

    def test_penalty_instance(self):
        decoded = decode_instance(builtin_instances()["t1_penalty"])
        code, result = run_instance(decoded)
        assert code == EXIT_OK
        assert result["threshold"] == pytest.approx(1.0 / 0.49)
        assert abs(abs(result["minimizer"]["x"][0]) - 2.0) <= 1e-4
        assert result["exactness"]["verdict"] == "no-counterexample-found"

    def test_family_instance(self):
        decoded = decode_instance(builtin_instances()["family"])
        code, result = run_instance(decoded)
        assert code == EXIT_OK
        assert result["calmness"]["slope"] == pytest.approx(2.0, abs=0.05)
        assert result["semiregularity"]["theta"] == pytest.approx(2.0, abs=0.05)

    def test_deterministic_results(self):
        for name in ("t1", "sphere_scale_set_covering", "sublinear", "sfix"):
            decoded = decode_instance(builtin_instances()[name])
            _, a = run_instance(decoded, seed=0)
            _, b = run_instance(decoded, seed=0)
            assert json.dumps(jsonify(a), sort_keys=True) == \
                json.dumps(jsonify(b), sort_keys=True), name


_PHI = builtin_instances()["t1"]["maps"]["phi"]
# each input used to end in a traceback or run as if it were valid; the kit now
# refuses it at its JSON path: (built-in instance, keys of the field, value, path).
# The decoder refuses a malformed field; a value that a kit constructor refuses
# (alpha, beta and the penalty weight are checked against each other) is
# refused at its block.
MALFORMED = {
    "polish-not-a-bool": ("t1", ("solve", "polish"), "no", "$.solve.polish"),
    "solve-x0-length": ("t1", ("solve", "x0"), [0.0, 0.0], "$.solve.x0"),
    "penalty-x0-length": ("t1_penalty", ("penalty", "x0"), [0.0, 1.0], "$.penalty.x0"),
    "verify-x_bar-length": ("t1_penalty", ("penalty", "verify", "x_bar"), [2.0, 0.0],
                            "$.penalty.verify.x_bar"),
    "sfix-x0-length": ("sfix", ("sfix", "x0"), [4.0, 0.0], "$.sfix.x0"),
    "r_grid-not-a-list": ("sfix", ("sfix", "r_grid"), 1.0, "$.sfix.r_grid"),
    "r_grid-negative": ("sfix", ("sfix", "r_grid"), [-1], "$.sfix.r_grid[0]"),
    "radii-empty": ("family", ("family", "radii"), [], "$.family.radii"),
    "grid_n-negative": ("t1_penalty", ("penalty", "verify", "grid_n"), -1,
                        "$.penalty.verify.grid_n"),
    "trials-negative": ("sphere_scale_covering", ("certify", "trials"), -3, "$.certify.trials"),
    "safety-negative": ("sphere_scale_covering", ("certify", "safety"), -1.0, "$.certify.safety"),
    "x_box_halfwidth-negative": ("sphere_scale_covering", ("certify", "x_box_halfwidth"), -5.0,
                                 "$.certify.x_box_halfwidth"),
    "verify-radius-negative": ("t1_penalty", ("penalty", "verify", "radius"), -1.0,
                               "$.penalty.verify.radius"),
    "kind-a-list": ("t1", ("kind",), ["x"], "$.kind"),
    "expect-a-number": ("sphere_scale_covering", ("certify", "expect"), 5, "$.certify.expect"),
    "expect-misspelt": ("sphere_scale_covering", ("certify", "expect"), "falsifed",
                        "$.certify.expect"),
    "expect-not-a-process-verdict": ("process", ("certify", "expect"), "falsified", "$.certify"),
    "expect-a-process-verdict": ("sphere_scale_covering", ("certify", "expect"), "set-covering",
                                 "$.certify"),
    "unread-block": ("t1", ("sfix",), builtin_instances()["sfix"]["sfix"], "$.sfix"),
    "unread-map": ("sfix", ("maps", "phi"), _PHI, "$.maps.phi"),
    "family-with-maps": ("family", ("maps",), {"psi": _PHI}, "$.maps"),
    "seed-negative": ("t1", ("parameters", "seed"), -1, "$.parameters.seed"),
    "tol-negative": ("t1", ("parameters", "tol"), -1, "$.parameters.tol"),
    "tol-zero": ("t1", ("parameters", "tol"), 0, "$.parameters.tol"),
    "solve-alpha-negative": ("t1", ("solve", "alpha"), -1, "$.solve"),
    "sfix-alpha-zero": ("sfix", ("sfix", "alpha"), 0, "$.sfix"),
    "threshold_factor-negative": ("t1_penalty", ("penalty", "threshold_factor"), -2, "$.penalty"),
}
_COMMAND = {"t1": "solve", "t1_penalty": "penalize", "sfix": "sfix", "family": "family",
            "sphere_scale_covering": "certify", "process": "certify"}


class TestCli:
    def write(self, tmp_path, data, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_solve_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, builtin_instances()["t1"])
        assert main(["solve", "--instance", path, "--seed", "0"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["trace"]["status"] == "converged"
        assert report["result"]["trace"]["iterates"][-1]["residual"] <= 1e-6

    def test_certify_falsified_exit_two(self, tmp_path):
        data = copy.deepcopy(builtin_instances()["sphere_scale_set_covering"])
        del data["certify"]["expect"]
        path = self.write(tmp_path, data)
        assert main(["certify", "--instance", path]) == EXIT_FALSIFIED

    def test_unknown_subcommand_exit_three(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_no_subcommand_exit_three(self):
        assert main([]) == EXIT_INPUT

    def test_malformed_json_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["certify", "--instance", str(path)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_schema_error_exit_three_with_path(self, tmp_path, capsys):
        data = copy.deepcopy(builtin_instances()["t1"])
        data["parameters"]["sneed"] = 1
        path = self.write(tmp_path, data)
        assert main(["solve", "--instance", str(path)]) == EXIT_INPUT
        assert "$.parameters.sneed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "solve"])
    def test_map_above_the_sign_corner_cap_is_an_input_error(self, tmp_path, capsys, command):
        wide = {"dim": SIGN_CORNER_CAP + 1, "norm": "max"}
        if command == "certify":  # the epigraphical rate enumerates the rows' sign corners
            data = {"version": "setcover-kit/1", "kind": "certify",
                    "maps": {"psi": {"kind": "epigraphical",
                                     "matrix": np.eye(wide["dim"]).tolist()}},
                    "certify": {"property": "set-covering", "alpha": "auto", "trials": 2},
                    "parameters": {"seed": 0, "tol": 1e-6}}
        else:  # beta of phi: the max -> euclidean norm of its 17-column affine centre
            data = copy.deepcopy(builtin_instances()["t1"])
            maps = data["maps"]
            maps["psi"].update(anchor=[0.0] * wide["dim"], space_x=wide)
            maps["phi"].update(space_x=wide)
            maps["phi"]["center"]["matrix"] = np.zeros((2, wide["dim"])).tolist()
            data["solve"]["x0"] = [0.0] * wide["dim"]
        assert main([command, "--instance", self.write(tmp_path, data)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert f"capped at dimension {SIGN_CORNER_CAP}; this needs dimension 17" in err

    def test_penalty_above_the_search_cap_is_an_input_error(self, tmp_path, capsys):
        dim = PENALTY_SEARCH_CAP + 1
        data = copy.deepcopy(builtin_instances()["t1_penalty"])
        maps = data["maps"]
        maps["psi"].update(anchor=[0.0] * dim, space_x={"dim": dim})
        maps["phi"].update(space_x={"dim": dim})
        maps["phi"]["center"]["matrix"] = np.zeros((2, dim)).tolist()
        data["penalty"]["x0"] = [0.0] * dim
        del data["penalty"]["verify"]
        assert main(["penalize", "--instance", self.write(tmp_path, data)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert f"capped at dimension {PENALTY_SEARCH_CAP}; this needs dimension {dim}" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_block_exits_three_at_its_path(self, tmp_path, capsys, case):
        name, keys, value, path = MALFORMED[case]
        data = copy.deepcopy(builtin_instances()[name])
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        assert main([_COMMAND[name], "--instance", self.write(tmp_path, data)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {path}: ")

    def test_kind_mismatch(self, tmp_path, capsys):
        path = self.write(tmp_path, builtin_instances()["t1"])
        assert main(["certify", "--instance", path]) == EXIT_INPUT

    def test_report_file_and_byte_identical_results(self, tmp_path, capsys):
        path = self.write(tmp_path, builtin_instances()["t1"])
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["solve", "--instance", path, "--seed", "0", "--out", str(out1)]) == 0
        assert main(["solve", "--instance", path, "--seed", "0", "--out", str(out2)]) == 0
        capsys.readouterr()
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        # timestamps are isolated in meta; the result section compares byte-identically
        assert json.dumps(r1["result"], sort_keys=True) == \
            json.dumps(r2["result"], sort_keys=True)
        assert "timestamp" in r1["meta"]

    def test_text_format(self, tmp_path, capsys):
        path = self.write(tmp_path, builtin_instances()["t1"])
        assert main(["solve", "--instance", path, "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: converged" in out

    def test_family_subcommand_gives_the_demo_result(self, tmp_path, capsys):
        path = self.write(tmp_path, builtin_instances()["family"])
        assert main(["family", "--instance", path]) == EXIT_OK
        family = json.loads(capsys.readouterr().out)["result"]
        demo_out = tmp_path / "demo.json"
        assert main(["demo", "--out", str(demo_out)]) == EXIT_OK
        assert family == json.loads(demo_out.read_text())["result"]["runs"]["family"]["result"]
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "setcover-kit family" in readme

    def test_demo_runs_clean(self, capsys):
        assert main(["demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[ok]") == 8

    def test_jsonify_sentinels(self):
        blob = jsonify({"a": float("inf"), "b": float("-inf"), "c": float("nan"),
                        "d": np.float64(1.5), "e": np.array([1.0, 2.0])})
        assert blob == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.5, "e": [1.0, 2.0]}

    def test_render_text_stable(self):
        text = render_text({"x": 1, "nested": {"y": [1, 2]}})
        assert text.splitlines()[0] == "x: 1"
