import json

import numpy as np
import pytest

from uwitness import checks, witness
from uwitness.cli import main
from uwitness.states import random_pure_state, save_state, werner
from uwitness.witness import lower_bound, witness_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_singlet_json(self, capsys):
        code, out, _ = run(capsys, "--command", "report", "--state", "singlet")
        assert code == 0
        doc = json.loads(out)
        assert doc["state"] == "singlet"
        assert abs(doc["witness"] + 0.0625) < 1e-12
        assert doc["entangled"] is True
        assert set(doc["moments"]) == {"direct", "collective", "invariants"}
        assert doc["max_moment_deviation"] < 1e-10

    def test_separable_werner_not_entangled(self, capsys):
        code, out, _ = run(capsys, "--command", "report", "--state", "werner:0.3")
        assert code == 0
        doc = json.loads(out)
        assert doc["entangled"] is False
        assert doc["w"] == 0.0

    def test_state_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "w8.json"
        save_state(path, werner(0.8))
        code, out, _ = run(capsys, "--command", "report", "--state", str(path))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["witness"] - (-0.03189375)) < 1e-12

    def test_invalid_state_file_is_a_validation_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        save_state(path, 0.9 * np.eye(4) / 4)  # trace 0.9
        code, _, err = run(capsys, "--command", "report", "--state", str(path))
        assert code == 1
        assert "trace" in err

    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "--command", "report", "--state", str(path))
        assert code == 2
        assert "could not read" in err

    def test_unknown_name_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "--command", "report", "--state", "bogus")
        assert code == 2
        assert "neither a known name nor an existing file" in err

    @pytest.mark.parametrize("command", ["report", "simulate"])
    @pytest.mark.parametrize("spec", ["product:nan", "product:inf"])
    def test_non_finite_parameter_is_a_usage_error(self, capsys, command, spec):
        code, _, err = run(capsys, "--command", command, "--state", spec,
                           "--shots", "3000", "--seed", "0")
        assert code == 2
        assert "angle must be finite" in err

    def test_missing_state_flag(self, capsys):
        code, _, err = run(capsys, "--command", "report")
        assert code == 2
        assert "--state is required" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "--command", "report", "--state", "phi_plus", "--out", str(path)
        )
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert abs(doc["witness"] + 0.0625) < 1e-12


class TestScatter:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run(
            capsys, "--command", "scatter", "--samples", "20", "--seed", "5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "w,negativity,concurrence"
        assert len(lines) == 21

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "--command", "scatter", "--samples", "10", "--seed", "5")
        _, out2, _ = run(capsys, "--command", "scatter", "--samples", "10", "--seed", "5")
        assert out1 == out2

    def test_neighbouring_seeds_share_no_row(self, capsys):
        _, out7, _ = run(capsys, "--command", "scatter", "--samples", "20", "--seed", "7")
        _, out8, _ = run(capsys, "--command", "scatter", "--samples", "20", "--seed", "8")
        rows7, rows8 = out7.strip().split("\n")[1:], out8.strip().split("\n")[1:]
        assert len(rows7) == len(rows8) == 20
        # every separable state prints as 0.0,0.0,0.0; the entangled rows
        # identify their states
        entangled7 = {r for r in rows7 if r != "0.0,0.0,0.0"}
        entangled8 = {r for r in rows8 if r != "0.0,0.0,0.0"}
        assert entangled7 and entangled8 and not entangled7 & entangled8

    def test_violation_names_sample_and_seed(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "in_corridor", lambda w, lo, n, c: False)
        code, _, err = run(capsys, "--command", "scatter", "--samples", "3", "--seed", "5")
        assert code == 1
        assert "bound violation at sample 0 of --seed 5" in err

    def test_rows_satisfy_bound_chain(self, capsys):
        code, out, _ = run(
            capsys, "--command", "scatter", "--samples", "200", "--seed", "17"
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            w, n, c = map(float, line.split(","))
            assert checks.in_corridor(w, lower_bound(w), n, c)

    def test_pure_ensemble_saturates_upper_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "--command", "scatter",
            "--ensemble", "pure",
            "--samples", "100",
            "--seed", "23",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            w, n, c = map(float, line.split(","))
            assert abs(c**4 - w) <= 1e-9 * w + 1e-14
            assert abs(n - c) < 1e-9  # pure states: N = C

    def test_near_product_pure_state_inside_corridor(self):
        # a near-product pure state: w ~ 4e-10 carries ~1e-15 absolute error,
        # which w**0.25 magnifies beyond a 1e-9 slack
        rep = witness_report(random_pure_state(np.random.default_rng(315500)))
        assert rep.concurrence > rep.upper_bound + 1e-9
        assert checks.in_corridor(rep.w, rep.lower_bound, rep.negativity, rep.concurrence)

    def test_seed_is_required(self, capsys):
        code, _, err = run(capsys, "--command", "scatter", "--samples", "3")
        assert code == 2
        assert "--seed" in err

    def test_json_format_not_supported(self, capsys):
        # no command has a choice of format, so argparse knows no --format
        with pytest.raises(SystemExit) as exc:
            main(["--command", "scatter", "--samples", "2", "--seed", "1", "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "--command", "verify", "--samples", "25", "--seed", "2"
        )
        assert code == 0
        assert "overall: PASS" in out
        assert out.count("PASS") >= 8
        assert "FAIL" not in out
        assert "count 7" in out
        assert "[1.0, 4.0]" in out and "[0.0, 2.0, 4.0]" in out

    def test_corridor_detail_reads_the_entangled_states(self, capsys):
        # separable states sit on every edge; the detail must not read 0
        code, out, _ = run(capsys, "--command", "verify", "--samples", "200", "--seed", "5")
        assert code == 0
        line = next(x for x in out.split("\n") if "bound corridor" in x)
        slack, upper = (float(part.split()[-1]) for part in line.split(":")[1].split(","))
        assert slack < 0.0 and upper < 0.0

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        _, out2, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        assert out1 == out2

    def test_route_deviation_fails(self, capsys, monkeypatch):
        cycle = checks.moment_cycle
        monkeypatch.setattr(checks, "moment_cycle", lambda rho, n: cycle(rho, n) + 1e-8)
        code, out, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        assert code == 1
        assert "FAIL  moment routes agree" in out and out.count("FAIL") == 2
        assert out.endswith("overall: FAIL\n")

    def test_corridor_violation_fails(self, capsys, monkeypatch):
        # witness_report takes f(w) from the unchecked form, its w being clamped already
        lower = witness._lower_bound
        monkeypatch.setattr(witness, "_lower_bound", lambda w: lower(w) + 1e-6)
        code, out, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        assert code == 1
        assert "FAIL  bound corridor" in out and out.count("FAIL") == 2
        assert out.endswith("overall: FAIL\n")


class TestSimulate:
    def test_reference_run(self, capsys):
        code, out, _ = run(
            capsys,
            "--command", "simulate",
            "--state", "werner:0.8",
            "--shots", "30000",
            "--seed", "11",
            "--bootstrap", "400",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["shots"] == 30000
        assert doc["estimate"]["shots_per_moment"] == {"2": 10000, "3": 10000, "4": 10000}
        assert abs(doc["true_witness"] - (-0.03189375)) < 1e-12
        assert doc["ci_covers_truth"] is True
        assert doc["estimate"]["ci_low"] < doc["estimate"]["witness_hat"] < doc["estimate"]["ci_high"]

    def test_deterministic_under_seed(self, capsys):
        args = (
            "--command", "simulate", "--state", "werner:0.6",
            "--shots", "3000", "--seed", "8", "--bootstrap", "100",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_split_allocates_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "--command", "simulate",
            "--state", "werner:0.8",
            "--shots", "4000",
            "--split", "1,1,2",
            "--seed", "3",
            "--bootstrap", "50",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["shots_per_moment"] == {"2": 1000, "3": 1000, "4": 2000}

    def test_budget_must_cover_every_moment(self, capsys):
        code, _, err = run(
            capsys,
            "--command", "simulate",
            "--state", "singlet",
            "--shots", "2",
            "--seed", "0",
        )
        assert code == 2
        assert "starves" in err

    @pytest.mark.parametrize("split", ["nan,1,1", "inf,1,1"])
    def test_non_finite_split_rejected(self, capsys, split):
        code, _, err = run(capsys, "--command", "simulate", "--state", "singlet",
                           "--shots", "30000", "--seed", "0", "--split", split)
        assert code == 2 and "--split" in err and "starves" not in err

    def test_huge_split_weights_do_not_overflow(self, capsys):
        # the sum 1e308 + 1e308 overflows; scaled by the largest weight first,
        # the third moment's share is 5e-309 of the budget, so it starves
        code, _, err = run(capsys, "--command", "simulate", "--state", "singlet",
                           "--shots", "30000", "--seed", "0", "--split", "1e308,1e308,1")
        assert code == 2 and "starves" in err
        code, out, _ = run(capsys, "--command", "simulate", "--state", "singlet", "--shots", "30000",
                           "--seed", "0", "--bootstrap", "50", "--split", "1e308,1e308,1e308")
        assert code == 0
        assert json.loads(out)["estimate"]["shots_per_moment"] == {"2": 10000, "3": 10000, "4": 10000}

    def test_shots_and_seed_required(self, capsys):
        code, _, err = run(
            capsys, "--command", "simulate", "--state", "singlet", "--seed", "1"
        )
        assert code == 2 and "--shots" in err
        code, _, err = run(
            capsys, "--command", "simulate", "--state", "singlet", "--shots", "100"
        )
        assert code == 2 and "--seed" in err


def test_unknown_command_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--command", "transmogrify"])
    assert exc.value.code == 2
