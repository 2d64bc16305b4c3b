import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uwitness import checks, states, witness
from uwitness.cli import main
from uwitness.states import random_pure_state, save_state, werner
from uwitness.witness import (bounds, lower_bound, moments_direct, rescaled_witness, witness_report,
                              witness_value)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """Run `python -W error` with argv in a fresh interpreter that imports
    uwitness from this checkout: any warning fails the child."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", *argv], env=env, capture_output=True, text=True)


# unit trace, eigenvalues 1.2, 0, -0.1 and -0.1: off the state rule by positivity alone
NOT_PSD = np.diag([1.2, -0.1, -0.1, 0.0])


class TestReport:
    def test_singlet_json(self, capsys):
        code, out, _ = run(capsys, "--command", "report", "--state", "singlet")
        assert code == 0
        doc = json.loads(out)
        assert doc["state"] == "singlet"
        assert abs(doc["witness"] + 0.0625) < 1e-12
        assert doc["entangled"] is True
        assert set(doc["moments"]) == {"direct", "collective", "invariants"}
        assert doc["max_moment_deviation"] < checks.ROUNDING_MARK

    @pytest.mark.parametrize("state", ["singlet", "phi_plus"])
    def test_maximally_entangled_moments_are_exact(self, capsys, state):
        code, out, _ = run(capsys, "--command", "report", "--state", state)
        assert code == 0
        doc = json.loads(out)
        for route in ("direct", "collective", "invariants"):
            m = doc["moments"][route]
            assert (m["pi2"], m["pi3"], m["pi4"]) == (1.0, 0.25, 0.25), route
        assert doc["max_moment_deviation"] == 0.0

    @pytest.mark.parametrize("state, digest", [
        ("singlet", "617c702d846857fd5e89e915ac78a491539eae6ab264fcab9523b4123c878617"),
        ("phi_plus", "f9c01b74aac9c6b5af6d0d0140ba434116532bac2d82a3d26111e0f55e5312bf"),
        ("werner:0.5", "8d0367e00c318151e962b607b184b8b4dc73bc36fcba68eb6cfa3311ea738e74"),
        ("werner:0.3", "4ba873c84bbfc026a307d092eafd68bb6fb5c991a2a19d8c810a0aa9696a7a26"),
        ("werner:0.3333333333", "c5b28ccd98381f99e3c602a197eed923944a7ed08848f17b6796ba0aefe02341"),
        ("product:0.7", "fb14a4a07e2d094fc409fa716c2438826373726a26513db434ee0f9681e6296d"),
        ("pure_schmidt:0.8", "12a0e43153ef87c3911b068ce268effcb683e51f311789818397eff532cbb539"),
    ])
    def test_frozen_output(self, capsys, state, digest):
        # the whole JSON, byte for byte: every field of the report and the
        # three moment routes to the last bit
        code, out, _ = run(capsys, "--command", "report", "--state", state)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_werner_half_is_exact_on_every_route(self, capsys):
        # werner(0.5) is built exactly, and the product of the spectrum of
        # rho^PT gives its witness -27/4096 and w = 27/256 exactly; its three
        # moment routes, the collective one on this numpy's gathers and sums
        # included, read the exact moments to the bit
        code, out, _ = run(capsys, "--command", "report", "--state", "werner:0.5")
        assert code == 0
        doc = json.loads(out)
        assert (doc["witness"], doc["w"]) == (-0.006591796875, 0.10546875)
        for route in ("direct", "collective", "invariants"):
            m = doc["moments"][route]
            assert (m["pi2"], m["pi3"], m["pi4"]) == (0.4375, 0.15625, 0.0595703125), route

    def test_state_file_reports_as_the_named_state(self, capsys, tmp_path):
        # the same state from a file: validate, then witness_report on the
        # same bytes, which reads the state gate's record; each run starts
        # with an empty memo, as in its own process, and the report equals
        # the named one apart from its state label
        path = tmp_path / "werner.json"
        save_state(path, werner(0.5))
        docs = []
        for spec in ("werner:0.5", str(path)):
            states._memo.cache_clear()
            code, out, _ = run(capsys, "--command", "report", "--state", spec)
            assert code == 0
            doc = json.loads(out)
            assert doc.pop("state") == spec
            docs.append(doc)
        assert docs[0] == docs[1]

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
        # refused by the state rule before any work: exit 1 and validate's
        # message; NOT_PSD is judged by the same one pass of the gate as the
        # two traces, and named by its positivity
        path = tmp_path / "bad.json"
        for matrix, (command, *flags), message in [
            (0.9 * np.eye(4) / 4, ["report"], "trace"),
            (2 * werner(0.5), ["simulate", "--shots", "3000", "--seed", "1"], "invalid density matrix"),
            (NOT_PSD, ["report"], "not positive semidefinite"),
        ]:
            save_state(path, matrix)
            code, out, err = run(capsys, "--command", command, "--state", str(path), *flags)
            assert code == 1 and out == "", err
            assert message in err

    def test_module_entry_point_passes_exit_1_through(self, tmp_path):
        # python -m uwitness.cli runs the module's own sys.exit(main())
        path = tmp_path / "not-psd.json"
        save_state(path, NOT_PSD)
        proc = run_fresh("-m", "uwitness.cli", "--command", "report", "--state", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert "not positive semidefinite" in proc.stderr

    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "--command", "report", "--state", str(path))
        assert code == 2
        assert "could not read" in err

    def test_state_file_without_entry_lists_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "scalars.json"
        path.write_text('{"dim": 4, "re": 5, "im": 5}')
        code, _, err = run(capsys, "--command", "report", "--state", str(path))
        assert code == 2
        assert "could not read state file" in err and "re must be a list of 16 entries" in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
    def test_non_finite_state_file_is_a_usage_error(self, capsys, tmp_path, token):
        # json reads each token as a non-finite float; save_state never
        # writes one, so the file breaks the format rather than the state rule
        path = tmp_path / "nonfinite.json"
        zeros = ", 0" * 15
        path.write_text(f'{{"dim": 4, "re": [{token}{zeros}], "im": [0{zeros}]}}')
        code, _, err = run(capsys, "--command", "report", "--state", str(path))
        assert code == 2
        assert "could not read state file" in err and "all finite" in err

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


    def test_out_into_missing_directory_is_an_io_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "--command", "report", "--state", "singlet", "--out", str(path))
        assert code == 2 and out == ""
        assert "could not write" in err
        assert not path.exists()


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

    def test_violation_names_the_state_verify_names(self, capsys, monkeypatch):
        # one judge, checks.corridor: under the raised f(w) of
        # TestVerify.test_corridor_violation_fails, both commands name sample 1
        both = witness._bounds
        monkeypatch.setattr(witness, "_bounds", lambda w: (both(w)[0] + 1e-6, both(w)[1]))
        code, out, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        assert code == 1 and " at sample 1 of --seed 4 --ensemble hs\n" in out
        code, _, err = run(capsys, "--command", "scatter", "--samples", "10", "--seed", "4")
        assert code == 1
        assert "bound violation at sample 1 of --seed 4:" in err

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
            assert abs(c**4 - w) <= checks.ROUNDING_MARK * w + checks.W_SLACK
            assert abs(n - c) < checks.ROUNDING_MARK  # pure states: N = C

    def test_near_product_pure_state_inside_corridor(self):
        # a near-product pure state: the moment polynomial's w ~ 4e-10 carries
        # ~1e-15 absolute error, which w**0.25 magnifies past 1e-9
        # (the report's w, the product of the spectrum of rho^PT, sits within
        # 2e-15 of C there, so the premise is stated on the polynomial)
        rho = random_pure_state(np.random.default_rng(315500))
        rep = witness_report(rho)
        w = rescaled_witness(witness_value(moments_direct(rho)))
        lo, hi = bounds(w)
        assert rep.concurrence > hi + 1e-9
        assert checks.in_corridor(w, lo, rep.negativity, rep.concurrence)

    @pytest.mark.parametrize("ensemble", ["hs", "pure"])
    def test_reference_sweep_passes(self, capsys, ensemble):
        code, out, err = run(capsys, "--command", "scatter", "--ensemble", ensemble,
                             "--samples", "2000", "--seed", "3")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 2001

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

    @pytest.mark.parametrize("ensemble", ["hs", "pure"])
    def test_reference_run_passes_and_operator_claims_read_zero(self, capsys, ensemble):
        # every suite passes, and the two exact operator claims, projector
        # composition and nondemolition, read exactly 0; on Haar-pure states
        # the rank-deficient concurrence path and the upper edge C^4 = w
        code, out, _ = run(capsys, "--command", "verify", "--ensemble", ensemble,
                           "--samples", "200", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert "overall: PASS" in lines
        for claim in ("pairwise-composed projectors", "stage-1 parity is nondemolition"):
            line = next(x for x in lines if claim in x)
            assert line.endswith("max dev 0.00e+00"), line

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

    def test_fresh_process_leaves_numpy_ma_unimported(self):
        # np.unique's first call imports numpy.ma, some 14 ms of every fresh
        # verify process; the spectra are deduplicated without it
        script = ("import sys; from uwitness.cli import main; "
                  "code = main(['--command', 'verify', '--samples', '2', '--seed', '0']); "
                  "print('numpy.ma' in sys.modules, code)")
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert "overall: PASS" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False 0"

    def test_route_deviation_fails(self, capsys, monkeypatch):
        cycle = checks.moment_cycle
        monkeypatch.setattr(checks, "moment_cycle", lambda rho, n: cycle(rho, n) + 1e-8)
        code, out, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        assert code == 1
        assert "FAIL  moment routes agree" in out and out.count("FAIL") == 2
        assert out.endswith("overall: FAIL\n")

    def test_exact_claims_fail_off_zero(self, capsys, monkeypatch):
        # 1e-13 is far below any rounding mark; the operator claims are exact,
        # so any residual at all fails them
        composed = checks._composed_projectors
        monkeypatch.setattr(checks, "_composed_projectors",
                            lambda n, stage: tuple(p + 1e-13 for p in composed(n, stage)))
        code, out, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        assert code == 1
        assert "FAIL  pairwise-composed projectors" in out
        assert "FAIL  stage-1 parity is nondemolition" in out
        assert out.count("FAIL") == 3 and out.endswith("overall: FAIL\n")

    def test_fail_line_names_the_sample(self, capsys, monkeypatch):
        # the cycle route of sample 7 alone is off, by 16 x ROUNDING_MARK
        # (1.5e-11): the FAIL line names the sample, and rerunning verify
        # with that seed and ensemble reproduces it
        offset = 16 * checks.ROUNDING_MARK
        cycle = checks.moment_cycle
        monkeypatch.setattr(checks, "moment_cycle", lambda rho, n: cycle(rho, n) + offset * (np.arange(10) == 7))
        code, out, _ = run(capsys, "--command", "verify", "--ensemble", "pure", "--samples", "10", "--seed", "4")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and out.endswith("overall: FAIL\n")
        assert failed[0].startswith("FAIL  moment routes agree (direct/cycle/observable/sequential): max dev 1.4")
        assert failed[0].endswith(" at sample 7 of --seed 4 --ensemble pure")
        # a PASS line names no sample
        assert " at sample " not in out.replace(failed[0], "")

    def test_corridor_violation_fails(self, capsys, monkeypatch):
        # witness_report takes both edges from the unchecked form, its w being clamped already
        both = witness._bounds
        monkeypatch.setattr(witness, "_bounds", lambda w: (both(w)[0] + 1e-6, both(w)[1]))
        code, out, _ = run(capsys, "--command", "verify", "--samples", "10", "--seed", "4")
        assert code == 1
        assert "FAIL  bound corridor" in out and out.count("FAIL") == 2
        # sample 0 is entangled well inside; the raised f(w) = 1e-6 is above
        # N = 0 first on sample 1, a separable state
        assert " worst C^4 - w -1.87e-03 at sample 1 of --seed 4 --ensemble hs\n" in out
        assert out.endswith("overall: FAIL\n")


class TestSimulate:
    def test_reference_run(self, capsys):
        code, out, _ = run(
            capsys,
            "--command", "simulate",
            "--state", "werner:0.8",
            "--shots", "30000",
            "--seed", "11",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["shots"] == 30000
        assert doc["estimate"]["shots_per_moment"] == {"2": 10000, "3": 10000, "4": 10000}
        assert abs(doc["true_witness"] - (-0.03189375)) < 1e-12
        assert doc["ci_covers_truth"] is True
        assert doc["estimate"]["ci_low"] < doc["estimate"]["witness_hat"] < doc["estimate"]["ci_high"]

    def test_short_run_passes(self, capsys):
        code, out, err = run(capsys, "--command", "simulate", "--state", "werner:0.7",
                             "--shots", "3000", "--seed", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["shots"] == 3000

    def test_state_inside_validation_tolerance_is_sampled(self, capsys, tmp_path):
        # validate accepts an eigenvalue of -5e-10 (within POSITIVITY_ATOL), and
        # sample_shots' table bounds derive from the same margin
        path = tmp_path / "edge.json"
        save_state(path, np.diag([1 + 5e-10, 0, -5e-10, 0]))
        code, out, err = run(capsys, "--command", "simulate", "--state", str(path),
                             "--shots", "3000", "--seed", "1")
        assert code == 0 and err == ""
        counts = json.loads(out)["counts"]
        assert sum(sum(c) for c in counts.values()) == 3000

    def test_deterministic_under_seed(self, capsys):
        args = (
            "--command", "simulate", "--state", "werner:0.6",
            "--shots", "3000", "--seed", "8",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("shots, per_moment", [
        (30001, {"2": 10000, "3": 10000, "4": 10001}),
        (30002, {"2": 10000, "3": 10001, "4": 10001}),
    ])
    def test_remainder_goes_to_higher_moments(self, capsys, shots, per_moment):
        code, out, _ = run(capsys, "--command", "simulate", "--state", "werner:0.8",
                           "--shots", str(shots), "--seed", "3")
        assert code == 0
        assert json.loads(out)["estimate"]["shots_per_moment"] == per_moment

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

    @pytest.mark.parametrize("option", [("--split", "1,1,1"), ("--bootstrap", "400")])
    def test_split_and_bootstrap_not_supported(self, capsys, option):
        # a weighted split or another resample count is a library call
        with pytest.raises(SystemExit) as exc:
            main(["--command", "simulate", "--state", "singlet", "--shots", "3000", "--seed", "0", *option])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err

    @pytest.mark.parametrize("state, shots, seed, digest, interval", [
        ("werner:0.7", "30000", "7",
         "eb9bd073c59e37dbbafca5c8f958de14e25e6c1693f3c8d744d2495ce263ba3f",
         (-0.028860355000000004, -0.012440155000000008)),
        ("werner:0.35", "300000", "3",
         "0a0252390c59853665dfa313f980c2ceafac8d38cdfa6ddaec3f64f6c74b8124",
         (-0.001619182616666659, 0.004196600200000011)),
    ], ids=["werner-0.7", "werner-0.35"])
    def test_frozen_output(self, capsys, state, shots, seed, digest, interval):
        # the whole stdout, byte for byte: counts, moments, witness and interval
        code, out, _ = run(capsys, "--command", "simulate", "--state", state,
                           "--shots", shots, "--seed", seed)
        assert code == 0
        doc = json.loads(out)["estimate"]
        assert (doc["ci_low"], doc["ci_high"]) == interval
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_shot_share_past_2_to_53_is_a_usage_error(self, capsys):
        # a third of 3e19 shots is past the 2**53 counts float64 holds exactly
        code, out, err = run(capsys, "--command", "simulate", "--state", "werner:0.7",
                             "--shots", "30000000000000000000", "--seed", "1")
        assert code == 2 and out == ""
        assert err == "uwitness: error: shots must be <= 2**53, got 10000000000000000000\n"

    def test_shots_and_seed_required(self, capsys):
        code, _, err = run(
            capsys, "--command", "simulate", "--state", "singlet", "--seed", "1"
        )
        assert code == 2 and "--shots" in err
        code, _, err = run(
            capsys, "--command", "simulate", "--state", "singlet", "--shots", "100"
        )
        assert code == 2 and "--seed" in err


@pytest.mark.parametrize("command", ["scatter", "simulate", "verify"])
def test_negative_seed_is_a_usage_error(capsys, command):
    # numpy seeds only from nonnegative integers; the flag is judged before any command runs
    with pytest.raises(SystemExit) as exc:
        main(["--command", command, "--state", "singlet", "--samples", "5", "--shots", "3000", "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be >= 0" in err and "got -1" in err


@pytest.mark.parametrize("command", ["scatter", "verify"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_is_a_usage_error(capsys, command, samples):
    # judged once in main, before any state is drawn
    with pytest.raises(SystemExit) as exc:
        main(["--command", command, "--samples", samples, "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --samples: must be >= 1, got {samples}" in captured.err


def test_unknown_command_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--command", "transmogrify"])
    assert exc.value.code == 2
