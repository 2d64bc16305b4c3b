import json
import re

import numpy as np
import pytest

from uwitness.states import (
    StateSampler,
    haar_unitary,
    load_state,
    named_state,
    phi_plus,
    product_state,
    pure_schmidt,
    random_mixed_state,
    random_pure_state,
    save_state,
    singlet,
    state_from_dict,
    state_to_dict,
    validate,
    werner,
)


class TestValidate:
    def test_accepts_maximally_mixed(self):
        rho = validate(np.eye(4) / 4)
        assert rho.dtype == complex

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            validate(np.eye(3) / 3)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.0, 1.0, -1.0, 0.0])
        with pytest.raises(ValueError, match="positive semidefinite"):
            validate(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate(0.9 * np.eye(4) / 4)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4) / 4 + 0.01j * np.eye(4)
        with pytest.raises(ValueError, match="Hermitian"):
            validate(bad)

    def test_names_every_violation(self):
        bad = np.diag([1.0, 1.0, -1.0, 1.0])  # trace 2 and a negative eigenvalue
        with pytest.raises(ValueError) as err:
            validate(bad)
        msg = str(err.value)
        assert "trace" in msg and "positive semidefinite" in msg
        # magnitudes are part of the message
        assert "1.000e+00" in msg

    def test_tolerates_tiny_numerical_noise(self):
        rho = np.eye(4) / 4 + 1e-12 * np.diag([1, -1, 1, -1])
        validate(rho)


class TestNamedStates:
    def test_singlet_is_pure_and_traceless_locally(self):
        rho = singlet()
        assert abs(np.trace(rho) - 1) < 1e-14
        assert abs(np.trace(rho @ rho) - 1) < 1e-14
        assert abs(rho[1, 1] - 0.5) < 1e-14 and abs(rho[1, 2] + 0.5) < 1e-14

    def test_phi_plus_matrix(self):
        rho = phi_plus()
        expected = np.zeros((4, 4))
        expected[np.ix_((0, 3), (0, 3))] = 0.5
        assert np.allclose(rho, expected, atol=1e-14)

    def test_werner_limits(self):
        assert np.allclose(werner(0.0), np.eye(4) / 4, atol=1e-14)
        assert np.allclose(werner(1.0), singlet(), atol=1e-14)

    @pytest.mark.parametrize("ctor", [singlet, phi_plus, lambda: werner(1.0)],
                             ids=["singlet", "phi_plus", "werner-1"])
    def test_maximally_entangled_states_are_exact(self, ctor):
        # g g^dag / tr(g g^dag) of an exact vector: no rounded 1/sqrt(2)
        rho = ctor()
        assert set(rho.real.ravel().tolist()) <= {0.0, 0.5, -0.5}
        assert not rho.imag.any()

    def test_werner_one_is_the_singlet(self):
        assert np.array_equal(werner(1.0), singlet())

    def test_werner_parameter_range(self):
        with pytest.raises(ValueError):
            werner(1.2)
        with pytest.raises(ValueError):
            werner(-0.1)

    def test_product_state_is_valid_pure(self):
        rho = validate(product_state(0.7))
        assert abs(np.trace(rho @ rho) - 1) < 1e-12

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_product_state_rejects_non_finite_angle(self, theta):
        with pytest.raises(ValueError, match="angle must be finite"):
            product_state(theta)

    def test_pure_schmidt_endpoints(self):
        rho0 = pure_schmidt(0.0)
        assert abs(rho0[3, 3] - 1.0) < 1e-14  # |11>
        rho1 = pure_schmidt(1.0)
        assert abs(rho1[0, 0] - 1.0) < 1e-14  # |00>

    @pytest.mark.parametrize("lam1", [-0.1, 1.5])
    def test_pure_schmidt_parameter_range(self, lam1):
        with pytest.raises(ValueError, match=re.escape(f"Schmidt coefficient must be in [0, 1], got {lam1}")):
            pure_schmidt(lam1)

    def test_named_pure_schmidt_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("Schmidt coefficient must be in [0, 1], got 2.0")):
            named_state("pure_schmidt:2")

    def test_named_state_grammar(self):
        assert np.allclose(named_state("singlet"), singlet())
        assert np.allclose(named_state("werner:0.5"), werner(0.5))
        assert np.allclose(named_state("pure_schmidt:0.8"), pure_schmidt(0.8))
        with pytest.raises(ValueError, match="unknown state name"):
            named_state("bogus")
        with pytest.raises(ValueError, match="needs a parameter"):
            named_state("werner")
        with pytest.raises(ValueError, match="takes no parameter"):
            named_state("singlet:0.5")
        with pytest.raises(ValueError, match="could not parse"):
            named_state("werner:x")


class TestSamplers:
    def test_mixed_samples_are_valid(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            validate(random_mixed_state(rng))

    def test_pure_samples_have_unit_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = validate(random_pure_state(rng))
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_equal_seeds_reproduce_bit_for_bit(self):
        a = StateSampler("hs", seed=123).sample()
        b = StateSampler("hs", seed=123).sample()
        assert np.array_equal(a, b)
        c = StateSampler("pure", seed=9).sample(5)
        d = StateSampler("pure", seed=9).sample(5)
        assert np.array_equal(c, d)

    def test_kind_aliases_and_errors(self):
        assert StateSampler("hs", 0).kind == "hs"
        assert StateSampler("pure", 0).kind == "pure"
        for kind in ("haar-pure", "thermal"):
            with pytest.raises(ValueError):
                StateSampler(kind, 0)

    def test_mean_purity_matches_hilbert_schmidt_value(self):
        # E[tr rho^2] = 2d/(d^2 + 1) = 8/17 for d = 4
        rng = np.random.default_rng(12)
        purities = [
            np.trace((r := random_mixed_state(rng)) @ r).real for _ in range(4000)
        ]
        mean = np.mean(purities)
        stderr = np.std(purities) / np.sqrt(len(purities))
        assert abs(mean - 8.0 / 17.0) < 5 * stderr

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = haar_unitary(rng)
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        rho = random_mixed_state(rng)
        path = tmp_path / "state.json"
        save_state(path, rho)
        assert np.allclose(load_state(path), rho, atol=0)

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (16,), (2, 4, 4), (1, 4, 4)],
                             ids=["3x3", "vector", "16-vector", "stack", "stack-of-one"])
    def test_only_one_4x4_matrix_is_saved(self, tmp_path, shape):
        # np.eye(3) was written as 9 entries and a (2, 4, 4) stack as 32, files
        # that load_state then refused; now nothing is written
        path = tmp_path / "bad.json"
        message = (f"state_to_dict takes one (4, 4) matrix, got shape {shape}" if shape[-2:] == (4, 4)
                   else f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {shape}")
        bad = np.zeros(shape)
        with pytest.raises(ValueError, match=re.escape(message)):
            state_to_dict(bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            save_state(path, bad)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf-imag"])
    def test_non_finite_matrix_is_refused_before_the_file_opens(self, tmp_path, value):
        # json.dump would write NaN/Infinity tokens, which are not JSON; with
        # allow_nan=False it would raise only after open() had truncated the file
        path = tmp_path / "kept.json"
        save_state(path, werner(0.5))
        before = path.read_bytes()
        bad = werner(0.5).astype(complex)
        bad[1, 2] += value
        with pytest.raises(ValueError, match="non-finite entry in the matrix"):
            state_to_dict(bad)
        with pytest.raises(ValueError, match="non-finite entry in the matrix"):
            save_state(path, bad)
        assert path.read_bytes() == before
        with pytest.raises(ValueError, match="non-finite entry in the matrix"):
            save_state(tmp_path / "new.json", bad)
        assert not (tmp_path / "new.json").exists()

    def test_dict_shape(self):
        d = state_to_dict(singlet())
        assert d["dim"] == 4 and len(d["re"]) == 16 and len(d["im"]) == 16
        assert all(isinstance(x, float) for x in d["re"])

    def test_malformed_dicts_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            state_from_dict({"dim": 4, "re": [0.0] * 16})
        with pytest.raises(ValueError, match="dim"):
            state_from_dict({"dim": 2, "re": [0.0] * 4, "im": [0.0] * 4})
        with pytest.raises(ValueError, match="16 entries"):
            state_from_dict({"dim": 4, "re": [0.0] * 15, "im": [0.0] * 16})

    @pytest.mark.parametrize("field, value", [
        ("re", 5), ("im", 5.0), ("re", None), ("im", "0" * 16), ("re", {"0": 1.0}),
        ("re", [0.0] * 15 + [None]), ("im", [0.0] * 15 + [True]), ("re", [0.0] * 15 + ["0.25"]),
        ("im", [0.0] * 15 + [[0.0]]), ("re", tuple([0.25] * 16)), ("re", [0.0] * 15 + [10**400]),
        ("re", [0.0] * 15 + [float("nan")]), ("im", [0.0] * 15 + [float("-inf")]),
    ], ids=["int", "float", "null", "string", "object", "null-entry", "bool-entry", "string-entry",
            "list-entry", "tuple", "int-past-float-range", "nan-entry", "inf-entry"])
    def test_entries_must_be_lists_of_16_numbers(self, field, value):
        d = {"dim": 4, "re": [0.25] * 16, "im": [0] * 16}
        d[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a list of 16 entries, each a float or an int of at most 1e308"):
            state_from_dict(d)

    def test_int_entries_are_numbers(self):
        rho = state_from_dict({"dim": 4, "re": [1, 0, 0, 0, 0] * 3 + [1], "im": [0] * 15 + [-10**308]})
        expected = np.eye(4, dtype=complex)
        expected[3, 3] -= 1e308j
        assert rho.dtype == complex and np.array_equal(rho, expected)

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "s.json"
        save_state(path, werner(0.5))
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc) == {"dim", "re", "im"}
