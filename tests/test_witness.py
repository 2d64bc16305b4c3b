from fractions import Fraction

import numpy as np
import pytest

from uwitness.linalg import hermitian_eig, partial_transpose
from uwitness.states import (
    pure_schmidt,
    random_mixed_state,
    random_pure_state,
    singlet,
    werner,
)
from uwitness.witness import (
    MomentSet,
    bounds,
    concurrence,
    concurrence_spinflip_eigs,
    lower_bound,
    moments_direct,
    negativity,
    rescaled_witness,
    upper_bound,
    witness_polynomial,
    witness_report,
    witness_value,
)

MAX_MIXED = np.eye(4) / 4


def werner_moments(p):
    """Closed forms from the partial-transpose spectrum {(1+p)/4 x3, (1-3p)/4}."""
    pi2 = (1 + 3 * p**2) / 4
    pi3 = (1 + 9 * p**2 - 6 * p**3) / 16
    pi4 = (3 * (1 + p) ** 4 + (1 - 3 * p) ** 4) / 256
    return pi2, pi3, pi4


def test_moments_of_maximally_mixed():
    m = moments_direct(MAX_MIXED)
    assert np.allclose(m.as_tuple(), (0.25, 0.0625, 0.015625), atol=1e-14)
    assert m.source == "direct"


def test_moments_of_singlet():
    m = moments_direct(singlet())
    assert np.allclose(m.as_tuple(), (1.0, 0.25, 0.25), atol=1e-12)


def test_moments_of_werner_match_closed_form():
    for p in (0.0, 0.3, 0.5, 0.8, 1.0):
        m = moments_direct(werner(p))
        assert np.allclose(m.as_tuple(), werner_moments(p), atol=1e-12), p


def test_witness_polynomial_reference_points():
    assert abs(witness_value(MomentSet(0.25, 0.0625, 0.015625)) - 1.0 / 256.0) < 1e-15
    assert abs(witness_value(MomentSet(1.0, 0.25, 0.25)) + 1.0 / 16.0) < 1e-15
    # separability edge: werner at p = 1/3 sits exactly on the boundary
    assert abs(witness_value(MomentSet(*werner_moments(1.0 / 3.0)))) < 1e-12


def test_witness_polynomial_vectorizes():
    pi2 = np.array([0.25, 1.0])
    pi3 = np.array([0.0625, 0.25])
    pi4 = np.array([0.015625, 0.25])
    out = witness_polynomial(pi2, pi3, pi4)
    assert np.allclose(out, [1.0 / 256.0, -1.0 / 16.0])


def test_witness_equals_determinant_of_partial_transpose():
    rng = np.random.default_rng(21)
    for _ in range(300):
        rho = random_mixed_state(rng)
        det = float(np.prod(hermitian_eig(partial_transpose(rho))))
        assert abs(witness_value(moments_direct(rho)) - det) < 1e-12


def test_witness_sign_matches_negativity():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(300):
        rho = random_mixed_state(rng)
        v = witness_value(moments_direct(rho))
        if abs(v) < 1e-12:
            continue  # numerically on the boundary, sign not meaningful
        checked += 1
        assert (v < 0) == (negativity(rho) > 1e-12)
    assert checked > 250


def test_rescaled_witness_clips_at_zero():
    assert rescaled_witness(1.0 / 256.0) == 0.0
    assert abs(rescaled_witness(-1.0 / 16.0) - 1.0) < 1e-15


def test_negativity_of_werner_closed_form():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3 * p - 1) / 2)
        assert abs(negativity(werner(p)) - expected) < 1e-12, p


def test_concurrence_known_values():
    assert abs(concurrence(singlet()) - 1.0) < 1e-12
    assert concurrence(MAX_MIXED) == 0.0
    for p in (0.5, 0.8):
        assert abs(concurrence(werner(p)) - (3 * p - 1) / 2) < 1e-12


def test_concurrence_pure_schmidt_closed_form():
    for lam1 in (0.0, 0.3, 0.6, 1.0 / np.sqrt(2.0), 0.9, 1.0):
        expected = 2 * lam1 * np.sqrt(1 - lam1**2)
        assert abs(concurrence(pure_schmidt(lam1)) - expected) < 1e-12, lam1


def test_concurrence_agrees_with_brute_force_eigensolve():
    # production route (singular values of the half-flipped product) against
    # the direct non-Hermitian diagonalization; the latter is noisy at the
    # sqrt(eps) level on degenerate zeros, hence the loose tolerance
    rng = np.random.default_rng(27)
    for _ in range(100):
        rho = random_mixed_state(rng)
        lam = concurrence_spinflip_eigs(rho)
        c_brute = max(0.0, 2 * lam.max() - lam.sum())
        assert abs(concurrence(rho) - c_brute) < 1e-7
    lam = concurrence_spinflip_eigs(singlet())
    assert np.allclose(lam, [1.0, 0.0, 0.0, 0.0], atol=1e-7)


def test_lower_bound_reference_points():
    assert lower_bound(0.0) == 0.0
    assert abs(lower_bound(1.0) - 1.0) < 1e-9
    assert abs(lower_bound(27.0 / 256.0) - 0.25) < 1e-8


def test_lower_bound_inverts_werner_line():
    # w(C) = C (C+2)^3 / 27 along the werner family
    for c in np.linspace(0.0, 1.0, 101):
        w = c * (c + 2) ** 3 / 27.0
        assert abs(lower_bound(w) - c) < 1e-9, c


def test_lower_bound_relative_accuracy_near_zero():
    grid = np.concatenate([np.logspace(-15.0, 0.0, 151), [1e-20, 1e-100, 1e-300]])
    for w in grid:
        c = lower_bound(w)
        assert abs(c * (c + 2) ** 3 / 27.0 - w) <= 1e-9 * w, w
    # exactly, in rational arithmetic: the root lies within 2e-15 relative of
    # f(w), over [1e-300, 1] and around w = 0.198, where the Newton starts
    # 27 w / 8 and w**(1/4) cross; floats and arrays take the same path
    assert lower_bound(0.0) == 0.0 and lower_bound(1.0) == 1.0
    def line(c):
        return c * (c + 2) ** 3 / 27

    eps = Fraction(2, 10 ** 15)
    exact = np.concatenate([np.logspace(-300.0, 0.0, 301), np.linspace(0.19, 0.206, 161)])
    for w, from_array in zip(exact, lower_bound(exact)):
        for c in (Fraction(lower_bound(float(w))), Fraction(float(from_array))):
            assert line(c * (1 - eps)) < Fraction(float(w)) < line(c * (1 + eps)), w


def test_lower_bound_monotone():
    grid = np.linspace(0.0, 1.0, 200)
    vals = [lower_bound(w) for w in grid]
    assert all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))


def test_upper_bound_is_fourth_root():
    assert upper_bound(0.0) == 0.0
    assert upper_bound(1.0) == 1.0
    w = 27.0 / 256.0
    assert abs(upper_bound(w) - w**0.25) < 1e-15
    assert abs(upper_bound(w) - 0.5698767642386944) < 1e-12


def test_bounds_domain_checks():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            bounds(bad)
    # tiny numerical overshoot is clipped, not rejected
    lo, hi = bounds(1.0 + 1e-12)
    assert hi == 1.0 and abs(lo - 1.0) < 1e-9


def test_bound_chain_on_random_states():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        rho = random_mixed_state(rng)
        w = rescaled_witness(witness_value(moments_direct(rho)))
        n = negativity(rho)
        c = concurrence(rho)
        lo, hi = bounds(w)
        assert lo - 1e-9 <= n <= c <= hi + 1e-9


def test_upper_bound_saturated_by_pure_states():
    rng = np.random.default_rng(24)
    for _ in range(200):
        rho = random_pure_state(rng)
        w = rescaled_witness(witness_value(moments_direct(rho)))
        assert abs(concurrence(rho) ** 4 - w) <= 1e-9 * w + 1e-14


def test_lower_bound_saturated_by_werner_states():
    for p in np.linspace(0.0, 1.0, 21):
        rho = werner(p)
        w = rescaled_witness(witness_value(moments_direct(rho)))
        n = negativity(rho)
        assert abs(lower_bound(w) - n) < 1e-8, p
        assert abs(n - concurrence(rho)) < 1e-12, p


def test_moment_consistency_ranges():
    rng = np.random.default_rng(25)
    for _ in range(200):
        m = moments_direct(random_mixed_state(rng))
        assert 0.25 - 1e-12 <= m.pi2 <= 1.0 + 1e-12
        assert m.pi4 <= m.pi2**2 + 1e-12
        assert abs(m.pi3) <= m.pi2 + 1e-12


class TestReport:
    def test_singlet(self):
        rep = witness_report(singlet())
        assert rep.entangled
        assert abs(rep.witness + 1.0 / 16.0) < 1e-12
        assert abs(rep.w - 1.0) < 1e-12
        assert abs(rep.negativity - 1.0) < 1e-12
        assert abs(rep.concurrence - 1.0) < 1e-12
        assert abs(rep.lower_bound - 1.0) < 1e-9
        assert rep.upper_bound == 1.0

    def test_maximally_mixed_not_detected(self):
        rep = witness_report(MAX_MIXED)
        assert not rep.entangled
        assert rep.w == 0.0
        assert rep.negativity == 0.0 and rep.concurrence == 0.0
        assert rep.lower_bound == 0.0 and rep.upper_bound == 0.0

    def test_boundary_werner_not_flagged(self):
        rep = witness_report(werner(1.0 / 3.0))
        assert abs(rep.witness) < 1e-12
        assert not rep.entangled

    def test_corridor_ordering(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            rep = witness_report(random_mixed_state(rng))
            assert rep.lower_bound <= rep.negativity + 1e-9
            assert rep.negativity <= rep.concurrence + 1e-12
            assert rep.concurrence <= rep.upper_bound + 1e-9

    def test_as_dict_fields(self):
        d = witness_report(werner(0.5)).as_dict()
        assert set(d) == {
            "witness",
            "w",
            "negativity",
            "concurrence",
            "lower_bound",
            "upper_bound",
            "entangled",
        }
