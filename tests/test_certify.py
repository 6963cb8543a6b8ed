import math

import numpy as np
import pytest

import oracles
from pathqrng import certify, optics

SQRT2 = math.sqrt(2.0)

# Both measured error rows used throughout: the chi+ alignment and the
# chi- alignment of the same chip.
CHI_PLUS_ERRORS = certify.PhaseErrorSet(
    dphi=(0.000, 0.011, -0.004, -0.006), dtheta=(0.068, 0.216, 0.036, 0.215)
)
CHI_MINUS_ERRORS = certify.PhaseErrorSet(
    dphi=(0.002, 0.004, 0.007, -0.006), dtheta=(0.068, 0.187, 0.036, 0.180)
)

# Pinned values at the cheap deterministic budget (starts=8, probes=2000,
# seed=20240); the full default budget reproduces these to 9 decimals.
CHEAP_BUDGET = dict(starts=8, probes=2000, seed=20240)
PINNED_E_CHI_PLUS = 0.088259555
PINNED_E_P_PLUS = 0.019816277
PINNED_E_CHI_MINUS = 0.080001094
PINNED_E_P_MINUS = 0.014789546


def test_phase_error_set_validation():
    with pytest.raises(ValueError):
        certify.PhaseErrorSet(dphi=(0.3, 0.0, 0.0, 0.0), dtheta=(0.0,) * 4)
    with pytest.raises(ValueError):
        certify.PhaseErrorSet(dphi=(0.0,) * 4, dtheta=(0.0, 0.0, 0.0))


def test_nearest_factorized_trivial_cases():
    fa = certify.nearest_factorized((0.0, 0.0, 0.0, 0.0))
    assert fa.varphi == 0.0 and fa.vartheta == 0.0 and fa.distance == 0.0
    assert fa.n == (0.0, 0.0, 1.0)

    a, b = 0.13, -0.07
    fa = certify.nearest_factorized((a, b, a, b))
    assert fa.distance == pytest.approx(0.0, abs=1e-15)
    assert fa.varphi == pytest.approx(a + b)
    assert fa.vartheta == pytest.approx(a - b)


def test_nearest_factorized_antisymmetric_case():
    for eps in (0.02, 0.1, 0.25):
        fa = certify.nearest_factorized((eps, -eps, -eps, eps))
        assert fa.distance == pytest.approx(4.0 * abs(math.sin(eps)), abs=1e-12)


def test_nearest_factorized_matches_procrustes():
    rng = np.random.default_rng(101)
    for _ in range(100):
        d = tuple(rng.uniform(-0.25, 0.25, size=4))
        fa = certify.nearest_factorized(d)
        assert fa.distance == pytest.approx(
            oracles.factorized_distance_svd(d), abs=1e-9
        )


def test_nearest_factorized_matches_bruteforce():
    rng = np.random.default_rng(103)
    for k in range(10):
        d = tuple(rng.uniform(-0.25, 0.25, size=4))
        fa = certify.nearest_factorized(d)
        brute = oracles.factorized_distance_bruteforce(d, restarts=8, seed=k)
        assert fa.distance == pytest.approx(brute, abs=1e-6)


def test_nearest_factorized_parameters_reach_the_optimum():
    # e^{i varphi} times the vartheta rotation about n, conjugated into the
    # interferometer frame, must equal the Procrustes arg-min exactly
    mmi = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) / SQRT2
    rng = np.random.default_rng(107)
    for _ in range(50):
        d = tuple(rng.uniform(-0.25, 0.25, size=4))
        fa = certify.nearest_factorized(d)
        cand = mmi @ oracles.pauli_exponential(fa.varphi, fa.vartheta, fa.n) @ mmi
        np.testing.assert_allclose(
            cand, oracles.factorized_optimum_svd(d), atol=1e-12
        )
        achieved = np.linalg.norm(
            oracles.stage_block(d) - np.kron(oracles.ID2, cand)
        )
        assert achieved == pytest.approx(fa.distance, abs=1e-12)


def test_hs_error_bound():
    assert certify.hs_error_bound(0.0) == 0.0
    assert certify.hs_error_bound(0.01, stages=1) == pytest.approx(0.04)
    assert certify.hs_error_bound(0.01, stages=2) == pytest.approx(
        0.08 * SQRT2, abs=1e-15
    )
    with pytest.raises(ValueError):
        certify.hs_error_bound(-0.1)
    with pytest.raises(ValueError):
        certify.hs_error_bound(0.1, stages=3)


def test_nearest_factorized_within_first_order_bound():
    rng = np.random.default_rng(109)
    for _ in range(50):
        eps = rng.uniform(0.0, 0.25)
        d = tuple(rng.uniform(-eps, eps, size=4))
        fa = certify.nearest_factorized(d)
        bound = certify.hs_error_bound(eps, stages=1) + 5.0 * eps * eps
        assert fa.distance <= bound + 1e-12


def test_corrections_vanish_for_zero_errors():
    zero = certify.PhaseErrorSet(dphi=(0.0,) * 4, dtheta=(0.0,) * 4)
    assert float(certify.e_chi(zero, starts=2, probes=100, seed=1)) < 1e-9
    assert float(certify.e_p(zero, starts=2, probes=100, seed=1)) < 1e-9


def test_e_chi_pinned_values():
    plus = certify.e_chi(CHI_PLUS_ERRORS, **CHEAP_BUDGET)
    assert plus.value == pytest.approx(PINNED_E_CHI_PLUS, abs=1e-6)
    assert plus.converged
    assert plus.probe_best <= plus.value + 1e-12
    minus = certify.e_chi(CHI_MINUS_ERRORS, **CHEAP_BUDGET)
    assert minus.value == pytest.approx(PINNED_E_CHI_MINUS, abs=1e-6)
    assert minus.converged


def test_e_p_pinned_values():
    plus = certify.e_p(CHI_PLUS_ERRORS, **CHEAP_BUDGET)
    assert plus.value == pytest.approx(PINNED_E_P_PLUS, abs=1e-6)
    assert plus.converged
    minus = certify.e_p(CHI_MINUS_ERRORS, **CHEAP_BUDGET)
    assert minus.value == pytest.approx(PINNED_E_P_MINUS, abs=1e-6)
    assert minus.converged


def test_corrections_monotone_under_error_scaling():
    for fn in (certify.e_chi, certify.e_p):
        vals = []
        for s in (0.0, 0.5, 1.0):
            es = certify.PhaseErrorSet(
                dphi=tuple(s * d for d in CHI_PLUS_ERRORS.dphi),
                dtheta=tuple(s * d for d in CHI_PLUS_ERRORS.dtheta),
            )
            vals.append(float(fn(es, starts=2, probes=0, seed=20240)))
        assert vals[0] < 1e-9
        assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_correction_estimate_interface():
    est = certify.e_chi(CHI_PLUS_ERRORS, starts=2, probes=0, seed=20240)
    assert float(est) == est.value
    assert est.starts == 2 and est.probes == 0 and est.seed == 20240
    assert len(est.angles) == 4


def test_corrections_reject_bad_splitters():
    lossy = optics.MmiParams(t=0.6, r=0.7)
    with pytest.raises(ValueError):
        certify.e_chi(CHI_PLUS_ERRORS, mmis=(lossy,) * 4, starts=2, probes=0)
    mixed = (
        optics.IDEAL_MMI,
        optics.MmiParams.from_power(0.5, 0.5),
        optics.IDEAL_MMI,
        optics.MmiParams.from_power(0.4, 0.6),
    )
    with pytest.raises(ValueError):
        certify.e_p(CHI_PLUS_ERRORS, mmis=mixed, starts=2, probes=0)
    with pytest.raises(ValueError):
        certify.e_chi(CHI_PLUS_ERRORS, starts=1, probes=0)


def test_convergence_flag_detects_split_basins():
    # a narrow high bump that only some starts find: with two starts and
    # seed 10, the first start lands in the broad low basin and the second
    # escapes it, so the halves disagree and the run reports unconverged
    def bimodal(ang):
        x = ang[..., 0]
        low = 0.30 * np.exp(-0.5 * ((x - 2.2) % math.pi / 0.9) ** 2)
        centered = ((x - 0.7 + math.pi / 2) % math.pi) - math.pi / 2
        high = np.exp(-0.5 * (centered / 0.02) ** 2)
        return np.maximum(low, high)

    def zero_op(ang):
        return np.zeros(ang.shape[:-1] + (4, 4))

    est = certify._maximize_deviation(
        zero_op, bimodal, 1, starts=2, probes=0, seed=10, step_min=1e-4
    )
    assert not est.converged
    assert est.value == pytest.approx(1.0, abs=1e-3)
    more = certify._maximize_deviation(
        zero_op, bimodal, 1, starts=64, probes=0, seed=10, step_min=1e-4
    )
    assert more.converged


def test_guessing_probability_boundaries():
    assert certify.guessing_probability(2.0 * SQRT2, 0.0, 0.0) == pytest.approx(0.5)
    assert certify.guessing_probability(2.0, 0.0, 0.0) == 1.0
    assert certify.guessing_probability(1.2, 0.0, 0.0) == 1.0
    # negative chi certifies through |chi|
    assert certify.guessing_probability(-2.0 * SQRT2, 0.0, 0.0) == pytest.approx(0.5)
    # beyond-maximal violation clamps the square root at zero
    assert certify.guessing_probability(2.9, 0.0, 0.01) == pytest.approx(0.51)


@pytest.mark.parametrize("e_chi, e_p", [
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, math.inf), (-0.1, 0.0),
])
def test_guessing_probability_rejects_bad_corrections(e_chi, e_p):
    with pytest.raises(ValueError):
        certify.guessing_probability(2.7, e_chi, e_p)


def test_guessing_probability_published_point():
    got = certify.guessing_probability(2.697, 0.092, 0.02)
    assert got == pytest.approx(0.7954517, abs=1e-6)
    assert abs(got - 0.796) < 1e-3


def test_guessing_probability_monotonicity():
    chis = np.linspace(2.1, 2.0 * SQRT2, 50)
    vals = [certify.guessing_probability(c, 0.05, 0.01) for c in chis]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    e_chis = np.linspace(0.0, 0.3, 30)
    vals = [certify.guessing_probability(2.7, e, 0.01) for e in e_chis]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    e_ps = np.linspace(0.0, 0.2, 30)
    vals = [certify.guessing_probability(2.7, 0.05, e) for e in e_ps]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_guessing_bound_domain():
    assert certify.guessing_bound(2.0) == pytest.approx(1.0)
    assert certify.guessing_bound(2.0 * SQRT2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        certify.guessing_bound(1.9)
    with pytest.raises(ValueError):
        certify.guessing_bound(2.9)


def test_min_entropy():
    bits, percent = certify.min_entropy(0.5)
    assert bits == pytest.approx(1.0)
    assert percent == pytest.approx(100.0)
    bits, percent = certify.min_entropy(1.0)
    assert bits == 0.0 and percent == 0.0
    bits, percent = certify.min_entropy(0.796)
    assert bits == pytest.approx(-math.log2(0.796), abs=1e-12)
    assert bits == pytest.approx(0.32916, abs=1e-5)
    assert round(percent, 1) == 32.9
    with pytest.raises(ValueError):
        certify.min_entropy(0.0)
    with pytest.raises(ValueError):
        certify.min_entropy(1.2)


def test_min_entropy_at_maximal_violation_is_one_bit():
    pg = certify.guessing_probability(2.0 * SQRT2, 0.0, 0.0)
    assert certify.min_entropy(pg)[0] == pytest.approx(1.0, abs=1e-12)


def test_certified_rate():
    assert certify.certified_rate(120000.0, 0.33) == pytest.approx(39600.0)
    assert certify.certified_rate(0.0, 0.9) == 0.0
    assert certify.certified_rate(1e6, 0.33) == pytest.approx(3.3e5)
    with pytest.raises(ValueError):
        certify.certified_rate(-1.0, 0.3)
    with pytest.raises(ValueError):
        certify.certified_rate(math.nan, 0.3)


def test_certification_result_composition():
    res = certify.certification_result(2.697, 0.092, 0.02, event_rate_hz=120000.0)
    assert res.p_guess == pytest.approx(0.7954517, abs=1e-6)
    assert res.h_min_bits == pytest.approx(-math.log2(res.p_guess))
    assert res.h_min_percent == pytest.approx(100.0 * res.h_min_bits)
    assert res.p_guess >= 0.5 - 1e-12
    assert res.certified_rate_hz == pytest.approx(120000.0 * res.h_min_bits)
    no_rate = certify.certification_result(2.697, 0.092, 0.02)
    assert no_rate.certified_rate_hz is None


def test_concavity_check():
    report = certify.concavity_check([2.0, 2.0 * SQRT2])
    assert report.passed and report.pairs_checked == 1
    assert report.worst_margin >= -1e-12
    mid = 0.5 * (2.0 + 2.0 * SQRT2)
    f = lambda x: 0.5 + 0.5 * math.sqrt(max(2.0 - x * x / 4.0, 0.0))
    assert f(mid) >= 0.5 * (f(2.0) + f(2.0 * SQRT2))

    equal = certify.concavity_check([2.4, 2.4])
    assert equal.passed and abs(equal.worst_margin) < 1e-12

    rng = np.random.default_rng(113)
    samples = rng.uniform(2.0, 2.0 * SQRT2, size=2000)
    report = certify.concavity_check(samples)
    assert report.passed and report.pairs_checked == 1000
    assert report.worst_margin >= -1e-12

    with pytest.raises(ValueError):
        certify.concavity_check([1.5, 2.5])
    with pytest.raises(ValueError):
        certify.concavity_check([2.5])
