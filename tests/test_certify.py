import math
import tracemalloc

import numpy as np
import pytest

import oracles
from pathqrng import certify, chip, optics

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
    assert oracles.hs_error_bound(0.0) == 0.0
    assert oracles.hs_error_bound(0.01, stages=1) == pytest.approx(0.04)
    assert oracles.hs_error_bound(0.01, stages=2) == pytest.approx(
        0.08 * SQRT2, abs=1e-15
    )
    with pytest.raises(ValueError):
        oracles.hs_error_bound(-0.1)
    with pytest.raises(ValueError):
        oracles.hs_error_bound(0.1, stages=3)


def test_nearest_factorized_within_first_order_bound():
    rng = np.random.default_rng(109)
    for _ in range(50):
        eps = rng.uniform(0.0, 0.25)
        d = tuple(rng.uniform(-eps, eps, size=4))
        fa = certify.nearest_factorized(d)
        bound = oracles.hs_error_bound(eps, stages=1) + 5.0 * eps * eps
        assert fa.distance <= bound + 1e-12


def test_corrections_vanish_for_zero_errors():
    zero = certify.PhaseErrorSet(dphi=(0.0,) * 4, dtheta=(0.0,) * 4)
    assert certify.e_chi(zero, starts=2, probes=100, seed=1).value < 1e-9
    assert certify.e_p(zero, starts=2, probes=100, seed=1).value < 1e-9


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
            vals.append(fn(es, starts=2, probes=0, seed=20240).value)
        assert vals[0] < 1e-9
        assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_correction_estimate_interface():
    est = certify.e_chi(CHI_PLUS_ERRORS, starts=2, probes=0, seed=20240)
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


def bimodal(ang):
    """A narrow high bump near 0.7 beside a broad low basin near 2.2."""
    x = ang[..., 0]
    low = 0.30 * np.exp(-0.5 * ((x - 2.2) % math.pi / 0.9) ** 2)
    centered = ((x - 0.7 + math.pi / 2) % math.pi) - math.pi / 2
    high = np.exp(-0.5 * (centered / 0.02) ** 2)
    return np.maximum(low, high)


def test_convergence_flag_detects_split_basins():
    # a bump that only some starts find: with two starts and seed 10, the
    # first start lands in the broad low basin and the second escapes it, so
    # the halves disagree and the run reports unconverged
    def zero_probe(ang, psi):
        return np.zeros(len(ang))

    est = certify._maximize_deviation(
        zero_probe, bimodal, 1, starts=2, probes=0, seed=10
    )
    assert not est.converged
    assert est.value == pytest.approx(1.0, abs=1e-3)
    more = certify._maximize_deviation(
        zero_probe, bimodal, 1, starts=64, probes=0, seed=10
    )
    assert more.converged


def never_called(ang):
    raise AssertionError("the search started before checking its budget")


def same_search(new, old):
    return (new.value, new.angles, new.converged) == (old.value, old.angles, old.converged)


PAPER_MMIS = (optics.MmiParams.from_power(0.4, 0.6),) * 4


@pytest.mark.parametrize("probes", [-1, -20000])
def test_search_rejects_negative_probe_budget(probes):
    with pytest.raises(ValueError, match="probes"):
        certify._maximize_deviation(None, never_called, 4, starts=2, probes=probes, seed=1)


def test_chi_deviation_operator_matches_one_call_per_term():
    rng = np.random.default_rng(211)
    angles = rng.uniform(0.0, math.pi, size=(500, 4))
    for mmis in (None, PAPER_MMIS):
        tr = certify._resolve_mmis(mmis)
        assert np.array_equal(certify._chi_deviation_operator(angles, CHI_PLUS_ERRORS, tr),
                              oracles.chi_deviation_operator_loop(angles, CHI_PLUS_ERRORS, tr))


def test_search_matches_sequential_oracle_on_the_paper_chip():
    budget = dict(starts=16, probes=20_000, seed=20240)
    new = certify.e_chi(CHI_PLUS_ERRORS, PAPER_MMIS, **budget)
    old = oracles.e_chi_sequential(CHI_PLUS_ERRORS, PAPER_MMIS, **budget)
    assert same_search(new, old)
    assert new.probe_best == pytest.approx(old.probe_best, abs=1e-12)
    new = certify.e_p(CHI_PLUS_ERRORS, PAPER_MMIS, **budget)
    old = oracles.e_p_sequential(CHI_PLUS_ERRORS, PAPER_MMIS, **budget)
    assert same_search(new, old)
    # a probe now takes its largest outcome deviation, never less than the old pick
    assert old.probe_best <= new.probe_best <= new.value


@pytest.mark.parametrize("errors", [CHI_PLUS_ERRORS, CHI_MINUS_ERRORS], ids=["plus", "minus"])
def test_search_matches_sequential_oracle_on_acceptance_errors(errors):
    # ideal splitters leave flat directions, where starts walk on rounding-level gains
    new = certify.e_chi(errors, **CHEAP_BUDGET)
    old = oracles.e_chi_sequential(errors, **CHEAP_BUDGET)
    assert same_search(new, old)
    assert new.probe_best == pytest.approx(old.probe_best, abs=1e-12)
    assert same_search(certify.e_p(errors, **CHEAP_BUDGET),
                       oracles.e_p_sequential(errors, **CHEAP_BUDGET))


def test_search_matches_sequential_oracle_on_random_error_sets():
    rng = np.random.default_rng(2024)
    for seed in range(20):
        errors = certify.PhaseErrorSet(dphi=tuple(rng.uniform(-0.25, 0.25, 4)),
                                       dtheta=tuple(rng.uniform(-0.25, 0.25, 4)))
        p_phi, p_theta = rng.uniform(0.3, 0.7, 2)
        mmis = ((optics.MmiParams.from_power(p_phi, 1.0 - p_phi),) * 2
                + (optics.MmiParams.from_power(p_theta, 1.0 - p_theta),) * 2)
        budget = dict(starts=4, probes=1000, seed=seed)
        new = certify.e_chi(errors, mmis, **budget)
        old = oracles.e_chi_sequential(errors, mmis, **budget)
        assert same_search(new, old), seed
        assert new.probe_best == pytest.approx(old.probe_best, abs=1e-12)
        assert same_search(certify.e_p(errors, mmis, **budget),
                           oracles.e_p_sequential(errors, mmis, **budget)), seed


def test_search_matches_sequential_oracle_on_split_basins(monkeypatch):
    for starts in (2, 7, 64):
        old = oracles.maximize_deviation_sequential(None, bimodal, 1, starts, 0, 10, 1e-4)
        assert same_search(certify._maximize_deviation(None, bimodal, 1, starts, 0, 10),
                           old)
        # blocks of 3 starts climb separately but land on the same points
        monkeypatch.setattr(certify, "_START_BLOCK", 3)
        assert same_search(certify._maximize_deviation(None, bimodal, 1, starts, 0, 10),
                           old)
        monkeypatch.undo()


def test_coordinate_ascent_breaks_ties_toward_the_first_move():
    # every move out of (1, 1) gains the same rounded amount: the +x0 move wins
    def plateau(ang):
        return np.round(np.sum(np.abs(ang - 1.0), axis=-1), 6)

    x0s = np.array([[1.0, 1.0], [0.5, 2.5], [1.0, 3.0]])
    xs, fxs = certify._coordinate_ascent(plateau, x0s)
    for x0, x, fx in zip(x0s, xs, fxs):
        want_x, want_fx = oracles.coordinate_ascent_sequential(plateau, x0)
        assert np.array_equal(x, want_x) and fx == want_fx


def test_coordinate_ascent_moves_only_on_strict_gains():
    # on a constant objective no move is better: each start only halves its step
    calls = []

    def flat(ang):
        calls.append(len(ang))
        if len(calls) > 100:
            raise AssertionError("the search keeps taking moves that gain nothing")
        return np.full(len(ang), 0.25)

    x0s = np.random.default_rng(5).uniform(0.0, math.pi, size=(5, 3))
    xs, fxs = certify._coordinate_ascent(flat, x0s, step0=0.4)
    assert np.array_equal(xs, x0s) and np.all(fxs == 0.25)
    # one call for the starts, then one per step size 0.4 * 2**-k >= 1e-4, k = 0..11
    assert calls == [5] + [5 * 6] * 12


def test_coordinate_ascent_halves_only_the_stalled_starts():
    # one start sits on the peak and stalls at once, the other climbs toward it
    def peak(ang):
        return -np.abs(ang[..., 0] - 1.5)

    x0s = np.array([[1.5], [0.3]])
    xs, fxs = certify._coordinate_ascent(peak, x0s)
    for x0, x, fx in zip(x0s, xs, fxs):
        want_x, want_fx = oracles.coordinate_ascent_sequential(peak, x0)
        assert np.array_equal(x, want_x) and fx == want_fx


def test_outcome_pairs_have_equal_operator_norms():
    # rank-1 projector differences: outcomes c and c+2 tie in exact arithmetic,
    # so ranking them by eigvalsh would pick by rounding noise
    rng = np.random.default_rng(223)
    angles = rng.uniform(0.0, math.pi, size=(2000, 2))
    for mmis in (None, PAPER_MMIS):
        tr = certify._resolve_mmis(mmis)
        norms = certify._spectral_norm_hermitian(
            certify._outcome_deviations(angles, CHI_PLUS_ERRORS, tr))
        np.testing.assert_allclose(norms[0], norms[2], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(norms[1], norms[3], rtol=0.0, atol=1e-12)


def search_callables(term, mmis, monkeypatch):
    """The (probe, objective) pair that ``term`` hands to the search."""
    seen = []
    monkeypatch.setattr(certify, "_maximize_deviation", lambda *args: seen.append(args[:2]))
    term(CHI_PLUS_ERRORS, mmis)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("mmis", [None, PAPER_MMIS], ids=["ideal", "paper"])
def test_probes_are_state_expectations_below_the_objective(mmis, monkeypatch):
    rng = np.random.default_rng(227)
    tr = certify._resolve_mmis(mmis)
    psi = certify._random_pure_states(rng, 3000)

    probe, objective = search_callables(certify.e_chi, mmis, monkeypatch)
    angles = rng.uniform(0.0, math.pi, size=(3000, 4))
    dev = oracles.chi_deviation_operator_loop(angles, CHI_PLUS_ERRORS, tr)
    want = np.abs(np.einsum("ni,nij,nj->n", np.conj(psi), dev, psi).real)
    got = probe(angles, psi)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.all(got <= objective(angles) + 1e-12)

    probe, objective = search_callables(certify.e_p, mmis, monkeypatch)
    angles = rng.uniform(0.0, math.pi, size=(3000, 2))
    stack = certify._outcome_deviations(angles, CHI_PLUS_ERRORS, tr)
    want = np.max(np.abs(np.einsum("ni,cnij,nj->cn", np.conj(psi), stack, psi).real), axis=0)
    got = probe(angles, psi)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.all(got <= objective(angles) + 1e-12)


def test_probe_pass_calls_the_mzi_kernel_four_times_per_block(monkeypatch):
    # one optics.mzi_matrix call per rotation MZI and probe block, never per row
    calls = []
    mzi = chip.mzi_matrix
    monkeypatch.setattr(chip, "mzi_matrix", lambda *args: calls.append(1) or mzi(*args))
    monkeypatch.setattr(certify, "_STEP_MIN", 0.4)  # a short climb; the probes are counted
    for term in (certify.e_chi, certify.e_p):
        counts = []
        for probes in (0, 25_000):  # draws of 20,000 and 5,000 rows: 4 + 1 blocks
            calls.clear()
            term(CHI_PLUS_ERRORS, PAPER_MMIS, starts=2, probes=probes, seed=1)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 4 * 5


def test_search_memory_is_blocked(monkeypatch):
    # 100k probes and 4096 starts: the traced peak is about 18 MB; with
    # 20,000-row probe blocks in place of 5,000-row ones it reaches about
    # 54 MB, and without the 256-start blocks 270 MB
    monkeypatch.setattr(certify, "_STEP_MIN", 0.4)
    tracemalloc.start()
    try:
        est = certify.e_chi(CHI_PLUS_ERRORS, starts=4096, probes=100_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.starts == 4096 and est.probe_best > 0.0
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"


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


def test_guessing_curve_keeps_the_scalar_formula_bit_for_bit():
    def f(x):
        return 0.5 + 0.5 * math.sqrt(max(2.0 - x * x / 4.0, 0.0))

    xs = np.concatenate([np.linspace(1.5, 3.0, 2001), [2.0, 2.0 * SQRT2, 2.697 - 0.092]])
    assert [float(y) for y in certify.guessing_curve(xs)] == [f(float(x)) for x in xs]
    assert certify.guessing_bound(2.5) == f(2.5)
    for chi in np.linspace(-2.9, 2.9, 117):
        for e_chi, e_p in ((0.0, 0.0), (0.092, 0.02), (0.0213, 0.0187), (0.3, 0.1)):
            x = max(abs(float(chi)) - e_chi, 0.0)
            want = 1.0 if x <= 2.0 else min(1.0, f(x) + e_p)
            assert certify.guessing_probability(float(chi), e_chi, e_p) == want


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
