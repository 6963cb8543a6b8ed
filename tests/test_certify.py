import functools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from pathqrng import bell, certify, chip, optics

SQRT2 = math.sqrt(2.0)

# Both measured error rows used throughout: the chi+ alignment and the
# chi- alignment of the same chip.
CHI_PLUS_ERRORS = certify.PhaseErrorSet(
    dphi=(0.000, 0.011, -0.004, -0.006), dtheta=(0.068, 0.216, 0.036, 0.215)
)
CHI_MINUS_ERRORS = certify.PhaseErrorSet(
    dphi=(0.002, 0.004, 0.007, -0.006), dtheta=(0.068, 0.187, 0.036, 0.180)
)

PAPER_MMIS = (optics.MmiParams.from_power(0.4, 0.6),) * 4

# Proven upper bounds with ideal splitters, then on the 40:60 paper chip
PINNED_E_CHI_PLUS = 0.088758608
PINNED_E_P_PLUS = 0.019816278
PINNED_E_CHI_MINUS = 0.080494606
PINNED_E_P_MINUS = 0.014789546
PINNED_E_CHI_PAPER = 0.095096066
PINNED_E_P_PAPER = 0.0205528206
# e_chi's whole estimate per chip, (errors, splitters, upper, lower, cells,
# angles), recorded from the stacked-kernel proof: a change of the kernel's
# layout or blocking must not move one bit of it
PROVEN_E_CHI = {
    "plus-ideal": (CHI_PLUS_ERRORS, None, 0.08875860815366016, 0.08825860815366016, 20064,
                   (0.0, 0.44178646691106466, 0.14726215563702155, 0.8835729338221293)),
    "plus-paper": (CHI_PLUS_ERRORS, PAPER_MMIS, 0.09509606567879761, 0.09459606567879761, 2320,
                   (0.0, 0.8835729338221293, 1.7671458676442586, 0.19634954084936207)),
    "minus-ideal": (CHI_MINUS_ERRORS, None, 0.080494605740405, 0.079994605740405, 8024,
                    (0.0, 0.44178646691106466, 1.7180584824319183, 0.09817477042468103)),
    "minus-paper": (CHI_MINUS_ERRORS, PAPER_MMIS, 0.07996765788404829, 0.07946765788404829,
                    2212, (0.0, 2.6016314162540475, 1.7180584824319183, 0.09817477042468103)),
}
# the whole estimate of each of random_chips(4, seed=7), (upper, lower,
# cells, angles); every proof closes
RANDOM_E_CHI = [
    (1.1584142267840956, 1.1579142267840956, 3596,
     (0.0, 1.043106935762236, 2.7857091108003242, 1.9389517158874503)),
    (0.4523846055103811, 0.4518846055103811, 1824,
     (0.0, 0.5645049299419159, 1.521708941582556, 0.04908738521234052)),
    (0.611965989009053, 0.611465989009053, 3616,
     (0.0, 2.073942025221387, 2.6139032625571326, 1.803961406553514)),
    (0.7599532886729186, 0.7594532886729186, 2352,
     (0.0, 2.3930100291016, 2.000310947402876, 2.8102528034064944)),
]
# PROVEN_E_CHI's chips under a cell cap: the unconverged estimate, (upper,
# lower, cells, angles), or None where the proof closes under the cap
CAPPED_E_CHI = {
    ("plus-ideal", 1000): (0.09596860886967179, 0.08819225326669665, 512,
                           (0.0, 0.5890486225480862, 0.19634954084936207, 1.3744467859455345)),
    ("plus-paper", 1000): (0.10179670324317394, 0.09447391296113636, 512,
                           (0.0, 0.9817477042468103, 1.7671458676442586, 0.19634954084936207)),
    ("minus-ideal", 1000): (0.08695545591899279, 0.079753220822087, 512,
                            (0.0, 0.5890486225480862, 1.7671458676442586, 0.19634954084936207)),
    ("minus-paper", 1000): (0.0819942902897685, 0.07926980289198213, 900,
                            (0.0, 2.552544031041707, 1.7671458676442586, 0.19634954084936207)),
    ("plus-ideal", 5000): (0.09045143160436517, 0.08825117544300153, 3256,
                           (0.0, 0.4908738521234052, 0.09817477042468103, 0.5890486225480862)),
    ("plus-paper", 5000): None,
    ("minus-ideal", 5000): (0.08091007815143368, 0.07994954441561467, 4456,
                            (0.0, 0.2945243112740431, 0.09817477042468103, 1.7671458676442586)),
    ("minus-paper", 5000): None,
}
# the sequential oracle search's budget: a floor under each maximum; its
# coarser final step bounds the walks along the flat ridges of 50:50 chips
CHEAP_BUDGET = dict(starts=8, probes=2000, seed=20240)
FLAT_BUDGET = dict(CHEAP_BUDGET, step_min=1e-3)


def matrices_last(h):
    """A view of the batch-last operators ``h`` (4, 4, ...) as (..., 4, 4)."""
    return np.moveaxis(h, (0, 1), (-2, -1))


@functools.cache
def bounds(errors, mmis=None):
    """(e_chi, e_p) of one chip, proven once per test session."""
    return certify.e_chi(errors, mmis), certify.e_p(errors, mmis)


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
    assert certify.e_chi(zero).value < 1e-9
    assert certify.e_p(zero).value < 1e-9


def test_e_chi_pinned_values():
    # ideal 50:50 splitters leave flat directions, the slowest case for the
    # proof; it must still close well under the cell cap
    plus = bounds(CHI_PLUS_ERRORS)[0]
    assert plus.value == pytest.approx(PINNED_E_CHI_PLUS, abs=1e-6)
    assert plus.converged and plus.cells <= certify._MAX_CELLS // 4
    assert plus.gap == pytest.approx(certify._CHI_GAP, abs=1e-15)
    minus = bounds(CHI_MINUS_ERRORS)[0]
    assert minus.value == pytest.approx(PINNED_E_CHI_MINUS, abs=1e-6)
    assert minus.converged and minus.cells <= certify._MAX_CELLS // 4


def test_e_p_pinned_values():
    plus = bounds(CHI_PLUS_ERRORS)[1]
    assert plus.value == pytest.approx(PINNED_E_P_PLUS, abs=1e-6)
    assert plus.converged and 0.0 <= plus.gap <= 1e-8
    minus = bounds(CHI_MINUS_ERRORS)[1]
    assert minus.value == pytest.approx(PINNED_E_P_MINUS, abs=1e-6)
    assert minus.converged and 0.0 <= minus.gap <= 1e-8


def test_paper_chip_bounds_and_gaps():
    chi, p = bounds(CHI_PLUS_ERRORS, PAPER_MMIS)
    assert chi.converged and chi.upper == pytest.approx(PINNED_E_CHI_PAPER, abs=1e-6)
    assert 0.0 < chi.gap <= certify._CHI_GAP + 1e-15
    assert p.converged and p.upper == pytest.approx(PINNED_E_P_PAPER, abs=1e-9)
    assert 0.0 < p.gap <= 1e-8


def test_corrections_monotone_under_error_scaling():
    for fn in (certify.e_chi, certify.e_p):
        vals = []
        for s in (0.0, 0.5, 1.0):
            es = certify.PhaseErrorSet(
                dphi=tuple(s * d for d in CHI_PLUS_ERRORS.dphi),
                dtheta=tuple(s * d for d in CHI_PLUS_ERRORS.dtheta),
            )
            vals.append(fn(es, PAPER_MMIS).value)
        assert vals[0] < 1e-9
        assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_correction_estimate_interface():
    for est, ndim in zip(bounds(CHI_PLUS_ERRORS, PAPER_MMIS), (4, 2)):
        assert est.value == est.upper and est.gap == est.upper - est.lower
        assert 0.0 < est.lower <= est.upper and est.cells > 0 and est.converged
        # phi is fixed at 0: neither term depends on it beyond phi - phi'
        assert len(est.angles) == ndim and est.angles[0] == 0.0


def test_corrections_reject_bad_splitters():
    lossy = optics.MmiParams(t=0.6, r=0.7)
    with pytest.raises(ValueError):
        certify.e_chi(CHI_PLUS_ERRORS, mmis=(lossy,) * 4)
    mixed = (
        optics.IDEAL_MMI,
        optics.MmiParams.from_power(0.5, 0.5),
        optics.IDEAL_MMI,
        optics.MmiParams.from_power(0.4, 0.6),
    )
    with pytest.raises(ValueError):
        certify.e_p(CHI_PLUS_ERRORS, mmis=mixed)


def random_chips(count, seed=11):
    """(errors, mmis) per chip: phase errors U(+-0.24), t-power U(0.3, 0.7) per stage."""
    rng = np.random.default_rng(seed)
    chips = []
    for _ in range(count):
        errors = certify.PhaseErrorSet(dphi=tuple(rng.uniform(-0.24, 0.24, 4)),
                                       dtheta=tuple(rng.uniform(-0.24, 0.24, 4)))
        p_phi, p_theta = rng.uniform(0.3, 0.7, 2)
        chips.append((errors, (optics.MmiParams.from_power(p_phi, 1.0 - p_phi),) * 2
                      + (optics.MmiParams.from_power(p_theta, 1.0 - p_theta),) * 2))
    return chips


def test_chi_deviation_operator_matches_one_call_per_term():
    rng = np.random.default_rng(211)
    angles = rng.uniform(0.0, math.pi, size=(500, 4))
    for mmis in (None, PAPER_MMIS):
        tr = certify._resolve_mmis(mmis)
        assert np.array_equal(oracles.chi_deviation_operator(angles, CHI_PLUS_ERRORS, tr),
                              oracles.chi_deviation_operator_loop(angles, CHI_PLUS_ERRORS, tr))


def test_search_matches_sequential_oracle_on_the_paper_chip():
    # the oracle's search is a floor under the maximum; the proof brackets it
    chi, p = bounds(CHI_PLUS_ERRORS, PAPER_MMIS)
    found = oracles.e_chi_sequential(CHI_PLUS_ERRORS, PAPER_MMIS, **CHEAP_BUDGET).value
    assert chi.lower <= found <= chi.upper
    found = oracles.e_p_sequential(CHI_PLUS_ERRORS, PAPER_MMIS, **CHEAP_BUDGET).value
    assert found <= p.upper and p.upper - found <= 1e-8


@pytest.mark.parametrize("errors", [CHI_PLUS_ERRORS, CHI_MINUS_ERRORS], ids=["plus", "minus"])
def test_search_matches_sequential_oracle_on_acceptance_errors(errors):
    # the branch and bound's interval holds the oracle's search result
    chi, p = bounds(errors)
    found = oracles.e_chi_sequential(errors, **FLAT_BUDGET).value
    assert chi.lower <= found <= chi.upper
    found = oracles.e_p_sequential(errors, **FLAT_BUDGET).value
    assert found <= p.upper and p.upper - found <= 1e-8


def test_bounds_cover_sequential_oracle_on_random_error_sets():
    short = []
    for k, (errors, mmis) in enumerate(random_chips(8)):
        chi, p = bounds(errors, mmis)
        dense_chi, dense_p = dense_norms(errors, mmis, np.random.default_rng(k), count=5000)
        assert chi.converged and dense_chi <= chi.upper and dense_p <= p.upper, k
        if k < 2:
            continue  # the 8-start oracle walks flat ridges here for about 9 s a chip
        found = oracles.e_chi_sequential(errors, mmis, **CHEAP_BUDGET).value
        assert found <= chi.upper, k
        if found < chi.lower:
            short.append(k)
        assert oracles.e_p_sequential(errors, mmis, **CHEAP_BUDGET).value <= p.upper, k
    # on chip 2 the search stops at 0.959, below the proven [0.9649, 0.9654]
    assert short == [2]


def dense_norms(errors, mmis, rng, count=20_000):
    """Largest chi and outcome deviation norms over ``count`` random angle tuples, phi included."""
    tr = certify._resolve_mmis(mmis)
    angles = rng.uniform(0.0, math.pi, size=(count, 4))
    chi = oracles.spectral_norm_hermitian(oracles.chi_deviation_operator(angles, errors, tr))
    p = oracles.spectral_norm_hermitian(oracles.outcome_deviations(angles[:, :2], errors, tr))
    return float(np.max(chi)), float(np.max(p))


@pytest.mark.parametrize("mmis", [None, PAPER_MMIS], ids=["ideal", "paper"])
def test_probes_are_state_expectations_below_the_objective(mmis):
    # random states score below the exact state maximum, which stays below the proof
    rng = np.random.default_rng(227)
    tr = certify._resolve_mmis(mmis)
    angles = rng.uniform(0.0, math.pi, size=(20_000, 4))
    dev = oracles.chi_deviation_operator(angles, CHI_PLUS_ERRORS, tr)
    psi = oracles.random_pure_states(rng, len(angles))
    probes = np.abs(np.einsum("ni,nij,nj->n", np.conj(psi), dev, psi).real)
    assert np.all(probes <= oracles.spectral_norm_hermitian(dev) + 1e-12)
    for errors in (CHI_PLUS_ERRORS, CHI_MINUS_ERRORS):
        chi, p = dense_norms(errors, mmis, rng)
        assert chi <= bounds(errors, mmis)[0].upper and p <= bounds(errors, mmis)[1].upper


def test_phi_drops_out_but_theta_does_not():
    # a common phi shift conjugates the chi deviation by one unitary, and the
    # outcome deviation does not see phi at all; a common theta shift matters
    rng = np.random.default_rng(239)
    for errors, mmis in [(CHI_PLUS_ERRORS, PAPER_MMIS)] + random_chips(4, seed=7):
        tr = certify._resolve_mmis(mmis)
        angles = rng.uniform(0.0, math.pi, size=(2000, 4))
        shift = np.where(np.arange(4) < 2, rng.uniform(0.0, math.pi, size=(2000, 1)), 0.0)
        norm = oracles.spectral_norm_hermitian(
            oracles.chi_deviation_operator(angles, errors, tr))
        moved = oracles.spectral_norm_hermitian(
            oracles.chi_deviation_operator(angles + shift, errors, tr))
        np.testing.assert_allclose(moved, norm, rtol=0.0, atol=1e-12)
        theta_moved = oracles.spectral_norm_hermitian(
            oracles.chi_deviation_operator(angles + shift[:, ::-1], errors, tr))
        assert np.max(np.abs(theta_moved - norm)) > 1e-3
        dev = oracles.spectral_norm_hermitian(oracles.outcome_deviations(angles[:, :2], errors,
                                                                         tr))
        flat = oracles.spectral_norm_hermitian(
            oracles.outcome_deviations(angles[:, :2] * [0.0, 1.0], errors, tr))
        np.testing.assert_allclose(flat, dev, rtol=0.0, atol=1e-12)


def test_chi_operators_rebuild_the_deviation_at_phi_zero():
    rng = np.random.default_rng(241)
    for errors, mmis in [(CHI_PLUS_ERRORS, PAPER_MMIS)] + random_chips(3, seed=9):
        tr = certify._resolve_mmis(mmis)
        c = certify._chi_coefficients(certify._rotation_coefficients(errors, tr))
        angles = rng.uniform(0.0, math.pi, size=(300, 4)) * [0.0, 1.0, 1.0, 1.0]
        got = certify._chi_operators(c, *np.exp(2j * angles[:, 1:].T)[..., None])[..., 0]
        np.testing.assert_allclose(matrices_last(got),
                                   oracles.chi_deviation_operator(angles, errors, tr),
                                   rtol=0.0, atol=1e-13)


def test_cell_vertices_bound_every_point_of_the_cell():
    # each arc bulges beyond the chord between its endpoints; only with the
    # tangent apex does the vertex maximum cover the whole cell
    rng = np.random.default_rng(251)
    for errors, mmis in [(CHI_PLUS_ERRORS, PAPER_MMIS)] + random_chips(3, seed=13):
        c = certify._chi_coefficients(certify._rotation_coefficients(
            errors, certify._resolve_mmis(mmis)))
        lo = rng.uniform(0.0, math.pi, size=(40, 3))
        width = rng.uniform(0.05, math.pi / 4.0, size=(40, 3))
        bound = oracles.spectral_norm_hermitian(
            matrices_last(certify._vertex_operators(c, lo, width)))
        inside = lo[:, None] + width[:, None] * rng.uniform(0.0, 1.0, size=(40, 500, 3))
        ops = certify._chi_operators(c, *np.exp(2j * inside.reshape(-1, 3).T)[..., None])
        norms = oracles.spectral_norm_hermitian(matrices_last(ops[..., 0])).reshape(40, 500)
        assert np.all(norms.max(axis=1) <= bound.max(axis=1) + 1e-12)


def test_norm_test_matches_the_eigenvalues():
    rng = np.random.default_rng(257)
    z = rng.normal(size=(5000, 4, 4)) + 1j * rng.normal(size=(5000, 4, 4))
    h = z + np.conj(np.swapaxes(z, -1, -2))
    norms = oracles.spectral_norm_hermitian(h)
    for tau in (np.median(norms), norms.min(), norms.max() * 1.0001):
        want = norms < tau
        near = np.abs(norms - tau) < 1e-9 * tau  # too close to call in floating point
        got = certify._norms_below(np.moveaxis(h, (-2, -1), (0, 1)), tau)
        assert np.array_equal(got[~near], want[~near])
    assert not certify._norms_below(np.zeros((4, 4, 1), complex), 0.0)[0]


def test_norm_test_matches_the_stacked_oracle():
    # the batch-last pivots are the stacked kernel's, bit for bit, so every
    # verdict agrees, at thresholds equal to a norm as well
    start = np.arange(certify._CHI_GRID) * (math.pi / certify._CHI_GRID)
    lo = np.stack(np.meshgrid(start, start, start, indexing="ij"), axis=-1).reshape(-1, 3)
    width = np.full_like(lo, math.pi / certify._CHI_GRID)
    for errors, mmis in [(CHI_PLUS_ERRORS, PAPER_MMIS)] + random_chips(4):
        c = certify._chi_coefficients(certify._rotation_coefficients(
            errors, certify._resolve_mmis(mmis)))
        for b in certify._blocks(len(lo)):
            ops = certify._vertex_operators(c, lo[b], width[b])
            norms = oracles.spectral_norm_hermitian(matrices_last(ops))
            taus = [norms.min() * (1.0 - 1e-3), norms.max() * (1.0 + 1e-3)]
            taus += list(np.quantile(norms, [0.25, 0.5, 0.75], method="lower"))
            for tau in taus:
                got = certify._norms_below(ops, tau)
                assert np.array_equal(got, oracles.norms_below_stacked(matrices_last(ops), tau))
            assert got.any() and not got.all()  # the 0.75 quantile splits the block


@pytest.mark.parametrize("grid", [8, 32, 256])
def test_e_p_margin_covers_coarse_grids(grid, monkeypatch):
    # the reference's lower end is attained by the chip, so no bound may sit below it
    for errors, mmis in [(CHI_PLUS_ERRORS, PAPER_MMIS), (CHI_MINUS_ERRORS, None)] \
            + random_chips(4, seed=17):
        attained = bounds(errors, mmis)[1].lower
        with monkeypatch.context() as m:
            m.setattr(certify, "_EP_GRID", grid)
            coarse = certify.e_p(errors, mmis)
        assert coarse.lower <= attained <= coarse.upper
        assert coarse.cells == grid


def estimate(upper, lower, cells, angles, converged=True):
    return certify.CorrectionEstimate(value=upper, lower=lower, upper=upper, gap=upper - lower,
                                      cells=cells, angles=angles, converged=converged)


@pytest.mark.parametrize("chip", PROVEN_E_CHI)
def test_e_chi_estimates_are_pinned_exactly(chip):
    errors, mmis, *pinned = PROVEN_E_CHI[chip]
    assert bounds(errors, mmis)[0] == estimate(*pinned)


def test_random_chip_estimates_are_pinned_exactly():
    assert [bounds(*chip)[0] for chip in random_chips(4, seed=7)] == [
        estimate(*pinned) for pinned in RANDOM_E_CHI]


@pytest.mark.parametrize("chip, cap", CAPPED_E_CHI)
def test_capped_estimates_are_pinned_exactly(chip, cap, monkeypatch):
    errors, mmis, *proven = PROVEN_E_CHI[chip]
    pinned = CAPPED_E_CHI[chip, cap]
    monkeypatch.setattr(certify, "_MAX_CELLS", cap)
    want = estimate(*proven) if pinned is None else estimate(*pinned, converged=False)
    assert certify.e_chi(errors, mmis) == want


@pytest.mark.parametrize("errors, mmis, built, cells", [
    (CHI_PLUS_ERRORS, PAPER_MMIS, 1560, 2320), (CHI_PLUS_ERRORS, None, 10_808, 20_064)])
def test_only_cells_whose_apex_passes_get_all_27_vertices(errors, mmis, built, cells,
                                                           monkeypatch):
    # without the apex screen every tested cell gets them: 2,320 and 20,064
    sizes = []
    vertex_operators = certify._vertex_operators

    def counted(c, lo, width):
        sizes.append(len(lo))
        return vertex_operators(c, lo, width)

    monkeypatch.setattr(certify, "_vertex_operators", counted)
    est = certify.e_chi(errors, mmis)
    assert (sum(sizes), est.cells) == (built, cells)
    assert max(sizes) == certify._CELL_BLOCK


def test_apex_screen_keeps_exactly_the_cells_a_vertex_keeps():
    # a cell kept on its apex alone is kept by the 27-vertex rule too, and a
    # cell whose apex passes gets the whole rule: away from rounding ties at
    # the threshold, the keep masks are equal
    start = np.arange(certify._CHI_GRID) * (math.pi / certify._CHI_GRID)
    lo = np.stack(np.meshgrid(start, start, start, indexing="ij"), axis=-1).reshape(-1, 3)
    width = np.full_like(lo, math.pi / certify._CHI_GRID)
    chips = [(CHI_PLUS_ERRORS, PAPER_MMIS), (CHI_PLUS_ERRORS, None), (CHI_MINUS_ERRORS, None)]
    for errors, mmis in chips + random_chips(4):
        c = certify._chi_coefficients(certify._rotation_coefficients(
            errors, certify._resolve_mmis(mmis)))
        ops = certify._vertex_operators(c, lo, width)
        apex = certify._chi_operators(c, *certify._arc_points(lo, width)[..., 2].T[..., None])
        assert np.allclose(apex[..., 0], ops[..., -1], rtol=0.0, atol=1e-14)
        norms = oracles.spectral_norm_hermitian(matrices_last(ops))
        taus = [norms.min() * (1.0 - 1e-3), norms.max() * (1.0 + 1e-3)]
        taus += list(np.quantile(norms, [0.25, 0.5, 0.75]))
        by_apex = by_other_vertex = False
        for tau in taus:
            screened = certify._kept(c, lo, width, apex[..., 0], tau)
            below = certify._norms_below(ops, tau)
            assert np.array_equal(screened, ~np.all(below, axis=-1))
            by_apex |= bool(np.any(~below[:, -1]))
            by_other_vertex |= bool(np.any(below[:, -1] & ~np.all(below, axis=-1)))
        assert by_apex and by_other_vertex


def test_unclosed_proof_reports_unconverged_with_a_sound_bound(monkeypatch):
    closed = bounds(CHI_PLUS_ERRORS, PAPER_MMIS)[0]
    monkeypatch.setattr(certify, "_MAX_CELLS", 1000)  # 512 cells, then a larger round
    est = certify.e_chi(CHI_PLUS_ERRORS, PAPER_MMIS)
    assert not est.converged and est.cells == 512
    assert est.lower <= closed.lower <= est.upper
    assert est.upper > closed.upper and est.value == est.upper


def test_bounds_make_a_fixed_number_of_kernel_calls(monkeypatch):
    # the coefficients come from one kernel call per term, however many cells follow
    calls = []
    mzi = chip.mzi_matrix
    monkeypatch.setattr(chip, "mzi_matrix", lambda *args: calls.append(1) or mzi(*args))
    counts = []
    for term in (certify.e_chi, certify.e_p):
        for mmis in (PAPER_MMIS, None):
            calls.clear()
            term(CHI_MINUS_ERRORS, mmis)
            counts.append(len(calls))
    assert counts == [4] * 4


def test_bound_memory_is_blocked():
    # the 50:50 proof tests up to several thousand cells a round: the traced
    # peak is about 3.8 MB with 128-cell vertex blocks, and about 29 MB without
    tracemalloc.start()
    try:
        est = certify.e_chi(CHI_MINUS_ERRORS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.converged
    assert peak < 12e6, f"traced peak {peak / 1e6:.1f} MB"


def test_outcome_pairs_have_equal_operator_norms():
    # rank-1 projector differences: outcomes c and c+2 tie in exact arithmetic,
    # so ranking them by eigvalsh would pick by rounding noise
    rng = np.random.default_rng(223)
    angles = rng.uniform(0.0, math.pi, size=(2000, 2))
    for mmis in (None, PAPER_MMIS):
        tr = certify._resolve_mmis(mmis)
        norms = oracles.spectral_norm_hermitian(
            oracles.outcome_deviations(angles, CHI_PLUS_ERRORS, tr))
        np.testing.assert_allclose(norms[0], norms[2], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(norms[1], norms[3], rtol=0.0, atol=1e-12)


def test_angle_coefficients_rebuild_the_kernel_and_the_deviation_operators():
    # z = e^{2ip}: each set angle enters its stage once and linearly, so the
    # affine U_ab and the Hermitian-paired C_ab reproduce the kernel exactly
    rng = np.random.default_rng(229)
    signs = bell.CHSH_SIGNS.reshape(2, 2)
    for _ in range(12):
        errors = certify.PhaseErrorSet(dphi=tuple(rng.uniform(-0.25, 0.25, 4)),
                                       dtheta=tuple(rng.uniform(-0.25, 0.25, 4)))
        p_phi, p_theta = rng.uniform(0.3, 0.7, 2)
        tr = certify._resolve_mmis((optics.MmiParams.from_power(p_phi, 1.0 - p_phi),) * 2
                                   + (optics.MmiParams.from_power(p_theta, 1.0 - p_theta),) * 2)
        u = certify._rotation_coefficients(errors, tr)
        c = certify._chi_coefficients(u)
        angles = rng.uniform(0.0, math.pi, size=(200, 4))
        w = certify._powers(np.exp(2j * angles))

        rot = np.einsum("na,nb,sabij->snij", w[:, 0, 1:], w[:, 1, 1:], u)
        want = chip.rotation_matrix(*tr, *certify._stage_phases(angles[:, 0], angles[:, 1],
                                                                  errors))
        np.testing.assert_allclose(rot, want, rtol=0.0, atol=1e-13)
        proj = np.conj(rot[..., :, None]) * rot[..., None, :]  # U^dag |c><c| U per row c
        np.testing.assert_allclose(np.moveaxis(proj[0] - proj[1], -3, 0),
                                   oracles.outcome_deviations(angles[:, :2], errors, tr),
                                   rtol=0.0, atol=1e-13)
        chi = np.einsum("nia,ij,njb,abkl->nkl", w[:, :2], signs, w[:, 2:], c)
        np.testing.assert_allclose(chi, oracles.chi_deviation_operator(angles, errors, tr),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(c[::-1, ::-1], np.conj(np.swapaxes(c, -1, -2)),
                                   rtol=0.0, atol=1e-15)


def test_random_pure_states_keep_the_written_out_formula():
    # each sine is taken once, and every product keeps its order, so the
    # states equal the formula bit for bit
    got = oracles.random_pure_states(np.random.default_rng(233), 1000)
    rng = np.random.default_rng(233)
    a, b, c = (rng.uniform(0.0, math.pi / 2.0, size=1000) for _ in range(3))
    p1, p2, p3 = (rng.uniform(0.0, 2.0 * math.pi, size=1000) for _ in range(3))
    want = np.stack([np.cos(a) + 0j,
                     np.sin(a) * np.cos(b) * np.exp(1j * p1),
                     np.sin(a) * np.sin(b) * np.cos(c) * np.exp(1j * p2),
                     np.sin(a) * np.sin(b) * np.sin(c) * np.exp(1j * p3)], axis=-1)
    assert np.array_equal(got, want)


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
    # f runs from 1 at the classical bound to 1/2 at Tsirelson's; a chi below
    # 2 certifies nothing, and one beyond 2 sqrt 2 is refused before f
    assert certify.guessing_curve(2.0) == pytest.approx(1.0)
    assert certify.guessing_curve(2.0 * SQRT2) == pytest.approx(0.5)
    assert certify.guessing_probability(1.9, 0.0, 0.0) == 1.0
    with pytest.raises(ValueError, match="quantum bound"):
        bell.check_chi(2.9)


def test_guessing_curve_keeps_the_scalar_formula_bit_for_bit():
    def f(x):
        return 0.5 + 0.5 * math.sqrt(max(2.0 - x * x / 4.0, 0.0))

    xs = np.concatenate([np.linspace(1.5, 3.0, 2001), [2.0, 2.0 * SQRT2, 2.697 - 0.092]])
    assert [float(y) for y in certify.guessing_curve(xs)] == [f(float(x)) for x in xs]
    assert float(certify.guessing_curve(2.5)) == f(2.5)
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
