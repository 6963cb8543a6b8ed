import math
import tracemalloc

import numpy as np
import pytest
from scipy import optimize

import oracles
from pathqrng import bell, chip, events

SQRT2 = math.sqrt(2.0)
COS45 = math.cos(math.pi / 4.0)


def make_stream(sub_counts, negate=False, subinterval_s=0.2):
    """Synthetic stream with exact (plus, minus) counts per subinterval.

    Plus counts land on UF, minus counts on UN; ``negate`` swaps them so the
    stream's correlation coefficient changes sign.
    """
    ts = []
    ch = []
    sub_ns = int(subinterval_s * 1e9)
    for k, (n_plus, n_minus) in enumerate(sub_counts):
        n = n_plus + n_minus
        base = k * sub_ns
        step = sub_ns // n
        for i in range(n):
            ts.append(base + i * step)
            plus = i < n_plus
            if negate:
                plus = not plus
            ch.append(0 if plus else 1)
    return events.EventStream(
        header=events.StreamHeader(
            phi=0.0,
            theta=0.0,
            duration_s=subinterval_s * len(sub_counts),
            bin_width_us=1.0,
            seed=0,
        ),
        timestamps_ns=np.array(ts, dtype=np.int64),
        channels=np.array(ch, dtype=np.uint8),
    )


def test_correlation_coefficient_basic():
    assert bell.correlation_coefficient([1.0, 0.0, 0.0, 0.0]) == 1.0
    assert bell.correlation_coefficient([0.25, 0.25, 0.25, 0.25]) == 0.0
    p = chip.broadband_probabilities(chip.ChipConfig(), 0.3, 0.1)
    assert bell.correlation_coefficient(p) == pytest.approx(math.cos(0.4), abs=1e-12)


def test_correlation_coefficient_broadcasts_in_operand_order():
    rng = np.random.default_rng(43)
    p = rng.dirichlet(np.ones(4), size=(3, 5))
    e = bell.correlation_coefficient(p)
    assert e.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        v = p[idx]
        # bit for bit the scalar formula, summed in the documented order
        assert e[idx] == v[0] + v[3] - v[1] - v[2]
        assert e[idx] == bell.correlation_coefficient(v)
    assert isinstance(bell.correlation_coefficient(p[0, 0]), float)
    with pytest.raises(ValueError):
        bell.correlation_coefficient([0.5, 0.5, 0.0])


def test_chi_from_coefficients():
    assert bell.chi_from_coefficients(1.0, 1.0, 1.0, 1.0) == pytest.approx(2.0)
    assert bell.chi_from_coefficients(COS45, -COS45, COS45, COS45) == pytest.approx(
        2.0 * SQRT2
    )
    assert bell.chi_from_coefficients(0.674, -0.675, 0.674, 0.674) == pytest.approx(
        2.697
    )
    with pytest.raises(ValueError):
        bell.chi_from_coefficients(1.2, 0.0, 0.0, 0.0)


def test_chi_alpha_ideal_values():
    assert bell.chi_alpha_ideal(0.0) == pytest.approx(2.0)
    assert bell.chi_alpha_ideal(math.pi / 4.0) == pytest.approx(2.0 * SQRT2)
    assert bell.chi_alpha_ideal(math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_chi_alpha_matches_coefficient_combination():
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(-math.pi, math.pi, size=100):
        phi, phi2, theta, theta2 = oracles.alpha_angles(alpha)
        coeffs = [
            math.cos(2.0 * (phi - theta)),
            math.cos(2.0 * (phi - theta2)),
            math.cos(2.0 * (phi2 - theta)),
            math.cos(2.0 * (phi2 - theta2)),
        ]
        got = bell.chi_from_coefficients(*coeffs)
        assert got == pytest.approx(bell.chi_alpha_ideal(alpha), abs=1e-12)
        # the wider parameterization (-a, a, 0, 2a) traces the same curve
        # at twice the parameter
        wide = bell.chi_from_coefficients(
            math.cos(2.0 * (-alpha - 0.0)),
            math.cos(2.0 * (-alpha - 2.0 * alpha)),
            math.cos(2.0 * (alpha - 0.0)),
            math.cos(2.0 * (alpha - 2.0 * alpha)),
        )
        assert wide == pytest.approx(bell.chi_alpha_ideal(2.0 * alpha), abs=1e-12)


def test_chi_alpha_maximum():
    res = optimize.minimize_scalar(
        lambda a: -bell.chi_alpha_ideal(a),
        bounds=(0.0, math.pi / 2.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert -res.fun == pytest.approx(2.0 * SQRT2, abs=1e-9)
    assert res.x == pytest.approx(math.pi / 4.0, abs=1e-6)


def test_unbalanced_correlation_closed_point():
    want = (2645.0 - 192.0 * math.sqrt(6.0)) / 3125.0
    assert oracles.unbalanced_correlation(0.0, 0.0) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(0.6959, abs=5e-5)


def test_unbalanced_correlation_linear_in_eta():
    rng = np.random.default_rng(11)
    for _ in range(10):
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        base = oracles.unbalanced_correlation(phi, theta, eta=1.0 / 3125.0)
        scaled = oracles.unbalanced_correlation(phi, theta, eta=3.01e-4)
        assert scaled == pytest.approx(base * 3.01e-4 * 3125.0, rel=1e-12)


def test_unbalanced_correlation_matches_simulation():
    cfg = chip.ChipConfig.unbalanced()
    worst = 0.0
    for phi in np.linspace(-2.0, 2.0, 9):
        for theta in np.linspace(-2.0, 2.0, 9):
            p = chip.broadband_probabilities(cfg, phi, theta)
            sim = bell.correlation_coefficient(p)
            worst = max(worst, abs(sim - oracles.unbalanced_correlation(phi, theta)))
    assert worst < 1e-9


def test_correlation_grid_validation():
    phis = (0.0, 1.0)
    thetas = (0.0, 1.0)
    bell.CorrelationGrid(phis, thetas, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bell.CorrelationGrid(phis, thetas, np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        bell.CorrelationGrid(phis, thetas, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        bell.CorrelationGrid(
            phis, thetas, np.zeros((2, 2)), stderr=np.zeros((3, 3))
        )
    # NaN cells are allowed (discarded acquisitions)
    e = np.zeros((2, 2))
    e[0, 0] = np.nan
    bell.CorrelationGrid(phis, thetas, e)


def test_chi_result_validation():
    bell.ChiResult(2.82, (0.0, 1.0, 0.0, 1.0), stderr=0.004, sign="max")
    bell.ChiResult(2.84, (0.0, 1.0, 0.0, 1.0), stderr=0.01, sign="max")
    with pytest.raises(ValueError):
        bell.ChiResult(2.9, (0.0, 1.0, 0.0, 1.0), stderr=0.0, sign="max")


@pytest.mark.parametrize("chi, stderr", [
    (5.0, 0.0), (-3.5, 0.0), (math.inf, 0.0), (math.nan, 0.0), (2.9, 0.001), (2.84, 0.0),
    (2.7, math.nan), (2.7, math.inf), (2.7, -0.01),
])
def test_check_chi_rejects_impossible_values(chi, stderr):
    with pytest.raises(ValueError):
        bell.check_chi(chi, stderr)
    with pytest.raises(ValueError):
        bell.ChiResult(chi, (0.0, 1.0, 0.0, 1.0), stderr=stderr)


def test_check_chi_accepts_slack_within_three_stderr():
    bell.check_chi(-2.84, 0.01)
    bell.check_chi(2.9, 0.03)
    bell.check_chi(2.0 * SQRT2)
    bell.check_chi(0.0)


def test_best_combination_two_by_two_enumeration():
    e = np.array([[0.6, -0.5], [0.4, 0.55]])
    grid = bell.CorrelationGrid((0.0, 1.0), (0.0, 1.0), e)
    top, bottom = bell.best_combination_search(grid)
    candidates = []
    for minus in range(4):
        coeffs = [e[0, 0], e[0, 1], e[1, 0], e[1, 1]]
        chi = sum(c * (-1.0 if k == minus else 1.0) for k, c in enumerate(coeffs))
        candidates.append(chi)
    assert top.chi == pytest.approx(max(candidates))
    assert bottom.chi == pytest.approx(min(candidates))
    assert top.sign == "max" and bottom.sign == "min"


def test_best_combination_ideal_grid_near_quantum_bound():
    phis = np.linspace(-2.0, 2.0, 41)
    thetas = np.linspace(-2.0, 0.0, 21)
    e = np.cos(2.0 * (phis[:, None] - thetas[None, :]))
    grid = bell.CorrelationGrid(tuple(phis), tuple(thetas), e)
    top, bottom = bell.best_combination_search(grid)
    assert top.chi == pytest.approx(2.827513843582742, abs=1e-12)
    assert abs(top.chi - 2.0 * SQRT2) < 1.2e-3
    assert bottom.chi == pytest.approx(-2.8251377612932687, abs=1e-12)
    assert top.chi <= 2.0 * SQRT2 + 1e-9


def test_best_combination_never_beats_quantum_bound():
    rng = np.random.default_rng(17)
    for _ in range(5):
        psi = oracles.random_pure_state(4, rng)
        phis = np.sort(rng.uniform(-2.0, 2.0, size=4))
        thetas = np.sort(rng.uniform(-2.0, 2.0, size=4))
        # ideal rotations of an arbitrary pure state, every (phi, theta) in one call
        ideal = np.full(4, 2.0 ** -0.5)
        u = chip.rotation_matrix(ideal, ideal,
                                 chip.shifter_phases(phis[:, None], (0.0,) * 4),
                                 chip.shifter_phases(thetas[None, :], (0.0,) * 4))
        e = bell.correlation_coefficient(np.abs(u @ psi) ** 2)
        grid = bell.CorrelationGrid(tuple(phis), tuple(thetas), e)
        top, bottom = bell.best_combination_search(grid)
        assert top.chi <= 2.0 * SQRT2 + 1e-9
        assert bottom.chi >= -2.0 * SQRT2 - 1e-9


def test_best_combination_stderr_propagation():
    e = np.array([[0.6, -0.5], [0.4, 0.55]])
    se = np.full((2, 2), 0.01)
    grid = bell.CorrelationGrid((0.0, 1.0), (0.0, 1.0), e, stderr=se)
    top, _ = bell.best_combination_search(grid)
    assert top.stderr == pytest.approx(0.02)


def test_best_combination_skips_nan_quads():
    e = np.array([[0.65, -0.65], [0.65, 0.65], [np.nan, 0.8]])
    grid = bell.CorrelationGrid((0.0, 1.0, 2.0), (0.0, 1.0), e)
    top, _ = bell.best_combination_search(grid)
    # any quad touching the nan row is excluded
    assert 2.0 not in top.angles[:2]
    assert top.chi == pytest.approx(4.0 * 0.65)


def test_best_combination_tie_breaks_lexicographic():
    grid = bell.CorrelationGrid(
        (0.0, 1.0, 2.0), (0.0, 1.0), np.full((3, 2), 0.5)
    )
    top, bottom = bell.best_combination_search(grid)
    assert top.chi == pytest.approx(1.0)
    assert top.angles == (0.0, 1.0, 0.0, 1.0)
    assert bottom.angles == (0.0, 1.0, 0.0, 1.0)


def test_best_combination_degenerate_grid():
    with pytest.raises(ValueError):
        bell.best_combination_search(
            bell.CorrelationGrid((0.0,), (0.0, 1.0), np.zeros((1, 2)))
        )
    all_nan = bell.CorrelationGrid(
        (0.0, 1.0), (0.0, 1.0), np.full((2, 2), np.nan)
    )
    with pytest.raises(ValueError):
        bell.best_combination_search(all_nan)


def assert_search_matches_loop(grid):
    """The search and the loop oracle agree exactly, or raise the same error."""
    try:
        want = oracles.best_combination_search_loop(grid)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            bell.best_combination_search(grid)
        assert str(got.value) == str(exc)
        return
    got = bell.best_combination_search(grid)
    assert got == want
    # == sees -0.0 and 0.0 as equal; the written angles must not differ either
    assert [repr(tuple(map(float, r.angles))) for r in got] == \
        [repr(tuple(map(float, r.angles))) for r in want]


def paper_like_grid():
    """41x21 grid of the 40:60 closed form with shot noise and its stderr."""
    rng = np.random.default_rng(2605)
    phis = np.linspace(-2.0, 2.0, 41)
    thetas = np.linspace(-2.0, 0.0, 21)
    e = np.array([[oracles.unbalanced_correlation(p, t, 0.93 / 3125.0) for t in thetas]
                  for p in phis])
    se = np.sqrt((1.0 - e * e) / 60_000.0)
    e = np.clip(e + rng.normal(scale=se), -1.0, 1.0)
    return bell.CorrelationGrid(tuple(phis), tuple(thetas), e, stderr=se)


def cos_grid():
    phis = np.linspace(-2.0, 2.0, 41)
    thetas = np.linspace(-2.0, 0.0, 21)
    e = np.cos(2.0 * (phis[:, None] - thetas[None, :]))
    return bell.CorrelationGrid(tuple(phis), tuple(thetas), e)


@pytest.mark.parametrize("make_grid", [cos_grid, paper_like_grid])
def test_best_combination_matches_loop_oracle_41x21(make_grid):
    assert_search_matches_loop(make_grid())


def test_best_combination_matches_loop_oracle_on_tied_grids():
    """E on multiples of 0.5 ties chi within and across placements; unsorted
    and repeated angles (with -0.0 next to 0.0) exercise the tie-break."""
    rng = np.random.default_rng(1969)
    for k in range(240):
        n_phi, n_theta = int(rng.integers(2, 13)), int(rng.integers(2, 10))
        if k % 3 == 0:
            phis = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5], size=n_phi)
            thetas = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=n_theta)
        else:
            phis = rng.permutation(n_phi) * 0.25 - 1.0
            thetas = rng.permutation(n_theta) * 0.5
        e = rng.integers(-2, 3, size=(n_phi, n_theta)) * 0.5
        e[rng.random(e.shape) < rng.uniform(0.0, 0.5)] = np.nan
        se = None
        if k % 2:
            se = rng.integers(0, 4, size=e.shape) * 0.01
            # cells without E may carry anything
            se[np.isnan(e)] = rng.choice([np.nan, -1.0, np.inf])
        assert_search_matches_loop(bell.CorrelationGrid(tuple(phis), tuple(thetas), e, se))


def test_best_combination_no_complete_quad_matches_loop():
    e = np.array([[0.5, np.nan, 0.5], [np.nan, 0.5, np.nan], [0.5, np.nan, np.nan]])
    grid = bell.CorrelationGrid((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), e)
    with pytest.raises(ValueError, match="no complete angle combination"):
        bell.best_combination_search(grid)
    assert_search_matches_loop(grid)


def test_best_combination_memory_is_blocked():
    """A 41x21 search holds one phi block at a time, not all 172,200 x 4 chi."""
    grid = paper_like_grid()
    bell.best_combination_search(grid)
    tracemalloc.start()
    try:
        bell.best_combination_search(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("bad", [np.nan, -0.01, np.inf])
def test_correlation_grid_rejects_bad_stderr_on_data_cells(bad):
    e = [[0.6, -0.5], [0.4, 0.55]]
    se = np.array([[0.01, bad], [0.01, 0.01]])
    with pytest.raises(ValueError, match="stderr .* at phi=0.0 theta=1.0"):
        bell.CorrelationGrid((0.0, 1.0), (0.0, 1.0), e, stderr=se)
    # a cell without E has no stderr to check
    e[0][1] = np.nan
    bell.CorrelationGrid((0.0, 1.0), (0.0, 1.0), e, stderr=se)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, 1.5])
def test_correlation_grid_rejects_infinite_or_out_of_range_e(bad):
    # NaN alone marks a missing cell; an infinite E is named with its cell
    e = np.array([[0.6, bad], [0.4, np.nan]])
    with pytest.raises(ValueError, match=r"coefficient .* at phi=0.0 theta=1.0 outside \[-1, 1\]"):
        bell.CorrelationGrid((0.0, 1.0), (0.0, 1.0), e)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_correlation_grid_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="angles must be finite"):
        bell.CorrelationGrid((0.0, bad), (0.0, 1.0), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="angles must be finite"):
        bell.CorrelationGrid((0.0, 1.0), (bad, 1.0), np.zeros((2, 2)))


def test_chi_stderr_zero_variance():
    streams = [
        make_stream([(165, 35), (165, 35)], negate=(k == 1)) for k in range(4)
    ]
    assert oracles.chi_stderr(streams) == pytest.approx(0.0, abs=1e-15)


def test_chi_stderr_two_subintervals():
    # per-subinterval chi of 2.6 then 2.7 across the four streams
    streams = [
        make_stream([(165, 35), (335, 65)], negate=(k == 1)) for k in range(4)
    ]
    assert oracles.chi_stderr(streams) == pytest.approx(0.05, abs=1e-12)


def test_chi_stderr_simulated_magnitude():
    cfg = chip.ChipConfig.unbalanced()
    angles = (-0.576, -1.445, -1.11, -1.87)
    pairs = [
        (angles[0], angles[2]),
        (angles[0], angles[3]),
        (angles[1], angles[2]),
        (angles[1], angles[3]),
    ]
    streams = []
    for k, (phi, theta) in enumerate(pairs):
        p = chip.broadband_probabilities(cfg, phi, theta)
        streams.append(
            events.simulate_events(p, 120000.0, 1.0, seed=100 + k, phi=phi, theta=theta)
        )
    se = oracles.chi_stderr(streams)
    assert 0.001 < se < 0.03


def test_chi_stderr_and_windowed_traces_share_integer_windows():
    # 1/3 s windows are 333 333 333 ns wide; the record at that instant
    # opens window 1 (a float width of 333 333 333.3 ns would put it in 0)
    ts = np.array([0, 333_333_333, 400_000_000, 500_000_000, 700_000_000], dtype=np.int64)
    ch = np.array([0, 1, 0, 0, 0], dtype=np.uint8)
    header = events.StreamHeader(phi=0.0, theta=0.0, duration_s=1.0, bin_width_us=1.0, seed=0)
    streams = [events.EventStream(header, ts, ch) for _ in range(4)]
    trace = events.windowed_traces(streams, window_s=1.0 / 3.0)
    np.testing.assert_allclose(trace.probabilities[0, :, :2], [[1.0, 0.0], [2 / 3, 1 / 3],
                                                              [1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(trace.correlations, [[1.0, 1 / 3, 1.0]] * 4, atol=1e-15)
    np.testing.assert_allclose(trace.chi_values, [2.0, 2 / 3, 2.0], atol=1e-15)
    want = float(np.std([2.0, 2 / 3, 2.0], ddof=1)) / math.sqrt(3.0)
    assert oracles.chi_stderr(streams, 1.0 / 3.0) == pytest.approx(want, abs=1e-15)


def test_chi_stderr_error_paths():
    short = [make_stream([(50, 10)]) for _ in range(4)]
    with pytest.raises(ValueError):
        oracles.chi_stderr(short)
    with pytest.raises(ValueError):
        oracles.chi_stderr([make_stream([(50, 10), (50, 10)])] * 3)
