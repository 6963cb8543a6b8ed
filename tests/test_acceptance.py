"""Acceptance suite: one test per release criterion, each printing a verdict.

Every test prints ``criterion N PASS/FAIL: detail`` on the real stdout so a
``pytest tests/test_acceptance.py -v`` run doubles as a checklist, then
asserts.  Stated runtime budgets are asserted alongside the numerics.
"""

import math
import sys
import time

import numpy as np
from scipy import stats

import oracles
from pathqrng import bell, certify, chip, events

PHI_GRID = np.linspace(-2.0, 2.0, 41)
THETA_GRID = np.linspace(-2.0, 0.0, 21)

CHI_PLUS_ANGLES = (-0.576, -1.445, -1.11, -1.87)
CHI_PLUS_ERRORS = certify.PhaseErrorSet((0.000, 0.011, -0.004, -0.006),
                                        (0.068, 0.216, 0.036, 0.215))
CHI_MINUS_ERRORS = certify.PhaseErrorSet((0.002, 0.004, 0.007, -0.006),
                                         (0.068, 0.187, 0.036, 0.180))


def verdict(num, passed, detail):
    word = "PASS" if passed else "FAIL"
    print(f"criterion {num} {word}: {detail}", file=sys.__stdout__)
    assert passed, f"criterion {num}: {detail}"


def surface(cfg):
    """E over the 41x21 grid from one batched chip call."""
    dists = chip.broadband_probabilities(cfg, PHI_GRID[:, None], THETA_GRID[None, :])
    return bell.correlation_coefficient(dists)


def stream_chi(streams):
    es = []
    for s in streams:
        counts = np.bincount(s.channels, minlength=4)
        es.append(bell.correlation_coefficient(counts / counts.sum()))
    return es[0] - es[1] + es[2] + es[3]


def test_criterion_1_ideal_chip_analytic_equivalence():
    t0 = time.perf_counter()
    e = surface(chip.ChipConfig())
    target = np.cos(2.0 * (PHI_GRID[:, None] - THETA_GRID[None, :]))
    worst = float(np.max(np.abs(e - target)))
    elapsed = time.perf_counter() - t0
    verdict(1, worst <= 1e-9 and elapsed < 1.0,
            f"max |E - cos 2(phi-theta)| = {worst:.2e} on 41x21 grid in {elapsed:.2f} s")


def test_criterion_2_chi_alpha_curve():
    rng = np.random.default_rng(191)
    worst = 0.0
    for alpha in rng.uniform(-math.pi, math.pi, size=1000):
        phi, phip, th, thp = oracles.alpha_angles(alpha)
        e = lambda a, t: math.cos(2.0 * (a - t))
        via_coeffs = bell.chi_from_coefficients(e(phi, th), e(phi, thp),
                                                e(phip, th), e(phip, thp))
        worst = max(worst, abs(via_coeffs - bell.chi_alpha_ideal(alpha)))
    peak_err = abs(bell.chi_alpha_ideal(math.pi / 4.0) - 2.0 * math.sqrt(2.0))
    verdict(2, worst <= 1e-12 and peak_err <= 1e-9,
            f"construction vs closed form: max diff {worst:.2e} over 1000 alphas, "
            f"|chi(pi/4) - 2 sqrt 2| = {peak_err:.2e}")


def test_criterion_3_unbalanced_closed_form():
    e = surface(chip.ChipConfig.unbalanced())
    target = np.array([[oracles.unbalanced_correlation(p, t) for t in THETA_GRID]
                       for p in PHI_GRID])
    worst = float(np.max(np.abs(e - target)))
    grid = bell.CorrelationGrid(tuple(PHI_GRID), tuple(THETA_GRID), e)
    best, _ = bell.best_combination_search(grid)
    verdict(3, worst <= 1e-9 and best.chi > 2.6,
            f"40:60 surface vs closed form: max diff {worst:.2e}; "
            f"grid-best chi = {best.chi:.4f} > 2.6")


def test_criterion_4_nearest_factorized_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        d = rng.uniform(-0.25, 0.25, size=4)
        closed = certify.nearest_factorized(d).distance
        brute = oracles.factorized_distance_bruteforce(d, restarts=4, seed=1)
        worst = max(worst, abs(closed - brute))
    elapsed = time.perf_counter() - t0
    verdict(4, worst <= 1e-6 and elapsed < 30.0,
            f"closed form vs brute force: max diff {worst:.2e} "
            f"over 100 error sets in {elapsed:.1f} s")


def test_criterion_5_first_order_distance_bound():
    rng = np.random.default_rng(55)
    worst_slack = -np.inf
    ok = True
    for _ in range(1000):
        eps = float(rng.uniform(1e-4, 0.05))
        d = rng.uniform(-eps, eps, size=4)
        dist = certify.nearest_factorized(d).distance
        bound = 4.0 * eps * (1.0 + 5.0 * eps)
        ok &= dist <= bound + 1e-12
        worst_slack = max(worst_slack, dist - 4.0 * eps)
    verdict(5, ok, f"distance <= 4 eps (1 + 5 eps) on 1000 sets with eps <= 0.05; "
            f"worst excess over 4 eps = {worst_slack:.2e}")


def test_criterion_6_correction_terms():
    t0 = time.perf_counter()
    got = {
        "e_chi+": certify.e_chi(CHI_PLUS_ERRORS).value,
        "e_p+": certify.e_p(CHI_PLUS_ERRORS).value,
        "e_chi-": certify.e_chi(CHI_MINUS_ERRORS).value,
        "e_p-": certify.e_p(CHI_MINUS_ERRORS).value,
    }
    windows = {"e_chi+": (0.092, 0.010), "e_chi-": (0.077, 0.010),
               "e_p+": (0.02, 0.008), "e_p-": (0.014, 0.008)}
    elapsed = time.perf_counter() - t0
    ok = all(abs(got[k] - c) <= w for k, (c, w) in windows.items()) and elapsed < 300.0
    detail = ", ".join(f"{k} = {v:.4f} (want {windows[k][0]} +- {windows[k][1]})"
                       for k, v in got.items())
    verdict(6, ok, f"{detail}; {elapsed:.0f} s")


def test_criterion_7_certification_arithmetic():
    p_plus = certify.guessing_probability(2.697, 0.092, 0.02)
    p_minus = certify.guessing_probability(2.668, 0.077, 0.014)
    bits, percent = certify.min_entropy(p_plus)
    rate = certify.certified_rate(120_000.0, 0.33)
    ok = (abs(p_plus - 0.7955) <= 5e-4
          and abs(p_minus - 0.7976) <= 5e-4
          and 32.9 <= round(percent, 1) <= 33.0
          and rate == 39600.0)
    verdict(7, ok, f"P_guess = {p_plus:.4f} / {p_minus:.4f}, "
            f"H_min = {percent:.2f}% (display {round(percent, 1)}), "
            f"rate = {rate:.0f} bits/s")


def test_criterion_8_monte_carlo_bell_test():
    t0 = time.perf_counter()
    cfg = chip.ChipConfig.unbalanced()
    phi, phip, th, thp = CHI_PLUS_ANGLES
    pairs = [(phi, th), (phi, thp), (phip, th), (phip, thp)]
    dists = [chip.broadband_probabilities(cfg, p, t) for p, t in pairs]
    es0 = [bell.correlation_coefficient(d) for d in dists]
    chi0 = es0[0] - es0[1] + es0[2] + es0[3]

    chis, stderrs = [], []
    for rep in range(20):
        streams = [events.simulate_events(dists[i], 1.2e5, 1.0, seed=9000 + 4 * rep + i,
                                          phi=p, theta=t)
                   for i, (p, t) in enumerate(pairs)]
        chis.append(stream_chi(streams))
        stderrs.append(oracles.chi_stderr(streams))
    chis = np.asarray(chis)
    max_dev = float(np.max(np.abs(chis - chi0)))
    t_stat = 19.0 * chis.var(ddof=1) / float(np.mean(stderrs)) ** 2
    p_two = 2.0 * min(stats.chi2.cdf(t_stat, 19), stats.chi2.sf(t_stat, 19))
    elapsed = time.perf_counter() - t0
    verdict(8, max_dev <= 0.03 and p_two > 0.01 and elapsed < 60.0,
            f"noiseless chi = {chi0:.4f}; 20 seeds max |dev| = {max_dev:.4f} <= 0.03, "
            f"stderr consistency p = {p_two:.3f}; {elapsed:.0f} s")


def test_criterion_9_windowed_coverage():
    cfg = chip.ChipConfig.unbalanced()
    phi, phip, th, thp = CHI_PLUS_ANGLES
    pairs = [(phi, th), (phi, thp), (phip, th), (phip, thp)]
    dists = [chip.broadband_probabilities(cfg, p, t) for p, t in pairs]
    es0 = [bell.correlation_coefficient(d) for d in dists]
    chi_inf = es0[0] - es0[1] + es0[2] + es0[3]

    covered = 0
    windows_ok = True
    for rep in range(100):
        streams = [events.simulate_events(dists[i], 1.2e5, 1.0, seed=40_000 + 4 * rep + i)
                   for i in range(4)]
        trace = events.windowed_traces(streams, window_s=0.05, confidence=0.99)
        windows_ok &= trace.n_windows == 20
        covered += trace.ci_low <= chi_inf <= trace.ci_high
    verdict(9, windows_ok and covered >= 95,
            f"20 windows per run; 99% interval covered the asymptotic chi "
            f"in {covered}/100 runs")


def test_criterion_10_guessing_bound_concavity():
    # consecutive disjoint sample pairs (x, y), each on a 21-point lambda
    # grid: f(lambda x + (1 - lambda) y) >= lambda f(x) + (1 - lambda) f(y)
    rng = np.random.default_rng(77)
    samples = rng.uniform(2.0, 2.0 * math.sqrt(2.0), size=2000)
    x, y = samples[0::2], samples[1::2]
    lam = np.linspace(0.0, 1.0, 21)[:, None]
    f = certify.guessing_curve
    margins = f(lam * x + (1.0 - lam) * y) - (lam * f(x) + (1.0 - lam) * f(y))
    worst = float(margins.min())
    verdict(10, x.size == 1000 and worst >= -1e-12,
            f"{x.size} pairs, worst chord margin {worst:.2e}")


def test_criterion_11_extractor_plumbing():
    dist = chip.broadband_probabilities(chip.ChipConfig.unbalanced(), -0.576, -1.11)
    stream = events.simulate_events(dist, 1.2e5, 1.0, seed=2468)
    bits = events.raw_bits(events.bin_and_resolve(stream))
    out = events.toeplitz_extract(bits, 0.33, seed=99)
    again = events.toeplitz_extract(bits, 0.33, seed=99)

    m = out.size
    z_freq = (2.0 * int(out.sum()) - m) / math.sqrt(m)
    equal_pairs = int(np.sum(out[1:] == out[:-1]))
    z_serial = (equal_pairs - (m - 1) / 2.0) / math.sqrt((m - 1) / 4.0)
    verdict(11, np.array_equal(out, again) and abs(z_freq) < 4.0 and abs(z_serial) < 4.0,
            f"{m} extracted bits, deterministic re-run identical, "
            f"z_freq = {z_freq:+.2f}, z_serial = {z_serial:+.2f}")
