import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from pathqrng import chip, formats, optics

INV_SQRT2 = 2.0 ** -0.5
IDEAL = np.full(4, INV_SQRT2)  # t and r of four ideal 50:50 MZIs
ZERO4 = (0.0, 0.0, 0.0, 0.0)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
MINUS_XX = -np.kron(oracles.SX, oracles.SX)


def correlation(p):
    """E from a basis-order distribution: P(UF) + P(DN) - P(UN) - P(DF)."""
    return p[0] + p[3] - p[1] - p[2]


def split_phases(angle1, angle2, offsets):
    """(4,) shifter phases of one stage with set phases (angle1, angle2) on both branches."""
    return np.array([angle1, angle2, angle1, angle2]) + np.asarray(offsets, dtype=float)


def rotation(phi1, phi2, theta1, theta2, dphi=ZERO4, dtheta=ZERO4):
    """The kernel's rotation operator of one setting with ideal splitters."""
    return chip.rotation_matrix(IDEAL, IDEAL, split_phases(phi1, phi2, dphi),
                                split_phases(theta1, theta2, dtheta))


def probabilities(cfg, phi, theta, dphi=ZERO4, dtheta=ZERO4):
    """``broadband_probabilities`` of ``cfg`` with its phase errors replaced."""
    errors = chip.PhaseErrorSet(dphi, dtheta)
    return chip.broadband_probabilities(dataclasses.replace(cfg, errors=errors), phi, theta)


def ideal_product(phi, theta):
    """The error-free product rotation A(theta) (x) B(phi), by hand."""
    return oracles.kron_by_hand(oracles.mzi_by_product(theta, 0.0),
                                oracles.mzi_by_product(phi, 0.0))


def single_node(cfg, wavelength_nm):
    """``cfg`` with its spectrum replaced by one node at ``wavelength_nm``."""
    return dataclasses.replace(cfg, spectrum=optics.WavelengthSpectrum.single(wavelength_nm))


def test_chip_config_holds_only_what_an_output_depends_on():
    # a loss common to every path, or a phase common to the whole state,
    # changes no normalized click probability, so the chip carries neither
    assert [f.name for f in dataclasses.fields(chip.ChipConfig)] == [
        "generation_mmi", "mzi_mmis", "xi", "spectrum", "phase_dispersion", "errors"]
    for xi in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="xi must be finite"):
            chip.ChipConfig(xi=xi)


def test_generation_state_ideal_phases():
    np.testing.assert_allclose(
        chip.generation_state(-math.pi / 2.0),
        PHI_PLUS,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        chip.generation_state(math.pi / 2.0),
        np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
        atol=1e-15,
    )


def test_generation_state_unbalanced():
    psi = chip.generation_state(0.0, optics.MmiParams.from_power(0.4, 0.6))
    want = np.array([math.sqrt(0.4), 0.0, 0.0, 1j * math.sqrt(0.6)])
    np.testing.assert_allclose(psi, want, atol=1e-15)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_generation_state_degenerate():
    with pytest.raises(ValueError):
        chip.generation_state(-math.pi / 2.0, optics.MmiParams(t=0.0, r=0.0))


def test_rotation_ideal_cross_point():
    np.testing.assert_allclose(rotation(0.0, 0.0, 0.0, 0.0), MINUS_XX, atol=1e-15)


def test_rotation_ideal_is_product_and_unitary():
    rng = np.random.default_rng(19)
    for _ in range(100):
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        u = rotation(phi, 0.0, theta, 0.0)
        assert oracles.is_unitary(u)
        np.testing.assert_allclose(u, ideal_product(phi, theta), atol=1e-12)


def test_rotation_stage_block_structure():
    # a fully transmitting splitter (t = 1, r = 0) at zero phase makes an
    # identity MZI, so switching one stage off isolates the other
    d = (0.01, -0.02, 0.03, 0.0)
    ideal, off = (INV_SQRT2, INV_SQRT2), (1.0, 0.0)
    t = (ideal[0], ideal[0], off[0], off[0])
    r = (ideal[1], ideal[1], off[1], off[1])
    rel = chip.rotation_matrix(t, r, split_phases(0.4, 0.1, d), np.zeros(4))
    top = oracles.mzi_by_product(0.4 + d[0], 0.1 + d[1])
    bot = oracles.mzi_by_product(0.4 + d[2], 0.1 + d[3])
    np.testing.assert_allclose(rel[0:2, 0:2], top, atol=1e-14)
    np.testing.assert_allclose(rel[2:4, 2:4], bot, atol=1e-14)
    assert np.max(np.abs(rel[0:2, 2:4])) == 0.0

    ab = chip.rotation_matrix(t[::-1], r[::-1], np.zeros(4), split_phases(-0.7, 0.2, d))
    far = oracles.mzi_by_product(-0.7 + d[0], 0.2 + d[1])
    near = oracles.mzi_by_product(-0.7 + d[2], 0.2 + d[3])
    np.testing.assert_allclose(ab[0::2, 0::2], far, atol=1e-14)
    np.testing.assert_allclose(ab[1::2, 1::2], near, atol=1e-14)
    assert np.max(np.abs(ab[0::2, 1::2])) == 0.0


def test_rotation_real_zero_errors_factorizes():
    rng = np.random.default_rng(23)
    for _ in range(10):
        phi1, phi2, theta1, theta2 = rng.uniform(-2.0, 2.0, size=4)
        want = oracles.kron_by_hand(oracles.mzi_by_product(theta1, theta2),
                                    oracles.mzi_by_product(phi1, phi2))
        np.testing.assert_allclose(rotation(phi1, phi2, theta1, theta2), want, atol=1e-12)


def test_rotation_real_common_mode_errors_shift_angle_and_phase():
    rng = np.random.default_rng(29)
    for _ in range(10):
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        a, b, c, d = rng.uniform(-0.2, 0.2, size=4)
        got = rotation(phi, 0.0, theta, 0.0, dphi=(a, b, a, b), dtheta=(c, d, c, d))
        want = (
            np.exp(2j * b)
            * np.exp(2j * d)
            * ideal_product(phi + a - b, theta + c - d)
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotation_real_random_errors_unitary():
    rng = np.random.default_rng(31)
    for _ in range(25):
        u = rotation(rng.uniform(-2.0, 2.0), 0.0, rng.uniform(-2.0, 2.0), 0.0,
                     dphi=tuple(rng.uniform(-0.05, 0.05, size=4)),
                     dtheta=tuple(rng.uniform(-0.05, 0.05, size=4)))
        assert oracles.is_unitary(u)


def random_mzi_amplitudes(rng, shape=()):
    """(t, r), each shape + (4,): random lossy splitters, one per MZI."""
    t = rng.uniform(0.3, 0.9, size=shape + (4,))
    r = rng.uniform(0.5, 1.0, size=shape + (4,)) * np.sqrt(1.0 - t * t)
    return t, r


def test_rotation_matrix_matches_kron_oracle():
    rng = np.random.default_rng(53)
    for _ in range(25):
        t, r = random_mzi_amplitudes(rng)
        phi, theta, phi2, theta2 = rng.uniform(-2.0, 2.0, size=4)
        dphi, dtheta = rng.uniform(-0.25, 0.25, size=(2, 4))
        got = chip.rotation_matrix(t, r, split_phases(phi, phi2, dphi),
                                   split_phases(theta, theta2, dtheta))
        want = oracles.rotation_by_hand(
            (phi + dphi[0], phi2 + dphi[1], phi + dphi[2], phi2 + dphi[3]),
            (theta + dtheta[0], theta2 + dtheta[1], theta + dtheta[2], theta2 + dtheta[3]),
            list(zip(t, r)),
        )
        np.testing.assert_allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_rotation_matrix_batches_equal_elementwise_calls(shape):
    rng = np.random.default_rng(59)
    t, r = random_mzi_amplitudes(rng, shape)
    phi, theta, scale = rng.uniform(-2.0, 2.0, size=(3,) + shape)
    dphi, dtheta = rng.uniform(-0.25, 0.25, size=(2, 4))
    got = chip.rotation_matrix(t, r, chip.shifter_phases(phi, dphi, scale),
                               chip.shifter_phases(theta, dtheta, scale))
    assert got.shape == shape + (4, 4)
    for idx in np.ndindex(shape):
        one = chip.rotation_matrix(
            t[idx], r[idx], chip.shifter_phases(phi[idx], dphi, scale[idx]),
            chip.shifter_phases(theta[idx], dtheta, scale[idx]))
        np.testing.assert_array_equal(got[idx], one)
    # phi and theta phases at different batch shapes, as the certify search passes them
    zp = chip.shifter_phases(rng.uniform(-2.0, 2.0, size=(2, 1) + shape), dphi)
    zt = chip.shifter_phases(rng.uniform(-2.0, 2.0, size=(1, 3) + shape), dtheta)
    got = chip.rotation_matrix(t, r, zp, zt)
    full = (2, 3) + shape + (4,)
    assert got.shape == (2, 3) + shape + (4, 4)
    np.testing.assert_array_equal(
        got, chip.rotation_matrix(*(np.broadcast_to(a, full) for a in (t, r, zp, zt))))


def rotate_splitters(kind, rng):
    """The four rotation MZIs' splitters: ideal, lossy 40:60 or wavelength-tabulated."""
    if kind == "ideal":
        return (optics.IDEAL_MMI,) * 4
    if kind == "lossy":
        return (optics.MmiParams.from_power(0.4 * 0.9, 0.6 * 0.9),) * 4
    return tuple(tabulated_mmi(rng) for _ in range(4))


@pytest.mark.parametrize("kind", ["ideal", "lossy", "tabulated"])
def test_rotate_equals_operator_on_the_state(kind):
    # the certify probe layout: phi phases (2, 2, 1, n), theta phases (2, 1, 2, n),
    # one splitter set and dispersion scale per node n, states (n, 4); each
    # rotated state is checked against the Kronecker-product operator by hand
    rng = np.random.default_rng(67)
    n = 40
    wl = rng.uniform(720.0, 740.0, size=n)
    t, r = chip._mzi_amplitudes(rotate_splitters(kind, rng), wl)
    scale = optics.DESIGN_WAVELENGTH_NM / wl
    dphi, dtheta = rng.uniform(-0.25, 0.25, size=(2, 4))
    zp = chip.shifter_phases(rng.uniform(0.0, math.pi, size=(2, 2, 1, n)), dphi, scale)
    zt = chip.shifter_phases(rng.uniform(0.0, math.pi, size=(2, 1, 2, n)), dtheta, scale)
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    got = chip.rotate(t, r, zp, zt, psi)
    assert got.shape == (2, 2, 2, n, 4)
    zp, zt, t, r = (np.broadcast_to(a, got.shape) for a in (zp, zt, t, r))
    for idx in np.ndindex(got.shape[:-1]):
        u = oracles.rotation_by_hand(zp[idx], zt[idx], list(zip(t[idx], r[idx])))
        np.testing.assert_allclose(got[idx], u @ psi[idx[-1]], rtol=0.0, atol=1e-12)


def mzi_calls(tree):
    """Number of calls of ``mzi_matrix``, by name or attribute, anywhere in ``tree``."""
    return sum(isinstance(n, ast.Call) and "mzi_matrix" in (getattr(n.func, "id", None),
                                                            getattr(n.func, "attr", None))
               for n in ast.walk(tree))


def test_mzi_matrix_is_called_only_from_rotate():
    # chip.rotate is the one place where the four stage MZIs are built and composed
    total = in_rotate = 0
    for path in sorted(Path(chip.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        total += mzi_calls(tree)
        if path.stem == "chip":
            rotate = next(n for n in tree.body if getattr(n, "name", None) == "rotate")
            in_rotate = mzi_calls(rotate)
    assert total == in_rotate == 4


def test_shifter_phases_scale_set_values_and_offsets():
    d = (0.01, -0.02, 0.03, 0.04)
    np.testing.assert_array_equal(
        chip.shifter_phases(0.5, d), [0.51, -0.02, 0.53, 0.04])
    got = chip.shifter_phases(np.array([0.5, 1.0]), d, scale=np.array([1.0, 0.5]))
    np.testing.assert_allclose(got, [[0.51, -0.02, 0.53, 0.04],
                                     [0.505, -0.01, 0.515, 0.02]], atol=1e-15)


def test_chip_config_phase_errors_validation():
    assert chip.ChipConfig().errors == chip.PhaseErrorSet(ZERO4, ZERO4)
    with pytest.raises(ValueError):
        chip.ChipConfig(errors=chip.PhaseErrorSet((0.3, 0.0, 0.0, 0.0), ZERO4))
    with pytest.raises(ValueError):
        chip.ChipConfig(errors=chip.PhaseErrorSet(ZERO4, (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        chip.PhaseErrorSet((float("inf"), 0.0, 0.0, 0.0), ZERO4)


# The detection tests run on chip.broadband_probabilities, the one
# detection path, at a single spectrum node unless a spectrum is the point.

def test_detection_probabilities_bell_state():
    # the default generation phase xi = -pi/2 prepares PHI_PLUS
    np.testing.assert_allclose(chip.generation_state(chip.ChipConfig().xi), PHI_PLUS,
                               atol=1e-15)
    p = chip.broadband_probabilities(chip.ChipConfig(), 0.0, 0.0)
    assert p.shape == (4,)
    np.testing.assert_allclose(p, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_detection_probabilities_correlation_value():
    p = chip.broadband_probabilities(chip.ChipConfig(), 0.3, 0.1)
    assert correlation(p) == pytest.approx(math.cos(0.4), abs=1e-12)


def test_detection_probabilities_annihilated_state():
    # closed splitters in the phi stage alone already block every path
    closed = optics.MmiParams(t=0.0, r=0.0)
    cfg = chip.ChipConfig(mzi_mmis=(closed, closed, optics.IDEAL_MMI, optics.IDEAL_MMI))
    with pytest.raises(ValueError, match="annihilated"):
        chip.broadband_probabilities(cfg, 0.3, 0.1)


def test_ideal_chip_correlation_grid():
    angles = np.linspace(-2.0, 2.0, 17)
    cfg = chip.ChipConfig()
    worst = 0.0
    for phi in angles:
        for theta in angles:
            p = chip.broadband_probabilities(cfg, phi, theta)
            worst = max(worst, abs(correlation(p) - math.cos(2.0 * (phi - theta))))
    assert worst < 1e-9


def test_detection_pipeline_matches_hand_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        xi = rng.uniform(-math.pi, math.pi)
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        dphi = tuple(rng.uniform(-0.2, 0.2, size=4))
        dtheta = tuple(rng.uniform(-0.2, 0.2, size=4))
        cfg = chip.ChipConfig(xi=xi)
        p = probabilities(cfg, phi, theta, dphi, dtheta)
        want = oracles.detection_by_hand(
            1.0,
            1.0,
            xi,
            (phi + dphi[0], dphi[1], phi + dphi[2], dphi[3]),
            (theta + dtheta[0], dtheta[1], theta + dtheta[2], dtheta[3]),
        )
        np.testing.assert_allclose(p, want, atol=1e-12)


def test_broadband_single_node_equals_monochromatic():
    cfg = chip.ChipConfig()
    got = chip.broadband_probabilities(cfg, 0.4, -0.2)
    want = oracles.detection_by_hand(INV_SQRT2, INV_SQRT2, -math.pi / 2.0,
                                     (0.4, 0.0, 0.4, 0.0), (-0.2, 0.0, -0.2, 0.0))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_broadband_identical_nodes_equal_monochromatic():
    spectrum = optics.WavelengthSpectrum(((725.0, 0.5), (735.0, 0.5)))
    cfg = chip.ChipConfig(spectrum=spectrum)
    got = chip.broadband_probabilities(cfg, -0.9, 0.3)
    want = chip.broadband_probabilities(single_node(cfg, 730.0), -0.9, 0.3)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_broadband_21_nodes_matches_per_node_average():
    wavelengths = np.linspace(720.0, 740.0, 21)
    powers = np.linspace(0.38, 0.42, 21)
    table = tuple(
        (float(wl), math.sqrt(tp), math.sqrt(1.0 - tp))
        for wl, tp in zip(wavelengths, powers)
    )
    mmi = optics.MmiParams(t=math.sqrt(0.4), r=math.sqrt(0.6), table=table)
    weights = np.full(21, 1.0 / 21.0)
    weights[0] += 1.0 - weights.sum()  # exact unit mass
    spectrum = optics.WavelengthSpectrum(
        tuple((float(wl), float(w)) for wl, w in zip(wavelengths, weights))
    )
    cfg = chip.ChipConfig(
        generation_mmi=mmi,
        mzi_mmis=(mmi, mmi, mmi, mmi),
        spectrum=spectrum,
    )
    got = chip.broadband_probabilities(cfg, 0.6, -0.4)

    acc = np.zeros(4)
    for wl, w in spectrum.nodes:
        acc += w * chip.broadband_probabilities(single_node(cfg, wl), 0.6, -0.4)
    np.testing.assert_allclose(got, acc, atol=1e-12)


def test_broadband_correlation_is_convex_mix():
    spectrum = optics.WavelengthSpectrum(((726.0, 0.3), (734.0, 0.7)))
    table = ((720.0, math.sqrt(0.36), math.sqrt(0.64)),
             (740.0, math.sqrt(0.44), math.sqrt(0.56)))
    mmi = optics.MmiParams(t=math.sqrt(0.4), r=math.sqrt(0.6), table=table)
    cfg = chip.ChipConfig(
        generation_mmi=mmi,
        mzi_mmis=(mmi, mmi, mmi, mmi),
        spectrum=spectrum,
    )
    mixed_e = correlation(chip.broadband_probabilities(cfg, 0.35, -0.15))
    want = 0.0
    for wl, w in spectrum.nodes:
        want += w * correlation(chip.broadband_probabilities(single_node(cfg, wl), 0.35, -0.15))
    assert mixed_e == pytest.approx(want, abs=1e-10)


def test_broadband_phase_dispersion_scales_heater_phases():
    spectrum = optics.WavelengthSpectrum(((725.0, 0.4), (736.0, 0.6)))
    dphi = (0.01, 0.0, -0.02, 0.0)
    cfg = chip.ChipConfig(spectrum=spectrum, phase_dispersion=True,
                           errors=chip.PhaseErrorSet(dphi, ZERO4))
    got = chip.broadband_probabilities(cfg, 0.8, -0.5)
    mono = chip.ChipConfig()
    acc = np.zeros(4)
    for wl, w in spectrum.nodes:
        f = optics.DESIGN_WAVELENGTH_NM / wl
        acc += w * probabilities(mono, 0.8 * f, -0.5 * f, tuple(d * f for d in dphi))
    np.testing.assert_allclose(got, acc, atol=1e-12)


def tabulated_mmi(rng):
    """A 40:60-ish splitter whose power ratio drifts over 715-745 nm."""
    wavelengths = np.linspace(715.0, 745.0, 7)
    t_power = rng.uniform(0.35, 0.45, size=7)
    loss = rng.uniform(0.9, 1.0, size=7)
    return optics.MmiParams(
        t=math.sqrt(0.4), r=math.sqrt(0.6),
        table=tuple((float(wl), math.sqrt(tp * k), math.sqrt((1.0 - tp) * k))
                    for wl, tp, k in zip(wavelengths, t_power, loss)))


def broadband_by_hand(cfg, phi, theta, phi2=0.0, theta2=0.0):
    """Per-node loop over the spectrum through the written-out oracle.

    ``phi2``, ``theta2`` are set phases on each branch's second shifter,
    which the chip model keeps at 0.
    """
    acc = np.zeros(4)
    for wl, w in cfg.spectrum.nodes:
        s = optics.DESIGN_WAVELENGTH_NM / wl if cfg.phase_dispersion else 1.0
        t_gen, r_gen = cfg.generation_mmi.resolve(wl)
        p, d, q, e = phi, cfg.errors.dphi, theta, cfg.errors.dtheta
        p2, q2 = phi2, theta2
        acc += w * oracles.detection_by_hand(
            t_gen, r_gen, cfg.xi,
            ((p + d[0]) * s, (p2 + d[1]) * s, (p + d[2]) * s, (p2 + d[3]) * s),
            ((q + e[0]) * s, (q2 + e[1]) * s, (q + e[2]) * s, (q2 + e[3]) * s),
            [m.resolve(wl) for m in cfg.mzi_mmis])
    return acc


@pytest.mark.parametrize("dispersion", [False, True])
def test_broadband_matches_per_node_hand_oracle(dispersion):
    rng = np.random.default_rng(61)
    cfg = chip.ChipConfig(
        generation_mmi=tabulated_mmi(rng),
        mzi_mmis=tuple(tabulated_mmi(rng) for _ in range(4)),
        xi=-1.4,
        spectrum=optics.WavelengthSpectrum.gaussian(730.0, fwhm_nm=10.0),
        phase_dispersion=dispersion,
    )
    for _ in range(10):
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        errors = chip.PhaseErrorSet(tuple(rng.uniform(-0.2, 0.2, size=4)),
                                    tuple(rng.uniform(-0.2, 0.2, size=4)))
        with_errors = dataclasses.replace(cfg, errors=errors)
        got = chip.broadband_probabilities(with_errors, phi, theta)
        want = broadband_by_hand(with_errors, phi, theta)
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("dispersion", [False, True])
def test_common_set_phase_on_both_shifters_is_global(dispersion):
    # a set phase c on both shifters of every branch of a stage multiplies the
    # stage by e^{2ic}, a global phase, so the chip model's second set phase
    # of 0 loses nothing: the clicks of (phi + c, c) equal those of (phi, 0)
    rng = np.random.default_rng(67)
    for _ in range(10):
        cfg = chip.ChipConfig(
            generation_mmi=tabulated_mmi(rng),
            mzi_mmis=tuple(tabulated_mmi(rng) for _ in range(4)),
            xi=rng.uniform(-math.pi, math.pi),
            spectrum=optics.WavelengthSpectrum.gaussian(730.0, fwhm_nm=10.0, points=5),
            phase_dispersion=dispersion,
            errors=chip.PhaseErrorSet(tuple(rng.uniform(-0.2, 0.2, size=4)),
                                      tuple(rng.uniform(-0.2, 0.2, size=4))))
        phi, theta, c_phi, c_theta = rng.uniform(-2.0, 2.0, size=4)
        shifted = broadband_by_hand(cfg, phi + c_phi, theta + c_theta, c_phi, c_theta)
        np.testing.assert_allclose(shifted, broadband_by_hand(cfg, phi, theta), atol=1e-12)
        np.testing.assert_allclose(chip.broadband_probabilities(cfg, phi, theta), shifted,
                                   atol=1e-12)


def test_broadband_paper_chip_scan_matches_hand_oracle():
    # the paper's 40:60 chip, 21-node spectrum with dispersion, its phase
    # errors, on the 0.5 rad calibration scan
    cfg = chip.ChipConfig.unbalanced(
        spectrum=optics.WavelengthSpectrum.gaussian(730.0, fwhm_nm=10.0),
        phase_dispersion=True)
    cfg = dataclasses.replace(cfg, errors=chip.PhaseErrorSet(
        (0.0, 0.011, -0.004, -0.006), (0.068, 0.216, 0.036, 0.215)))
    for phi in np.linspace(-2.0, 2.0, 9):
        for theta in np.linspace(-2.0, 0.0, 5):
            got = chip.broadband_probabilities(cfg, phi, theta)
            want = broadband_by_hand(cfg, phi, theta)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_broadband_annihilated_state_rejected():
    closed = optics.MmiParams(t=0.0, r=0.0)
    cfg = chip.ChipConfig(mzi_mmis=(closed, closed, closed, closed))
    with pytest.raises(ValueError, match="annihilated"):
        chip.broadband_probabilities(cfg, 0.1, 0.2)


PAPER_CHIP = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "paper_chip.yaml"


@pytest.mark.parametrize("name", ["paper", "balanced", "unbalanced"])
def test_broadband_batches_equal_scalar_calls(name):
    cfg = {"paper": lambda: formats.load_chip_config(PAPER_CHIP),
           "balanced": chip.ChipConfig, "unbalanced": chip.ChipConfig.unbalanced}[name]()
    # the 41x21 calibration scan, in simulate's pair order
    phi, theta = (a.ravel() for a in np.meshgrid(np.linspace(-2.0, 2.0, 41),
                                                  np.linspace(-2.0, 0.0, 21), indexing="ij"))
    scalar = np.array([chip.broadband_probabilities(cfg, float(p), float(t))
                       for p, t in zip(phi, theta)])
    assert chip.broadband_probabilities(cfg, float(phi[5]), float(theta[5])).shape == (4,)
    for block in (1, 63, 64, 65, 861):
        batched = np.concatenate([chip.broadband_probabilities(cfg, phi[i:i + block],
                                                               theta[i:i + block])
                                  for i in range(0, phi.size, block)])
        assert batched.shape == (861, 4)
        assert np.array_equal(batched, scalar), block


def test_broadband_batch_with_one_annihilated_pair_raises():
    # only |UF> is generated, the closed theta_f MZI blocks the phi stage's
    # |UF> output, and the theta_n MZI with r = 0 scales its |UN> input by
    # t^2, so the clicks are cos^2(phi) t^4 with t^4 = 1e-298: phi = pi/2
    # alone falls under the cutoff
    closed = optics.MmiParams(t=0.0, r=0.0)
    faint = optics.MmiParams(t=10.0 ** -74.5, r=0.0)
    cfg = chip.ChipConfig(generation_mmi=optics.MmiParams(t=1.0, r=0.0),
                          mzi_mmis=(optics.IDEAL_MMI, optics.IDEAL_MMI, closed, faint))
    phi = np.array([0.3, -1.0, math.pi / 2, 2.0])
    theta = np.full(4, -0.5)
    good = np.delete(np.arange(4), 2)
    assert chip.broadband_probabilities(cfg, phi[good], theta[good]).shape == (3, 4)
    with pytest.raises(ValueError, match="annihilated"):
        chip.broadband_probabilities(cfg, phi[2], theta[2])
    with pytest.raises(ValueError, match="annihilated"):
        chip.broadband_probabilities(cfg, phi, theta)
