import math

import numpy as np
import pytest

import oracles
from pathqrng import chip, optics

INV_SQRT2 = 2.0 ** -0.5
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
MINUS_XX = -np.kron(oracles.SX, oracles.SX)


def correlation(p):
    """E from a basis-order distribution: P(UF) + P(DN) - P(UN) - P(DF)."""
    return p[0] + p[3] - p[1] - p[2]


def test_generation_state_ideal_phases():
    np.testing.assert_allclose(
        chip.generation_state(chip.GenerationSetting(xi=-math.pi / 2.0)),
        PHI_PLUS,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        chip.generation_state(chip.GenerationSetting(xi=math.pi / 2.0)),
        np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
        atol=1e-15,
    )


def test_generation_state_unbalanced():
    psi = chip.generation_state(
        chip.GenerationSetting(xi=0.0), optics.MmiParams.from_power(0.4, 0.6)
    )
    want = np.array([math.sqrt(0.4), 0.0, 0.0, 1j * math.sqrt(0.6)])
    np.testing.assert_allclose(psi, want, atol=1e-15)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_generation_state_degenerate():
    with pytest.raises(ValueError):
        chip.generation_state(
            chip.GenerationSetting(), optics.MmiParams(t=0.0, r=0.0)
        )


def test_generation_compensation_is_global_phase_plus_effective_xi():
    rng = np.random.default_rng(13)
    for _ in range(10):
        xi, far, near = rng.uniform(-math.pi, math.pi, size=3)
        g = chip.GenerationSetting(xi=xi, comp_far=far, comp_near=near)
        assert g.effective_xi == pytest.approx(xi + near - far)
        got = chip.generation_state(g)
        want = np.exp(1j * far) * chip.generation_state(
            chip.GenerationSetting(xi=g.effective_xi)
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotation_ideal_cross_point():
    np.testing.assert_allclose(chip.rotation_ideal(0.0, 0.0), MINUS_XX, atol=1e-15)


def test_rotation_ideal_is_product_and_unitary():
    rng = np.random.default_rng(19)
    for _ in range(100):
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        u = chip.rotation_ideal(phi, theta)
        assert oracles.is_unitary(u)
        want = oracles.kron_by_hand(
            oracles.mzi_by_product(theta, 0.0), oracles.mzi_by_product(phi, 0.0)
        )
        np.testing.assert_allclose(u, want, atol=1e-12)


def test_rotation_stage_block_structure():
    # a fully transmitting splitter (t = 1, r = 0) at zero phase makes an
    # identity MZI, so switching one stage off isolates the other
    d = (0.01, -0.02, 0.03, 0.0)
    ideal, off = (INV_SQRT2, INV_SQRT2), (1.0, 0.0)
    t = (ideal[0], ideal[0], off[0], off[0])
    r = (ideal[1], ideal[1], off[1], off[1])
    rel = chip.rotation_matrix(t, r, chip.shifter_phases(0.4, 0.1, d), np.zeros(4))
    top = oracles.mzi_by_product(0.4 + d[0], 0.1 + d[1])
    bot = oracles.mzi_by_product(0.4 + d[2], 0.1 + d[3])
    np.testing.assert_allclose(rel[0:2, 0:2], top, atol=1e-14)
    np.testing.assert_allclose(rel[2:4, 2:4], bot, atol=1e-14)
    assert np.max(np.abs(rel[0:2, 2:4])) == 0.0

    ab = chip.rotation_matrix(t[::-1], r[::-1], np.zeros(4), chip.shifter_phases(-0.7, 0.2, d))
    far = oracles.mzi_by_product(-0.7 + d[0], 0.2 + d[1])
    near = oracles.mzi_by_product(-0.7 + d[2], 0.2 + d[3])
    np.testing.assert_allclose(ab[0::2, 0::2], far, atol=1e-14)
    np.testing.assert_allclose(ab[1::2, 1::2], near, atol=1e-14)
    assert np.max(np.abs(ab[0::2, 1::2])) == 0.0


def test_rotation_real_zero_errors_factorizes():
    rng = np.random.default_rng(23)
    for _ in range(10):
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        setting = chip.RotationSetting.from_angles(phi, theta)
        got = chip.rotation_real(setting)
        np.testing.assert_allclose(got, chip.rotation_ideal(phi, theta), atol=1e-12)


def test_rotation_real_common_mode_errors_shift_angle_and_phase():
    rng = np.random.default_rng(29)
    for _ in range(10):
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        a, b, c, d = rng.uniform(-0.2, 0.2, size=4)
        setting = chip.RotationSetting.from_angles(
            phi, theta, dphi=(a, b, a, b), dtheta=(c, d, c, d)
        )
        got = chip.rotation_real(setting)
        want = (
            np.exp(2j * b)
            * np.exp(2j * d)
            * chip.rotation_ideal(phi + a - b, theta + c - d)
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotation_real_random_errors_unitary():
    rng = np.random.default_rng(31)
    for _ in range(25):
        setting = chip.RotationSetting.from_angles(
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
            dphi=tuple(rng.uniform(-0.05, 0.05, size=4)),
            dtheta=tuple(rng.uniform(-0.05, 0.05, size=4)),
        )
        assert oracles.is_unitary(chip.rotation_real(setting))


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
        got = chip.rotation_matrix(t, r, chip.shifter_phases(phi, phi2, dphi),
                                   chip.shifter_phases(theta, theta2, dtheta))
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
    got = chip.rotation_matrix(t, r, chip.shifter_phases(phi, 0.3, dphi, scale),
                               chip.shifter_phases(theta, -0.1, dtheta, scale))
    assert got.shape == shape + (4, 4)
    for idx in np.ndindex(shape):
        one = chip.rotation_matrix(
            t[idx], r[idx], chip.shifter_phases(phi[idx], 0.3, dphi, scale[idx]),
            chip.shifter_phases(theta[idx], -0.1, dtheta, scale[idx]))
        np.testing.assert_array_equal(got[idx], one)


def test_shifter_phases_scale_set_values_and_offsets():
    d = (0.01, -0.02, 0.03, 0.04)
    np.testing.assert_array_equal(
        chip.shifter_phases(0.5, -0.25, d), [0.51, -0.27, 0.53, -0.21])
    got = chip.shifter_phases(np.array([0.5, 1.0]), 0.0, d, scale=np.array([1.0, 0.5]))
    np.testing.assert_allclose(got, [[0.51, -0.02, 0.53, 0.04],
                                     [0.505, -0.01, 0.515, 0.02]], atol=1e-15)


def test_rotation_setting_validation():
    with pytest.raises(ValueError):
        chip.RotationSetting.from_angles(0.0, 0.0, dphi=(0.3, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        chip.RotationSetting.from_angles(0.0, 0.0, dtheta=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        chip.RotationSetting(float("inf"), 0.0, 0.0, 0.0)


def test_detection_probabilities_bell_state():
    p = chip.detection_probabilities(PHI_PLUS, chip.rotation_ideal(0.0, 0.0))
    assert p.shape == (4,)
    np.testing.assert_allclose(p, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_detection_probabilities_scalar_loss_cancels():
    rng = np.random.default_rng(37)
    for gamma in [1.0, 0.9, 0.5, 0.05]:
        loss = optics.LossModel(gamma=gamma, crossing_transmission=0.98)
        state = oracles.random_pure_state(4, rng)
        u = chip.rotation_ideal(0.7, -0.3)
        base = chip.detection_probabilities(state, u)
        lossy = chip.detection_probabilities(state, u, loss)
        np.testing.assert_allclose(lossy, base, atol=1e-12)


def test_detection_probabilities_correlation_value():
    p = chip.detection_probabilities(PHI_PLUS, chip.rotation_ideal(0.3, 0.1))
    assert correlation(p) == pytest.approx(math.cos(0.4), abs=1e-12)


def test_detection_probabilities_annihilated_state():
    with pytest.raises(ValueError):
        chip.detection_probabilities(PHI_PLUS, np.zeros((4, 4)))


def test_ideal_chip_correlation_grid():
    angles = np.linspace(-2.0, 2.0, 17)
    psi = chip.generation_state(chip.GenerationSetting())
    worst = 0.0
    for phi in angles:
        for theta in angles:
            p = chip.detection_probabilities(psi, chip.rotation_ideal(phi, theta))
            worst = max(worst, abs(correlation(p) - math.cos(2.0 * (phi - theta))))
    assert worst < 1e-9


def test_detection_pipeline_matches_hand_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        xi = rng.uniform(-math.pi, math.pi)
        phi, theta = rng.uniform(-2.0, 2.0, size=2)
        dphi = tuple(rng.uniform(-0.2, 0.2, size=4))
        dtheta = tuple(rng.uniform(-0.2, 0.2, size=4))
        setting = chip.RotationSetting.from_angles(phi, theta, dphi, dtheta)
        psi = chip.generation_state(chip.GenerationSetting(xi=xi))
        p = chip.detection_probabilities(psi, chip.rotation_real(setting))
        want = oracles.detection_by_hand(
            1.0,
            1.0,
            xi,
            0.0,
            0.0,
            (phi + dphi[0], dphi[1], phi + dphi[2], dphi[3]),
            (theta + dtheta[0], dtheta[1], theta + dtheta[2], dtheta[3]),
        )
        np.testing.assert_allclose(p, want, atol=1e-12)


def test_broadband_single_node_equals_monochromatic():
    cfg = chip.ChipConfig.balanced()
    setting = chip.RotationSetting.from_angles(0.4, -0.2)
    got = chip.broadband_probabilities(cfg, setting)
    psi = chip.generation_state(cfg.generation)
    want = chip.detection_probabilities(psi, chip.rotation_real(setting))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_broadband_identical_nodes_equal_monochromatic():
    spectrum = optics.WavelengthSpectrum(((725.0, 0.5), (735.0, 0.5)))
    cfg = chip.ChipConfig.balanced(spectrum=spectrum)
    setting = chip.RotationSetting.from_angles(-0.9, 0.3)
    got = chip.broadband_probabilities(cfg, setting)
    psi = chip.generation_state(cfg.generation)
    want = chip.detection_probabilities(psi, chip.rotation_real(setting))
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
        loss=optics.LOSSLESS,
        spectrum=spectrum,
    )
    setting = chip.RotationSetting.from_angles(0.6, -0.4)
    got = chip.broadband_probabilities(cfg, setting)

    acc = np.zeros(4)
    for wl, w in spectrum.nodes:
        psi = chip.generation_state(cfg.generation, mmi, wl)
        u = chip.rotation_real(setting, cfg.mzi_mmis, wl)
        p = chip.detection_probabilities(psi, u)
        acc += w * p
    np.testing.assert_allclose(got, acc, atol=1e-12)


def test_broadband_correlation_is_convex_mix():
    spectrum = optics.WavelengthSpectrum(((726.0, 0.3), (734.0, 0.7)))
    table = ((720.0, math.sqrt(0.36), math.sqrt(0.64)),
             (740.0, math.sqrt(0.44), math.sqrt(0.56)))
    mmi = optics.MmiParams(t=math.sqrt(0.4), r=math.sqrt(0.6), table=table)
    cfg = chip.ChipConfig(
        generation_mmi=mmi,
        mzi_mmis=(mmi, mmi, mmi, mmi),
        loss=optics.LOSSLESS,
        spectrum=spectrum,
    )
    setting = chip.RotationSetting.from_angles(0.35, -0.15)
    mixed_e = correlation(chip.broadband_probabilities(cfg, setting))
    want = 0.0
    for wl, w in spectrum.nodes:
        psi = chip.generation_state(cfg.generation, mmi, wl)
        u = chip.rotation_real(setting, cfg.mzi_mmis, wl)
        want += w * correlation(chip.detection_probabilities(psi, u))
    assert mixed_e == pytest.approx(want, abs=1e-10)


def test_broadband_phase_dispersion_scales_heater_phases():
    spectrum = optics.WavelengthSpectrum(((725.0, 0.4), (736.0, 0.6)))
    cfg = chip.ChipConfig.balanced(spectrum=spectrum, phase_dispersion=True)
    setting = chip.RotationSetting.from_angles(
        0.8, -0.5, dphi=(0.01, 0.0, -0.02, 0.0)
    )
    got = chip.broadband_probabilities(cfg, setting)
    psi = chip.generation_state(cfg.generation)
    acc = np.zeros(4)
    for wl, w in spectrum.nodes:
        f = optics.DESIGN_WAVELENGTH_NM / wl
        scaled = chip.RotationSetting(
            setting.phi1 * f, setting.phi2 * f, setting.theta1 * f, setting.theta2 * f,
            tuple(d * f for d in setting.dphi), tuple(d * f for d in setting.dtheta))
        p = chip.detection_probabilities(psi, chip.rotation_real(scaled))
        acc += w * p
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


def broadband_by_hand(cfg, setting):
    """Per-node loop over the spectrum through the written-out oracle."""
    acc = np.zeros(4)
    for wl, w in cfg.spectrum.nodes:
        s = optics.DESIGN_WAVELENGTH_NM / wl if cfg.phase_dispersion else 1.0
        t_gen, r_gen = cfg.generation_mmi.resolve(wl)
        p, d, q, e = setting.phi1, setting.dphi, setting.theta1, setting.dtheta
        p2, q2 = setting.phi2, setting.theta2
        acc += w * oracles.detection_by_hand(
            t_gen, r_gen, cfg.generation.xi, cfg.generation.comp_far,
            cfg.generation.comp_near,
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
        generation=chip.GenerationSetting(xi=-1.4, comp_far=0.2, comp_near=-0.1),
        spectrum=optics.WavelengthSpectrum.gaussian(730.0, fwhm_nm=10.0),
        phase_dispersion=dispersion,
    )
    for _ in range(10):
        phi1, phi2, theta1, theta2 = rng.uniform(-2.0, 2.0, size=4)
        setting = chip.RotationSetting(
            phi1, phi2, theta1, theta2,
            tuple(rng.uniform(-0.2, 0.2, size=4)), tuple(rng.uniform(-0.2, 0.2, size=4)))
        got = chip.broadband_probabilities(cfg, setting)
        want = broadband_by_hand(cfg, setting)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_broadband_paper_chip_scan_matches_hand_oracle():
    # the paper's 40:60 chip, 21-node spectrum with dispersion, its phase
    # errors, on the 0.5 rad calibration scan
    cfg = chip.ChipConfig.unbalanced(
        spectrum=optics.WavelengthSpectrum.gaussian(730.0, fwhm_nm=10.0),
        phase_dispersion=True)
    dphi, dtheta = (0.0, 0.011, -0.004, -0.006), (0.068, 0.216, 0.036, 0.215)
    for phi in np.linspace(-2.0, 2.0, 9):
        for theta in np.linspace(-2.0, 0.0, 5):
            setting = chip.RotationSetting.from_angles(phi, theta, dphi, dtheta)
            got = chip.broadband_probabilities(cfg, setting)
            want = broadband_by_hand(cfg, setting)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_broadband_annihilated_state_rejected():
    closed = optics.MmiParams(t=0.0, r=0.0)
    cfg = chip.ChipConfig(mzi_mmis=(closed, closed, closed, closed))
    with pytest.raises(ValueError, match="annihilated"):
        chip.broadband_probabilities(cfg, chip.RotationSetting.from_angles(0.1, 0.2))
