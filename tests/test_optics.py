import math

import numpy as np
import pytest

import oracles
from pathqrng import optics

INV_SQRT2 = 2.0 ** -0.5


def test_mmi_matrix_ideal_and_unbalanced():
    # the splitter matrix is [[t, i r], [i r, t]]; its amplitudes come from resolve()
    assert optics.IDEAL_MMI.resolve() == pytest.approx((INV_SQRT2, INV_SQRT2), abs=1e-15)
    forty_sixty = optics.MmiParams.from_power(0.4, 0.6)
    assert forty_sixty.resolve() == pytest.approx((0.6325, 0.7746), abs=5e-5)
    # a fully transmitting splitter is the identity, so the MZI is the bare shifter pair
    z1, z2 = 0.3, -0.8
    np.testing.assert_allclose(
        optics.mzi_matrix(1.0, 0.0, z1, z2),
        np.diag([np.exp(2j * z1), np.exp(2j * z2)]),
        atol=0,
    )


def test_mmi_params_validation():
    with pytest.raises(ValueError):
        optics.MmiParams(t=0.9, r=0.9)  # power sum over 1
    with pytest.raises(ValueError):
        optics.MmiParams(t=-0.1, r=0.5)
    with pytest.raises(ValueError):
        optics.MmiParams(t=1.2, r=0.0)


def test_mmi_table_interpolation():
    table = (
        (720.0, math.sqrt(0.36), math.sqrt(0.64)),
        (730.0, math.sqrt(0.40), math.sqrt(0.60)),
        (740.0, math.sqrt(0.44), math.sqrt(0.56)),
    )
    p = optics.MmiParams(
        t=math.sqrt(0.40), r=math.sqrt(0.60), table=table
    )
    # exact at the nodes
    for wl, t, r in table:
        got_t, got_r = p.resolve(wavelength_nm=wl)
        assert got_t == pytest.approx(t, abs=1e-12)
        assert got_r == pytest.approx(r, abs=1e-12)
    # linear midway between nodes
    got_t, _ = p.resolve(wavelength_nm=725.0)
    want_t = 0.5 * (math.sqrt(0.36) + math.sqrt(0.40))
    assert got_t == pytest.approx(want_t, abs=1e-12)
    with pytest.raises(ValueError):
        p.resolve(wavelength_nm=750.0)  # outside the table
    with pytest.raises(ValueError):
        p.resolve()  # table present, wavelength required


def test_mmi_table_validation():
    with pytest.raises(ValueError):
        optics.MmiParams(t=0.6, r=0.6, table=((730.0, 0.6, 0.6),))
    with pytest.raises(ValueError):
        optics.MmiParams(
            t=0.6,
            r=0.6,
            table=((740.0, 0.6, 0.6), (720.0, 0.7, 0.6)),
        )


@pytest.mark.parametrize("bad", [math.nan, 0.0, -730.0, math.inf])
def test_mmi_table_wavelengths_must_be_finite_and_positive(bad):
    # a NaN node once passed, and the lookup then blamed the wavelength asked for
    with pytest.raises(ValueError, match="table wavelengths must be finite and positive"):
        optics.MmiParams(0.5, 0.5, ((bad, 0.5, 0.5), (740.0, 0.5, 0.5)))


def test_phase_shifter_matrix():
    # with t = 1, r = 0 the MZI reduces to diag(e^{2i(z1+d1)}, e^{2i(z2+d2)})
    np.testing.assert_allclose(optics.mzi_matrix(1.0, 0.0, 0.0, 0.0), np.eye(2), atol=0)
    np.testing.assert_allclose(
        optics.mzi_matrix(1.0, 0.0, math.pi / 4.0, 0.0),
        np.diag([1j, 1.0]),
        atol=1e-15,
    )
    got = optics.mzi_matrix(1.0, 0.0, 0.5 + 0.011, 0.2 - 0.004)
    np.testing.assert_allclose(
        got, np.diag([np.exp(1.022j), np.exp(0.392j)]), atol=1e-15
    )


def test_mzi_matrix_closed_forms():
    np.testing.assert_allclose(
        optics.mzi_matrix(INV_SQRT2, INV_SQRT2, 0.0, 0.0),
        1j * np.array([[0.0, 1.0], [1.0, 0.0]]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        optics.mzi_matrix(INV_SQRT2, INV_SQRT2, math.pi / 4.0, -math.pi / 4.0),
        1j * np.diag([1.0, -1.0]),
        atol=1e-15,
    )
    got = optics.mzi_matrix(
        *optics.MmiParams.from_power(0.4, 0.6).resolve(), 0.0, 0.0
    )
    want = np.array(
        [[-0.2, 2j * math.sqrt(0.24)], [2j * math.sqrt(0.24), -0.2]]
    )
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert got[0, 1].imag == pytest.approx(0.9798, abs=5e-5)


def test_mzi_matrix_ideal_closed_form_rotation():
    # i e^{i(z1+z2)} [[sin z, cos z], [cos z, -sin z]] with z = z1 - z2
    rng = np.random.default_rng(31)
    for _ in range(20):
        z1, z2 = rng.uniform(-math.pi, math.pi, size=2)
        got = optics.mzi_matrix(INV_SQRT2, INV_SQRT2, z1, z2)
        z = z1 - z2
        want = (
            1j
            * np.exp(1j * (z1 + z2))
            * np.array(
                [[math.sin(z), math.cos(z)], [math.cos(z), -math.sin(z)]]
            )
        )
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(
            got, oracles.mzi_by_product(z1, z2), atol=1e-12
        )


def test_mzi_matrix_unitarity_and_singular_values():
    rng = np.random.default_rng(37)
    lossy = (0.6, 0.7)  # powers sum to 0.85
    for _ in range(25):
        z1, z2 = rng.uniform(-math.pi, math.pi, size=2)
        d1, d2 = rng.uniform(-0.25, 0.25, size=2)
        u = optics.mzi_matrix(INV_SQRT2, INV_SQRT2, z1 + d1, z2 + d2)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        sv = np.linalg.svd(optics.mzi_matrix(*lossy, z1 + d1, z2 + d2), compute_uv=False)
        assert sv.max() <= 1.0 + 1e-10


def test_mzi_matrix_global_phase_and_periodicity():
    rng = np.random.default_rng(41)
    for _ in range(10):
        z1, z2, c = rng.uniform(-math.pi, math.pi, size=3)
        base = optics.mzi_matrix(INV_SQRT2, INV_SQRT2, z1, z2)
        shifted = optics.mzi_matrix(INV_SQRT2, INV_SQRT2, z1 + c, z2 + c)
        assert np.max(np.abs(shifted - np.exp(2j * c) * base)) < 1e-10
        periodic = optics.mzi_matrix(INV_SQRT2, INV_SQRT2, z1 + math.pi, z2)
        np.testing.assert_allclose(periodic, base, atol=1e-10)


def test_mzi_matrix_broadcasts_and_matches_product_oracle():
    # lossy, unequal splitters and arbitrary phases, one oracle call per element
    rng = np.random.default_rng(43)
    shape = (3, 5)
    t = rng.uniform(0.2, 0.8, size=shape)
    r = rng.uniform(0.0, 1.0, size=shape) * np.sqrt(1.0 - t * t)
    z1, z2 = rng.uniform(-math.pi, math.pi, size=(2,) + shape)
    got = optics.mzi_matrix(t, r, z1, z2)
    assert got.shape == shape + (2, 2)
    for idx in np.ndindex(shape):
        want = oracles.mzi_by_product(z1[idx], z2[idx], t[idx], r[idx])
        np.testing.assert_allclose(got[idx], want, atol=1e-14)
        # scalars broadcast against arrays the same way as element by element
        np.testing.assert_array_equal(
            optics.mzi_matrix(t[idx], r[idx], z1[idx], z2[idx]), got[idx])
    row = optics.mzi_matrix(t[0, 0], r[0, 0], z1[0], z2[0, 0])
    assert row.shape == (5, 2, 2)
    np.testing.assert_allclose(
        row[2], oracles.mzi_by_product(z1[0, 2], z2[0, 0], t[0, 0], r[0, 0]), atol=1e-14)


def test_wavelength_spectrum():
    single = optics.WavelengthSpectrum.single(730.0)
    assert single.wavelengths == (730.0,)
    assert single.weights == (1.0,)
    g = optics.WavelengthSpectrum.gaussian(730.0, fwhm_nm=10.0, points=21)
    assert len(g.wavelengths) == 21
    assert sum(g.weights) == pytest.approx(1.0, abs=1e-12)
    assert g.wavelengths[10] == pytest.approx(730.0)
    # symmetric weights around the center
    w = np.array(g.weights)
    np.testing.assert_allclose(w, w[::-1], atol=1e-12)
    with pytest.raises(ValueError):
        optics.WavelengthSpectrum(((730.0, 0.7), (731.0, 0.2)))  # sums to 0.9
    with pytest.raises(ValueError):
        optics.WavelengthSpectrum(((730.0, 1.5), (731.0, -0.5)))
