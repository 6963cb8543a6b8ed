"""The path-qubit basis order, the Born rule on it, and the linear-algebra oracles.

The basis order is stated in the package docstring; the channel labels are
``cli.CHANNELS`` and distributions are checked by ``events``.
"""

import math

import numpy as np
import pytest

import oracles
from pathqrng import bell, chip, cli, events, optics

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
XX = np.kron(oracles.SX, oracles.SX)


def test_channel_order_and_index():
    # index = 2 * (absolute U/D) + (relative F/N)
    assert cli.CHANNELS == ("UF", "UN", "DF", "DN")
    for i, name in enumerate(cli.CHANNELS):
        assert i == 2 * "UD".index(name[0]) + "FN".index(name[1])


def test_is_unitary():
    assert oracles.is_unitary(np.eye(4))
    assert oracles.is_unitary(np.diag([1j, -1j]))
    assert not oracles.is_unitary(np.diag([1.0, 0.5]))
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = oracles.random_unitary(4, rng)
        assert oracles.is_unitary(u)
        assert not oracles.is_unitary(u * 1.001)


# The tensor-product tests pin oracles.kron_by_hand, the reference the
# rotation kernel's block structure is checked against in test_chip.

def test_tensor_product_identities():
    np.testing.assert_allclose(
        oracles.kron_by_hand(oracles.ID2, oracles.ID2), np.eye(4), atol=0
    )
    np.testing.assert_allclose(
        oracles.kron_by_hand(oracles.P1, oracles.P2), np.diag([0.0, 1.0, 0.0, 0.0]), atol=0
    )


def test_tensor_product_sigma_z_pair():
    # E is the expectation of sigma_z (x) sigma_z in the channel basis
    zz = oracles.kron_by_hand(oracles.SZ, oracles.SZ)
    np.testing.assert_allclose(zz, np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)
    rng = np.random.default_rng(41)
    p = rng.dirichlet(np.ones(4), size=20)
    assert bell.correlation_coefficient(p) == pytest.approx(p @ np.diag(zz).real, abs=1e-15)


def test_tensor_product_against_loops_and_homomorphism():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a = oracles.random_unitary(2, rng)
        b = oracles.random_unitary(2, rng)
        c = oracles.random_unitary(2, rng)
        d = oracles.random_unitary(2, rng)
        ab = oracles.kron_by_hand(a, b)
        np.testing.assert_allclose(ab, np.kron(a, b), atol=1e-14)
        assert oracles.is_unitary(ab)
        lhs = ab @ oracles.kron_by_hand(c, d)
        rhs = oracles.kron_by_hand(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_pauli_exponential_identity_cases():
    for axis in [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.8, 0.0)]:
        np.testing.assert_allclose(
            oracles.pauli_exponential(0.0, 0.0, axis), np.eye(2), atol=1e-15
        )
    np.testing.assert_allclose(
        oracles.pauli_exponential(0.0, math.pi / 2.0, (0.0, 0.0, 1.0)),
        np.diag([1j, -1j]),
        atol=1e-15,
    )


def test_pauli_exponential_z_axis_closed_form():
    got = oracles.pauli_exponential(0.3, 0.7, (0.0, 0.0, 1.0))
    want = np.diag([np.exp(1j * (0.3 + 0.7)), np.exp(1j * (0.3 - 0.7))])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_pauli_exponential_against_expm():
    rng = np.random.default_rng(5)
    for _ in range(30):
        varphi, vartheta = rng.uniform(-math.pi, math.pi, size=2)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        got = oracles.pauli_exponential(varphi, vartheta, tuple(axis))
        want = oracles.pauli_exponential_expm(varphi, vartheta, axis)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert oracles.is_unitary(got)


def test_pauli_exponential_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        oracles.pauli_exponential(0.0, 0.1, (0.0, 0.0, 2.0))


# The Born-rule tests run on chip.broadband_probabilities with splitters
# that transmit fully (t = 1, r = 0): each MZI is then a bare pair of phase
# shifters, so the clicks are the generated state's Tr[rho P_c] in basis order.
OFF = optics.MmiParams(t=1.0, r=0.0)


def born(generation_mmi, xi=-math.pi / 2.0):
    cfg = chip.ChipConfig(generation_mmi=generation_mmi, mzi_mmis=(OFF,) * 4, xi=xi)
    rng = np.random.default_rng(7)  # the bare shifters only add phases
    return chip.broadband_probabilities(cfg, *rng.uniform(-2.0, 2.0, size=2))


def test_born_probability_basis_cases():
    np.testing.assert_allclose(born(OFF), [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(born(optics.MmiParams(t=0.0, r=1.0)), [0.0, 0.0, 0.0, 1.0],
                               atol=1e-15)
    assert born(optics.IDEAL_MMI)[0] == pytest.approx(0.5)
    rotated = XX @ PHI_PLUS
    np.testing.assert_allclose(rotated, PHI_PLUS, atol=1e-15)
    assert born(optics.IDEAL_MMI)[3] == pytest.approx(0.5)


def test_born_probability_completeness_and_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        t_power, r_power = rng.uniform(0.0, 0.5, size=2)
        xi = rng.uniform(-math.pi, math.pi)
        got = born(optics.MmiParams.from_power(t_power, r_power), xi)
        assert got.shape == (4,)
        assert got.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all((got >= 0.0) & (got <= 1.0))
        psi = chip.generation_state(xi, optics.MmiParams.from_power(t_power, r_power))
        projectors = [np.diag(np.eye(4)[c]).astype(complex) for c in range(4)]
        want = [oracles.born_by_loops(psi, p) for p in projectors]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_distribution_vector_and_dict():
    # distributions are basis-order arrays of 4 probabilities, as the event
    # simulation checks them
    def use(p):
        events.simulate_events(p, 1e3, 0.01, seed=1)

    use([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="4 entries"):
        use([0.5, 0.5])
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        use([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        use([0.1, 0.2, 0.3, 0.3])
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        use([float("nan"), 0.2, 0.3, 0.5])
    # a dict keyed by label is not one
    with pytest.raises(TypeError):
        use({"UF": 0.1, "UN": 0.2, "DF": 0.3, "DN": 0.4})
