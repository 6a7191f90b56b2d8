import numpy as np
import pytest

from lvmkit.config_geometry import Configuration, normalize_affine
from lvmkit.holonomy import (
    HolonomyPair,
    holonomy_pair,
    omega_matrix,
    pair_from_flat,
    validate_holonomy,
)

E1 = Configuration(2, (
    (1, 0),
    (1j, 0),
    (0, 1),
    (0, 1j),
    (-1 - 1j, -1 - 1j),
    (-1.1 - 1.1j, -1.1 - 1.1j),
))


def eigen_data_oracle(config):
    """Independent evaluation path: solve Omega^T x = d instead of
    inverting Omega, then exponentiate."""
    v = [np.asarray(w, dtype=complex) for w in config.vectors]
    omega = np.array([v[1] - v[0], v[2] - v[0]])
    alpha, beta = [], []
    for j in range(3):
        d = v[j + 3] - v[0]
        # <d, Omega^{-1} K> = (Omega^{-T} d) . K
        y = np.linalg.solve(omega.T, d)
        alpha.append(np.exp(2j * np.pi * y[0]))
        beta.append(np.exp(2j * np.pi * y[1]))
    return np.array(alpha), np.array(beta)


class TestOmegaMatrix:
    def test_reference_value(self):
        omega = omega_matrix(E1)
        expected = np.array([[-1 + 1j, 0], [-1, 1]])
        assert np.allclose(omega, expected, atol=1e-14)
        assert np.isclose(np.linalg.det(omega), -1 + 1j)

    def test_normalized_reference(self):
        omega = omega_matrix(normalize_affine(E1))
        expected = np.array([[-1, 1], [-1, 0]])
        assert np.allclose(omega, expected, atol=1e-12)

    def test_singular_difference_matrix(self):
        bad = Configuration(2, (E1.vectors[0], (2, 3), (2, 3))
                            + E1.vectors[3:])
        with pytest.raises(ValueError,
                           match="^difference matrix Omega rounds to singular$"):
            omega_matrix(bad)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_invertible_at_any_scale(self, k):
        # det(Omega) under- or overflows at 2^k, but Omega stays invertible
        scaled = Configuration(2, tuple(tuple(c * 2.0 ** k for c in v)
                                        for v in E1.vectors))
        assert np.array_equal(omega_matrix(scaled),
                              omega_matrix(E1) * 2.0 ** k)
        pair, reference = holonomy_pair(scaled), holonomy_pair(E1)
        assert (pair.alpha, pair.beta) == (reference.alpha, reference.beta)


class TestHolonomyPair:
    def test_matches_independent_path(self):
        pair = holonomy_pair(E1)
        alpha, beta = eigen_data_oracle(E1)
        assert np.allclose(pair.alpha, alpha, atol=1e-12)
        assert np.allclose(pair.beta, beta, atol=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            while True:
                mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                if np.linalg.cond(mat) <= 1e3:
                    break
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            moved = Configuration(2, tuple(
                tuple(mat @ np.asarray(v) + b) for v in E1.vectors))
            base = holonomy_pair(E1)
            other = holonomy_pair(moved)
            assert np.allclose(base.alpha, other.alpha, atol=1e-10)
            assert np.allclose(base.beta, other.beta, atol=1e-10)

    def test_output_validates(self):
        assert validate_holonomy(holonomy_pair(E1)) == []

    def test_zero_pairing_gives_unit_multiplier(self):
        # Lambda_4 - Lambda_1 orthogonal to Omega^{-1} e1 forces alpha_1 = 1.
        # Build from normalized anchors: Omega = [[-1,1],[-1,0]],
        # Omega^{-1} e1 = (0, 1)... choose the tail so the first pairing is 0.
        cfg = Configuration(2, (
            (1, 0), (0, 1), (0, 0),
            (1, 0 + 0j),   # d = (0,0) pairs to zero with both columns
            (-0.6 - 0.3j, -0.8 - 0.3j),
            (-0.7 - 0.35j, -0.9 - 0.25j),
        ))
        v = [np.asarray(w, dtype=complex) for w in cfg.vectors]
        omega = np.array([v[1] - v[0], v[2] - v[0]])
        d = v[3] - v[0]
        u = d @ np.linalg.inv(omega)[:, 0]
        alpha_1 = np.exp(2j * np.pi * u)
        if abs(u) < 1e-14:
            assert alpha_1 == 1

    def test_flat_round_trip(self):
        pair = HolonomyPair((2, 0.5, 0.3), (3, 0.4j, 0.2))
        again = pair_from_flat(pair.flat())
        assert again.alpha == pair.alpha and again.beta == pair.beta


    def test_structural_violation_refused(self):
        # Omega = I, so u_1, w_1 are the real entries of Lambda_4 and
        # alpha_1, beta_1 both lie on the unit circle
        config = Configuration(2, ((0, 0), (1, 0), (0, 1), (0.5, 0.25),
                                   (0.3 + 0.2j, 0.1j), (1j, 0.7 + 0.5j)))
        with pytest.raises(ValueError, match="^eigen-data violates structural "
                           "constraints: component 1 has both multipliers on "
                           "the unit circle$"):
            holonomy_pair(config)

class TestValidateHolonomy:
    def test_admissible(self):
        h = HolonomyPair((2, 0.5, 0.3), (3, 0.4j, 0.2))
        assert validate_holonomy(h) == []

    def test_unit_circle_violation(self):
        h = HolonomyPair((1, 2, 3), (1j, 4, 5))
        out = validate_holonomy(h)
        assert len(out) == 1 and "component 1" in out[0]

    def test_equal_pair_violation(self):
        h = HolonomyPair((2, 2, 0.5), (3, 3, 0.5))
        out = validate_holonomy(h)
        assert len(out) == 1 and "components 1 and 2" in out[0]

    def test_equal_pairs_within_1e12_of_the_modulus(self):
        # one ulp apart counts as identical, as the unit-circle check
        # beside it counts 1e-12 as on the circle; 1e-9 apart does not
        a = 1.5 - 0.25j
        for gap, flagged in ((np.spacing(1.5), True), (1e-9, False)):
            h = HolonomyPair((a, a + gap, 0.5), (3, 3, 0.5))
            assert bool(validate_holonomy(h)) == flagged

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            HolonomyPair((0, 1, 1), (1, 1, 1))
