import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvmkit.config_geometry import (
    ConfigReport,
    Configuration,
    NotLVMError,
    check_siegel,
    check_weak_hyperbolicity,
    classify_type,
    config_report,
    in_convex_hull,
    indispensable_points,
    normalize_affine,
    real_points,
)
from hull_oracle import _in_hull_exact, oracle_report

# The reference configuration used throughout: four axis vectors plus two
# nearly-parallel vectors in the (-1-i, -1-i) direction.
E1 = Configuration(2, (
    (1, 0),
    (1j, 0),
    (0, 1),
    (0, 1j),
    (-1 - 1j, -1 - 1j),
    (-1.1 - 1.1j, -1.1 - 1.1j),
))


def brute_force_in_hull(points, target, max_denominator=64):
    """Independent oracle: search rational convex combinations directly.

    Only used on small rational inputs; enumerates all subsets with an
    exact least-squares feasibility solve via numpy on Fraction-converted
    data, cross-checking the production Gaussian-elimination path.
    """
    pts = np.asarray(points, dtype=float)
    tgt = np.asarray(target, dtype=float)
    n, dim = pts.shape
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = pts[list(subset)]
            a = np.vstack([sub.T, np.ones(size)])
            b = np.concatenate([tgt, [1.0]])
            sol, residual, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            if np.max(np.abs(a @ sol - b)) < 1e-10 and np.min(sol) > -1e-10:
                return True
    return False


# dyadic coordinates whose exponents differ by up to 2^120
_WIDE = st.builds(lambda num, e: num * 2.0 ** e,
                  st.integers(-3, 3), st.integers(-60, 60))


class TestHullMembership:
    def test_triangle_interior(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        assert in_convex_hull(pts, (0.2, 0.2))
        assert not in_convex_hull(pts, (0.8, 0.8))

    def test_boundary_is_inside(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        assert in_convex_hull(pts, (0.5, 0.5))
        assert in_convex_hull(pts, (0, 0))
        assert in_convex_hull(pts, (1, 0))

    def test_exact_near_miss(self):
        # A point outside by one part in 2^40 must still be rejected exactly.
        eps = 2.0 ** -40
        pts = [(0, 0), (1, 0), (0, 1)]
        assert not in_convex_hull(pts, (0.5 + eps, 0.5 + eps))
        assert in_convex_hull(pts, (0.5 - eps, 0.5 - eps))

    def test_degenerate_collinear(self):
        pts = [(0, 0), (2, 2), (1, 1)]
        assert in_convex_hull(pts, (0.5, 0.5))
        assert not in_convex_hull(pts, (0.5, 0.6))

    def test_four_dimensional(self):
        pts = np.vstack([np.eye(4), -np.eye(4)])
        assert in_convex_hull(pts, np.zeros(4))
        assert not in_convex_hull(pts, (0.3, 0.3, 0.3, 0.3))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                    min_size=1, max_size=6),
           st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    def test_matches_brute_force(self, pts, tgt):
        assert in_convex_hull(pts, tgt) == brute_force_in_hull(pts, tgt)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=2, max_size=6),
           st.integers(0, 5))
    def test_monotone_under_extra_points(self, pts, extra_index):
        # adding points never removes membership
        if in_convex_hull(pts, (0, 0)):
            assert in_convex_hull(pts + [(extra_index, 1)], (0, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_WIDE, _WIDE, _WIDE), min_size=1, max_size=6),
           st.tuples(_WIDE, _WIDE, _WIDE))
    def test_matches_oracle_on_wide_dyadics(self, pts, tgt):
        # coordinates of very different binary exponents exercise the
        # common scaling and the subtraction of the target
        assert in_convex_hull(pts, tgt) == _in_hull_exact(pts, tgt)


class TestReferenceConfiguration:
    def test_type_triple(self):
        assert classify_type(E1) == (2, 6, 4)

    def test_indispensable_set(self):
        assert indispensable_points(E1) == {1, 2, 3, 4}

    def test_report(self):
        rep = config_report(E1)
        assert rep.is_siegel and rep.is_weakly_hyperbolic
        assert rep.type_triple == (2, 6, 4)
        assert rep.indispensable == frozenset({1, 2, 3, 4})

    def test_deletion_oracle(self):
        # independent re-derivation of indispensability straight from the
        # definition, using the brute-force hull oracle
        pts = real_points(E1)
        origin = np.zeros(4)
        expected = set()
        for j in range(6):
            rest = np.delete(pts, j, axis=0)
            if not brute_force_in_hull(rest, origin):
                expected.add(j + 1)
        assert expected == indispensable_points(E1)

    def test_siegel_fails_without_last_two(self):
        truncated = Configuration(2, E1.vectors[:5])
        # dropping vector 6 keeps Siegel; dropping 5 and 6 does not
        assert check_siegel(truncated)
        quad = Configuration(2, E1.vectors[:4] + (E1.vectors[0],))
        assert not check_siegel(quad)

    def test_weak_hyperbolicity_violation_detected(self):
        # replacing vector 6 by the exact opposite of vector 5 puts the
        # origin on a 2-point subset, killing weak hyperbolicity
        bad = Configuration(2, E1.vectors[:5] + ((1 + 1j, 1 + 1j),))
        assert not check_weak_hyperbolicity(bad)
        with pytest.raises(NotLVMError) as err:
            classify_type(bad)
        assert err.value.failed_condition == "weak hyperbolicity"

    def test_not_siegel_raises(self):
        shifted = Configuration(2, tuple(
            tuple(c + 10 for c in v) for v in E1.vectors))
        with pytest.raises(NotLVMError) as err:
            classify_type(shifted)
        assert err.value.failed_condition == "Siegel"


def _config(points):
    """Configuration from points of R^4 = (re z1, im z1, re z2, im z2)."""
    return Configuration(2, tuple(
        (complex(p[0], p[1]), complex(p[2], p[3])) for p in points))


def _plant(points, kind, idx, w):
    """Plant a degenerate structure on the distinct indices ``idx`` with
    positive integer weights ``w``."""
    p = [list(x) for x in points]
    i, j, k, l, h = idx[:5]

    def negated_sum(*terms):
        return [-sum(wt * p[t][d] for wt, t in zip(w, terms))
                for d in range(4)]

    if kind == "edge":  # origin inside the segment (i, j)
        p[j] = negated_sum(i)
    elif kind == "antipodal":
        p[j] = [-x for x in p[i]]
    elif kind == "triangle":  # origin inside the triangle (i, j, k)
        p[k] = negated_sum(i, j)
    elif kind == "facet":  # origin inside the tetrahedron (i, j, k, l)
        p[l] = negated_sum(i, j, k)
    elif kind == "simplex":  # origin inside the 4-simplex (i, j, k, l, h)
        p[h] = negated_sum(i, j, k, l)
    elif kind == "repeat":
        p[j] = list(p[i])
    elif kind == "collinear":  # p[j] is the midpoint of p[i] and p[k]
        p[k] = [2 * y - x for x, y in zip(p[i], p[j])]
    elif kind == "origin":
        p[i] = [0.0] * 4
    elif kind == "halfspace":  # closed half-space, origin on its boundary
        p = [[abs(x[0])] + x[1:] for x in p]
    return p


PLANTS = ("edge", "antipodal", "triangle", "facet", "simplex", "repeat",
          "collinear", "origin", "halfspace")


@st.composite
def planted_configurations(draw):
    """Small-integer or dyadic configurations in R^4 with n = 5..7 and up
    to two planted degeneracies.  Planting only adds and scales small
    dyadics, so every coordinate stays exact."""
    n = draw(st.integers(5, 7))
    top = draw(st.sampled_from((0, 3)))  # 0: small integers
    coord = st.builds(lambda num, e: num / 2.0 ** e,
                      st.integers(-4, 4), st.integers(0, top))
    points = draw(st.lists(st.tuples(coord, coord, coord, coord),
                           min_size=n, max_size=n))
    for kind in draw(st.lists(st.sampled_from(PLANTS), max_size=2)):
        idx = draw(st.permutations(range(n)))
        w = draw(st.tuples(*[st.integers(1, 3)] * 4))
        points = _plant(points, kind, idx, w)
    return _config(points)


def _e1_points(n=6):
    """E1 in R^4, continued for n > 6 along its negative ray."""
    ones = (1.0, 1.0, 1.0, 1.0)
    return ([list(row) for row in np.eye(4)]
            + [[-(1 + 0.1 * t) * x for x in ones] for t in range(n - 4)])


class TestOracleAgreement:
    """The one-pass report against the three-pass Fraction oracle."""

    @settings(max_examples=150, deadline=None)
    @given(planted_configurations())
    def test_report_matches_oracle(self, config):
        assert config_report(config) == oracle_report(config)

    @pytest.mark.parametrize("kind", PLANTS)
    @pytest.mark.parametrize("idx", [(0, 4, 5, 1, 2), (4, 5, 0, 2, 3)])
    def test_planted_e1_matches_oracle(self, kind, idx):
        config = _config(_plant(_e1_points(), kind, idx, (1, 2, 3, 1)))
        assert config_report(config) == oracle_report(config)

    @pytest.mark.parametrize("n", [8, 10])
    def test_e1_continued(self, n):
        config = _config(_e1_points(n))
        report = config_report(config)
        assert report.type_triple == (2, n, 4)
        assert report.indispensable == frozenset({1, 2, 3, 4})
        assert report == oracle_report(config)

    @pytest.mark.parametrize("tiny, expected", [
        (2.0 ** -1000, (True, True, {1, 2, 3, 4}, (2, 6, 4))),
        (0.0, (True, False, {1, 2, 3}, None)),
        (-2.0 ** -1000, (True, True, {1, 2, 3, 5}, (2, 6, 4))),
    ], ids=["positive", "zero", "negative"])
    def test_extreme_exponents(self, tiny, expected):
        # The fourth coordinate of the last point, 2^2000 times smaller
        # than its others, alone decides which subsets capture the origin.
        big = 2.0 ** 1000
        points = _e1_points(5) + [[-big, -big, -big, -tiny]]
        config = _config(points)
        siegel, hyperbolic, indispensable, triple = expected
        report = config_report(config)
        assert report == ConfigReport(siegel, hyperbolic,
                                      frozenset(indispensable), triple)
        assert report == oracle_report(config)


class TestPermutationInvariance:
    """Certification does not depend on the order of the points, and the
    indispensable set follows them (indices are 1-based)."""

    @settings(max_examples=100, deadline=None)
    @given(planted_configurations(), st.data())
    def test_report_permutes_with_points(self, config, data):
        perm = data.draw(st.permutations(range(config.n)))
        moved = Configuration(config.m, tuple(config.vectors[k] for k in perm))
        report = config_report(config)
        # point i + 1 of the moved configuration is point perm[i] + 1
        indispensable = frozenset(i + 1 for i, k in enumerate(perm)
                                  if k + 1 in report.indispensable)
        assert config_report(moved) == dataclasses.replace(
            report, indispensable=indispensable)


class TestNormalizeAffine:
    def test_anchors_map_correctly(self):
        norm = normalize_affine(E1)
        assert np.allclose(norm.vectors[0], (1, 0), atol=1e-12)
        assert np.allclose(norm.vectors[1], (0, 1), atol=1e-12)
        assert np.allclose(norm.vectors[2], (0, 0), atol=1e-12)

    def test_idempotent(self):
        once = normalize_affine(E1)
        twice = normalize_affine(once)
        for v, w in zip(once.vectors, twice.vectors):
            assert np.allclose(v, w, atol=1e-12)

    def test_invariant_under_prior_affine_map(self):
        mat = np.array([[2 + 1j, 0.5], [-1j, 3]])
        b = np.array([0.7 - 0.2j, 1.5j])
        moved = Configuration(2, tuple(
            tuple(mat @ np.asarray(v) + b) for v in E1.vectors))
        a_norm = normalize_affine(E1)
        b_norm = normalize_affine(moved)
        for v, w in zip(a_norm.vectors, b_norm.vectors):
            assert np.allclose(v, w, atol=1e-9)

    def test_degenerate_anchors_rejected(self):
        degenerate = Configuration(2, (
            (0, 0), (1, 1), (2, 2), (0, 1j), (-1, -1), (3, 0)))
        with pytest.raises(ValueError):
            normalize_affine(degenerate)


class TestConfigurationValidation:
    def test_too_few_vectors(self):
        with pytest.raises(ValueError):
            Configuration(2, ((1, 0), (0, 1)))

    def test_wrong_width(self):
        with pytest.raises(ValueError):
            Configuration(2, ((1,), (0, 1), (1, 1), (2, 2), (3, 3)))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            Configuration(2, ((np.nan, 0), (0, 1), (1, 1), (2, 2), (3, 3)))
