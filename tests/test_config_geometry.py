import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lvmkit import config_geometry
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
from hull_oracle import _in_hull_exact, oracle_minimal_captures, oracle_report

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


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            in_convex_hull([(0, 0), (1, bad)], (0, 0))
        with pytest.raises(ValueError, match="must be finite"):
            in_convex_hull([(0, 0), (1, 0)], (bad, 0))


@st.composite
def small_integer_sets(draw):
    """3-6 points in 2-D or 5-8 points in 4-D with entries in -2..2, so
    that leading minors often vanish, and a target near the origin."""
    dim = draw(st.sampled_from((2, 4)))
    n = draw(st.integers(3, 6) if dim == 2 else st.integers(5, 8))
    entry = st.integers(-2, 2)
    points = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    target = draw(st.one_of(st.just([0] * dim),
                            st.lists(st.integers(-1, 1), min_size=dim,
                                     max_size=dim)))
    return points, target


def _captures(points, target):
    points = [[float(x) for x in p] for p in points]
    return list(config_geometry._minimal_captures(points,
                                                  [float(x) for x in target]))


class TestMinimalCaptures:
    """The minimal captures, decided by leading minors and cofactor signs
    with elimination only where a leading minor vanishes, against one
    Fraction solve per subset."""

    @settings(max_examples=200, deadline=None)
    @given(small_integer_sets())
    # the origin is one of the points: a capture of size 1
    @example(([[0, 0], [1, 2], [-1, 1]], [0, 0]))
    # an opposite pair
    @example(([[1, 2], [-1, -2], [2, -1]], [0, 0]))
    # the origin on a facet of a simplex: the facet is a capture, and the
    # simplex, whose cofactor at the fifth point is 0, is not
    @example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, -1, -1, 0],
               [0, 0, 0, 1]], [0, 0, 0, 0]))
    # independent columns whose leading minor is 0: elimination says no
    @example(([[0, 1], [1, 0], [2, 2]], [0, 0]))
    @example(([[1, 0, 0, 0], [2, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1],
               [1, 1, 1, 1]], [0, 0, 0, 0]))
    def test_matches_oracle(self, case):
        points, target = case
        assert _captures(points, target) == list(
            oracle_minimal_captures(points, target))

    def test_example_paths(self):
        assert _captures([[0, 0], [1, 2], [-1, 1]], [0, 0])[0] == (0,)
        assert _captures([[1, 2], [-1, -2], [2, -1]], [0, 0]) == [(0, 1)]
        facet = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, -1, -1, 0],
                 [0, 0, 0, 1]]
        assert _captures(facet, [0, 0, 0, 0]) == [(0, 1, 2, 3)]
        assert _captures([[0, 1], [1, 0], [2, 2]], [0, 0]) == []

    @pytest.mark.parametrize("dim, extra, seed", [
        (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1), (5, 1, 0), (5, 1, 1),
        (5, 2, 0), (5, 2, 1), (9, 1, 0), (9, 2, 0), (10, 1, 0), (10, 2, 0)])
    def test_exact_path_matches_oracle(self, monkeypatch, dim, extra, seed):
        # entries in -1..1, so that leading minors often vanish, and the
        # last point minus the sum of a few others, so that a capture exists
        n = dim + extra
        rng = np.random.default_rng([dim, n, seed])
        points = rng.integers(-1, 2, size=(n, dim))
        planted = rng.choice(n - 1, size=rng.integers(1, min(n - 1, dim + 1)),
                             replace=False)
        points[-1] = -points[planted].sum(0)
        monkeypatch.setattr(config_geometry, "_filtered_captures",
                            lambda points, target: None)
        calls = _counting_fallback(monkeypatch)
        expected = list(oracle_minimal_captures(points.tolist(), [0] * dim))
        assert expected and _captures(points, [0] * dim) == expected
        assert calls


def _counting_fallback(monkeypatch):
    calls = []
    solve = config_geometry._captures_origin

    def counted(columns, dim):
        calls.append(len(columns))
        return solve(columns, dim)

    monkeypatch.setattr(config_geometry, "_captures_origin", counted)
    return calls


def _halfspace_sextuple(rng):
    u = rng.normal(size=4)
    u /= np.linalg.norm(u)
    v = rng.normal(size=(6, 4))
    return v - 2 * np.minimum(v @ u, 0)[:, None] * u + 0.1 * u


def _generic_configurations():
    """Configurations shaped like the benchmark's analyze inputs: perturbed
    E1, sextuples in a closed half-space, and E1 continued to n = 8, 10
    under a perturbed basis."""
    rng = np.random.default_rng(2024)
    e1 = real_points(E1)
    for _ in range(10):
        yield e1 + rng.uniform(-0.02, 0.02, size=e1.shape)
        yield _halfspace_sextuple(rng)
    for n in (8, 10) * 3:
        basis = np.eye(4) + rng.uniform(-0.05, 0.05, size=(4, 4))
        negative = rng.uniform(-1.3, -0.8, size=(n - 4, 4))
        yield np.vstack([basis.T, negative @ basis.T])


def _counting_exact_path(monkeypatch):
    calls = []
    columns = config_geometry._integer_columns

    def counted(points, target):
        calls.append(len(points))
        return columns(points, target)

    monkeypatch.setattr(config_geometry, "_integer_columns", counted)
    return calls


class TestFallbackStaysDegenerate:
    """The integer enumeration runs only where the floating-point filter
    leaves a sign undecided, and elimination only where a leading minor
    vanishes: neither on generic data, both on the exact E1, whose report
    is pinned above."""

    def test_generic_configurations_never_eliminate(self, monkeypatch):
        calls = _counting_fallback(monkeypatch)
        for points in _generic_configurations():
            config_report(_config(points))
        assert calls == []

    def test_generic_configurations_never_enumerate(self, monkeypatch):
        calls = _counting_exact_path(monkeypatch)
        for points in _generic_configurations():
            config_report(_config(points))
        assert calls == []

    def test_exact_e1_eliminates(self, monkeypatch):
        calls = _counting_fallback(monkeypatch)
        exact = _counting_exact_path(monkeypatch)
        report = config_report(E1)
        assert report.type_triple == (2, 6, 4)
        assert report.indispensable == frozenset({1, 2, 3, 4})
        assert len(exact) == 1
        # subsets of 1, 2, 3 and 4 points solved by elimination
        assert [calls.count(k) for k in (1, 2, 3, 4)] == [3, 10, 13, 6]

    def test_filter_agrees_with_exact_path(self, monkeypatch):
        configs = [_config(points) for points in _generic_configurations()]
        filtered = [config_report(config) for config in configs]
        monkeypatch.setattr(config_geometry, "_filtered_captures",
                            lambda points, target: None)
        assert filtered == [config_report(config) for config in configs]


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


@st.composite
def float_point_sets(draw):
    """n points of R^dim, dim in (2, 4, 6), from normal draws: generic, or
    scaled by one power of two up to 2^+-1000 so that their determinants
    leave the float range, or with the origin planted on the facet of dim
    points and the last of them moved by 0-3 ulp."""
    dim = draw(st.sampled_from((2, 4, 6)))
    n = draw(st.integers(dim + 1, dim + (3 if dim < 6 else 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.normal(size=(n, dim))
    kind = draw(st.sampled_from(("generic", "scaled", "facet")))
    if kind == "scaled":
        points *= 2.0 ** draw(st.integers(-1000, 1000))
    elif kind == "facet":
        weights = rng.uniform(0.5, 2, size=dim - 1)
        points[dim - 1] = -weights @ points[:dim - 1]
        for _ in range(draw(st.integers(0, 3))):
            points[dim - 1, 0] = np.nextafter(points[dim - 1, 0], np.inf)
    return points.tolist(), [0.0] * dim


class TestFloatingPointFilter:
    """On float data the filter decides most inputs; where it does, its
    captures are the Fraction oracle's, and where it cannot, the exact
    path answers."""

    @settings(max_examples=60, deadline=None)
    @given(float_point_sets())
    def test_matches_oracle(self, case):
        points, target = case
        assert list(config_geometry._minimal_captures(points, target)) == \
            list(oracle_minimal_captures(points, target))

    @settings(max_examples=60, deadline=None)
    @given(float_point_sets())
    def test_minors_within_bound(self, case):
        # the filter's table of minors, in floats, against the same table
        # in Fractions of the same entries, each point scaled into [1/2, 1)
        points, target = case
        dim = len(target)
        shifts = [-math.frexp(max(map(abs, p)))[1] for p in points]
        floats = np.ldexp(points, np.array(shifts)[:, None]).T
        exact = np.array([[Fraction(v) * Fraction(2) ** k for v in p]
                          for p, k in zip(points, shifts)], object).T
        *_, (_, approx) = config_geometry._leading_minors(floats)
        *_, (_, minors) = config_geometry._leading_minors(exact)
        # the bound of `_filtered_captures`
        bound = (dim * (dim + 1) + 2 * dim - 2) * dim ** dim * 2.0 ** -53
        assert all(abs(Fraction(a) - m) <= bound
                   for a, m in zip(approx.tolist(), minors))

    def test_decides_generic_draws(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4, 6):
            points = rng.normal(size=(dim + 3, dim)).tolist()
            captures = config_geometry._filtered_captures(points, [0.0] * dim)
            assert captures == list(oracle_minimal_captures(points,
                                                            [0.0] * dim))

    def test_blocks_join_in_order(self, monkeypatch):
        points = np.random.default_rng(6).normal(size=(9, 4)).tolist()
        whole = config_geometry._filtered_captures(points, [0.0] * 4)
        monkeypatch.setattr(config_geometry, "_BLOCK", 4)
        assert config_geometry._filtered_captures(points, [0.0] * 4) == whole
        assert len(whole) > 4

    def test_small_block_built_once(self):
        # the one block of n = 10, m = 2 (252 subsets) is the cached level
        # of 5-subsets, kept between calls, and is the block that would be
        # streamed, so the captures do not change
        points = np.random.default_rng(7).normal(size=(10, 4)).tolist()
        first = config_geometry._filtered_captures(points, [0.0] * 4)
        kept = config_geometry._level(10, 5)
        assert config_geometry._level(10, 5) is kept
        streamed = config_geometry._indexed(
            list(itertools.combinations(range(10), 5)),
            config_geometry._ranks(10, 4))
        assert all(map(np.array_equal, kept, streamed))
        assert config_geometry._filtered_captures(points, [0.0] * 4) == first

    def test_defers_what_it_cannot_decide(self):
        # dim > 8, the origin exactly on a segment, at most dim points, an
        # overflow in the subtraction
        assert config_geometry._filtered_captures(
            np.eye(11, 10).tolist(), [-0.05] * 10) is None
        assert config_geometry._filtered_captures(
            [[1, 2], [-1, -2], [2, -1]], [0, 0]) is None
        assert config_geometry._filtered_captures(
            [[1, 0], [0, 1]], [0, 0]) is None
        assert config_geometry._filtered_captures(
            [[1e308, 0], [0, 1], [-1, -1]], [-1e308, 0]) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-1000, 1000), st.data())
    def test_report_invariant_under_scaling_and_permutation(self, seed, k,
                                                            data):
        rng = np.random.default_rng(seed)
        points = real_points(E1) + rng.uniform(-0.02, 0.02, size=(6, 4))
        if data.draw(st.booleans()):
            points = _halfspace_sextuple(rng)
        config = _config(points)
        report = config_report(config)
        assert config_report(_config(points * 2.0 ** k)) == report
        perm = data.draw(st.permutations(range(config.n)))
        indispensable = frozenset(i + 1 for i, j in enumerate(perm)
                                  if j + 1 in report.indispensable)
        assert config_report(_config(points[list(perm)])) == \
            dataclasses.replace(report, indispensable=indispensable)


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


class TestLinearInvariance:
    """Certification asks which subsets of the points of R^4 capture the
    origin in their convex hull, so an invertible real-linear map of R^4
    leaves the report unchanged.  Coordinate permutations, sign flips,
    power-of-two scalings and integer shears of the few-bit planted
    coordinates are such maps, exact in floating point."""

    @settings(max_examples=100, deadline=None)
    @given(planted_configurations(), st.data())
    def test_report_invariant_under_exact_linear_maps(self, config, data):
        points = real_points(config)
        shears = st.tuples(st.integers(0, 3), st.integers(0, 3),
                           st.integers(-3, 3)).filter(lambda t: t[0] != t[1])
        for i, j, k in data.draw(st.lists(shears, max_size=3)):
            points[:, i] += k * points[:, j]
        perm = data.draw(st.permutations(range(4)))
        signs = data.draw(st.tuples(*[st.sampled_from((-1.0, 1.0))] * 4))
        scales = data.draw(st.tuples(*[st.integers(-40, 40)] * 4))
        moved = points[:, perm] * np.array(signs) * 2.0 ** np.array(scales)
        assert config_report(_config(moved)) == config_report(config)


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

    @pytest.mark.parametrize("k", [-300, 600])
    def test_scale_free(self, k):
        # anchors whose Gram determinant under- or overflows
        scaled = Configuration(2, tuple(tuple(c * 2.0 ** k for c in v)
                                        for v in E1.vectors))
        assert normalize_affine(scaled) == normalize_affine(E1)

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

    @pytest.mark.parametrize("m", [2.7, True, "2", 2.0])
    def test_non_integer_m_refused(self, m):
        with pytest.raises(ValueError, match="m must be an integer, got %r"
                           % (m,)):
            Configuration(m, E1.vectors)

    def test_numpy_integer_m_accepted(self):
        config = Configuration(np.int64(2), E1.vectors)
        assert config == E1 and type(config.m) is int

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            Configuration(2, ((np.nan, 0), (0, 1), (1, 1), (2, 2), (3, 3)))
