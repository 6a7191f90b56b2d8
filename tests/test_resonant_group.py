import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import (
    _eig2,
    _expm2,
    _logm2,
    AlgebraElement,
    BranchDomain,
    GroupElement,
    IllConditioned,
    PointV,
    apply,
    commutation_residual,
    compose,
    conjugate,
    diagonalize_pair,
    element_from_params,
    group_dim,
    group_exp,
    group_log,
    identity,
    inverse,
    simultaneous_triangularize,
    tau,
    triangularize,
    twist,
    untwist,
)
from verify_bounds import GAMMA

NR = ResonanceClass("NonResonant")
S12 = ResonanceClass("Single", p=1, q=2)
D1 = ResonanceClass("Double", p=1)

ACTION_TOL = 1e-10
GROUP_TOL = 1e-12


def random_point(rng, radius=1.5):
    xi = rng.uniform(0.4, radius, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    return PointV(tuple(xi))


def random_element(regime, rng, spread=1.0):
    def scalar():
        return complex(rng.uniform(0.5, 0.5 + spread)
                       * np.exp(2j * np.pi * rng.uniform()))
    if regime.tag == "NonResonant":
        return GroupElement(regime, (scalar(), scalar(), scalar()))
    if regime.tag == "Single":
        return GroupElement(regime, (scalar(), scalar(), scalar(),
                                     complex(rng.normal(), rng.normal())))
    while True:
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(mat)) > 0.1:
            return GroupElement(regime, (scalar(), mat))


def params_distance(f, g):
    return float(np.max(np.abs(f.params() - g.params())))


class TestApply:
    def test_identity_fixes_points(self):
        rng = np.random.default_rng(0)
        for regime in (NR, S12, D1):
            x = random_point(rng)
            y = apply(identity(regime), x)
            assert np.allclose(y.array(), x.array(), atol=1e-14)

    def test_single_substitution(self):
        f = GroupElement(S12, (2, 0.6, 0.72, 1))
        y = apply(f, PointV((1, 1, 0)))
        assert np.allclose(y.array(), (2, 0.6, 1), atol=1e-14)

    def test_double_diagonal_matches_nonresonant(self):
        rng = np.random.default_rng(1)
        a1, a2, a3 = 1.3 + 0.4j, 0.8 - 0.1j, 2.1j
        fd = GroupElement(D1, (a1, np.diag([a2, a3])))
        fn = GroupElement(NR, (a1, a2, a3))
        for _ in range(10):
            x = random_point(rng)
            assert np.allclose(apply(fd, x).array(), apply(fn, x).array(),
                               atol=1e-12)

    def test_rejects_point_outside_domain(self):
        with pytest.raises(ValueError):
            PointV((0, 1, 1))
        with pytest.raises(ValueError):
            PointV((1, 0, 0))


class TestComposeInverse:
    def test_single_worked_product(self):
        f = GroupElement(S12, (2, 0.6, 0.72, 1))
        g = GroupElement(S12, (1 + 1j, 0.5j, -0.25 - 0.25j, 0))
        out = compose(f, g)
        assert np.allclose(out.params(),
                           (2 + 2j, 0.3j, -0.18 - 0.18j, -0.25 - 0.25j),
                           atol=1e-14)

    def test_identity_neutral(self):
        rng = np.random.default_rng(2)
        for regime in (NR, S12, D1):
            f = random_element(regime, rng)
            assert params_distance(compose(f, identity(regime)), f) < GROUP_TOL
            assert params_distance(compose(identity(regime), f), f) < GROUP_TOL

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for regime in (NR, S12, D1):
            for _ in range(20):
                f = random_element(regime, rng)
                assert params_distance(compose(f, inverse(f)),
                                       identity(regime)) < 1e-11
                assert params_distance(compose(inverse(f), f),
                                       identity(regime)) < 1e-11

    def test_single_inverse_closed_form(self):
        f = GroupElement(S12, (2, 0.6, 0.72, 1))
        inv = inverse(f)
        assert np.allclose(inv.params(),
                           (0.5, 1 / 0.6, 1 / 0.72, -1 / (0.72 * 2 * 0.36)),
                           atol=1e-14)

    def test_action_homomorphism(self):
        rng = np.random.default_rng(4)
        for regime in (NR, S12, D1):
            for _ in range(100):
                f = random_element(regime, rng)
                g = random_element(regime, rng)
                x = random_point(rng)
                lhs = apply(compose(f, g), x).array()
                rhs = apply(f, apply(g, x)).array()
                assert np.max(np.abs(lhs - rhs)) < ACTION_TOL * (1 + np.max(np.abs(lhs)))

    def test_associativity(self):
        rng = np.random.default_rng(5)
        for regime in (NR, S12, D1):
            for _ in range(30):
                f, g, h = (random_element(regime, rng) for _ in range(3))
                lhs = compose(compose(f, g), h)
                rhs = compose(f, compose(g, h))
                assert params_distance(lhs, rhs) < 1e-10 * (
                    1 + np.max(np.abs(lhs.params())))

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(NR), identity(S12))

    def test_params_round_trip(self):
        rng = np.random.default_rng(6)
        for regime in (NR, S12, D1):
            f = random_element(regime, rng)
            g = element_from_params(regime, f.params())
            assert params_distance(f, g) == 0


def commuting_single_pair(rng, regime=S12, resonant_linear=False):
    """Random commuting Single pair via the shear relation
    delta (a3 - a1^p a2^q) = eps (b3 - b1^p b2^q)."""
    p, q = regime.p, regime.q
    while True:
        a = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        b = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        if resonant_linear:
            a[2] = a[0] ** p * a[1] ** q
            b[2] = b[0] ** p * b[1] ** q
            eps = complex(rng.normal(), rng.normal())
            delta = complex(rng.normal(), rng.normal())
            return (GroupElement(regime, (*a, eps)),
                    GroupElement(regime, (*b, delta)))
        ga = a[2] - a[0] ** p * a[1] ** q
        gb = b[2] - b[0] ** p * b[1] ** q
        if abs(ga) > 0.1:
            eps = complex(rng.normal(), rng.normal())
            delta = eps * gb / ga
            return (GroupElement(regime, (*a, eps)),
                    GroupElement(regime, (*b, delta)))


class TestCommutationResidual:
    def test_self_zero(self):
        rng = np.random.default_rng(7)
        for regime in (NR, S12, D1):
            f = random_element(regime, rng)
            assert commutation_residual(f, f) == 0

    def test_shear_relation_pairs_commute(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f, g = commuting_single_pair(rng)
            assert commutation_residual(f, g) < 1e-12 * (
                1 + np.max(np.abs(f.params())) * np.max(np.abs(g.params())))

    def test_violated_relation_positive(self):
        f = GroupElement(S12, (2, 0.6, 0.72, 1))
        g = GroupElement(S12, (3, 0.5, 0.3, 0))
        # eps (b3 - b1 b2^2) = 1 * (0.3 - 3 * 0.25) != 0
        assert commutation_residual(f, g) > 0.4

    def test_matches_displayed_relation_for_single(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = random_element(S12, rng)
            g = random_element(S12, rng)
            a1, a2, a3, eps = f.data
            b1, b2, b3, delta = g.data
            displayed = abs(eps * (b3 - b1 * b2 ** 2) - delta * (a3 - a1 * a2 ** 2))
            assert np.isclose(commutation_residual(f, g), displayed, atol=1e-12)


class TestTriangularize:
    def test_already_triangular(self):
        f = GroupElement(D1, (2, np.array([[1.5, 0], [0.3, 0.7]])))
        h, t = triangularize(f)
        assert params_distance(h, identity(D1)) == 0
        assert params_distance(t, f) == 0

    def test_swap_matrix_example(self):
        f = GroupElement(D1, (2, np.array([[0.0, 1.0], [1.0, 0.0]])))
        h, t = triangularize(f)
        _, mat = t.data
        assert abs(mat[0, 1]) < 1e-10
        # eigen-root of 2 X^2 - 1 appears on the diagonal after untwisting
        lam = mat[1, 1] / 2  # second diagonal entry equals lam * a1^p
        assert np.isclose(abs(lam), 1 / np.sqrt(2), atol=1e-10)
        assert params_distance(compose(h, t), compose(f, h)) < 1e-10

    def test_random_conjugation_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            f = random_element(D1, rng)
            h, t = triangularize(f)
            _, mat = t.data
            scale = 1 + np.max(np.abs(f.params()))
            assert abs(mat[0, 1]) < 1e-10 * scale
            assert params_distance(compose(h, t), compose(f, h)) < 1e-9 * scale


class TestSimultaneousTriangularize:
    def make_commuting_double_pair(self, rng):
        d_f = GroupElement(D1, (1.3 + 0.2j, np.diag([0.9 + 0.5j, 1.7 - 0.3j])))
        d_g = GroupElement(D1, (0.7 - 0.4j, np.diag([2.0j, 0.6 + 0.8j])))
        while True:
            pmat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if abs(np.linalg.det(pmat)) > 0.3:
                break
        h = GroupElement(D1, (1, pmat))
        return (compose(h, compose(d_f, inverse(h))),
                compose(h, compose(d_g, inverse(h))))

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f, g = self.make_commuting_double_pair(rng)
            h, t_f, t_g = simultaneous_triangularize(f, g)
            for orig, tri in ((f, t_f), (g, t_g)):
                _, mat = tri.data
                scale = 1 + np.max(np.abs(orig.params()))
                assert abs(mat[0, 1]) < 1e-10 * scale
                assert params_distance(compose(h, tri), compose(orig, h)) < 1e-9 * scale

    def test_already_triangular_pair(self):
        f = GroupElement(D1, (2, np.diag([1.5, 0.7])))
        g = GroupElement(D1, (3, np.diag([0.4, 1.1])))
        h, t_f, t_g = simultaneous_triangularize(f, g)
        assert abs(t_f.data[1][0, 1]) < 1e-12
        assert abs(t_g.data[1][0, 1]) < 1e-12

    def test_noncommuting_rejected(self):
        f = GroupElement(D1, (2, np.array([[0, 1], [1, 0]])))
        g = GroupElement(D1, (3, np.array([[1, 1], [0, 1]])))
        with pytest.raises(ValueError):
            simultaneous_triangularize(f, g)


class TestDiagonalizePair:
    def test_worked_coefficient(self):
        f = GroupElement(S12, (2, 0.6, 0.5, 1))
        # commuting partner via the shear relation
        b = (1.1, 0.9, 0.8)
        delta = 1 * (b[2] - b[0] * b[1] ** 2) / (0.5 - 2 * 0.36)
        g = GroupElement(S12, (*b, delta))
        h, d_f, d_g = diagonalize_pair(f, g)
        assert np.isclose(h.data[3], -1 / (0.5 - 0.72), atol=1e-12)
        assert abs(d_f.data[3]) < 1e-12
        assert abs(d_g.data[3]) < 1e-12
        assert params_distance(compose(h, d_f), compose(f, h)) < 1e-10

    def test_trivial_pair(self):
        f = GroupElement(S12, (2, 0.6, 0.5, 0))
        g = GroupElement(S12, (3, 0.4, 0.9, 0))
        h, d_f, d_g = diagonalize_pair(f, g)
        assert params_distance(h, identity(S12)) == 0
        assert params_distance(d_f, f) < 1e-14

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            f, g = commuting_single_pair(rng)
            h, d_f, d_g = diagonalize_pair(f, g)
            scale = 1 + max(np.max(np.abs(f.params())), np.max(np.abs(g.params())))
            assert abs(d_f.data[3]) < 1e-10 * scale
            assert abs(d_g.data[3]) < 1e-10 * scale

    def test_resonant_linear_part_refused(self):
        f = GroupElement(S12, (2, 0.6, 2 * 0.36, 1))
        g = GroupElement(S12, (1, 1, 1, 0.5))
        with pytest.raises(IllConditioned):
            diagonalize_pair(f, g)


class TestUntwist:
    def test_diagonal_unchanged(self):
        mat = np.diag([1.5 + 1j, 0.4])
        f = GroupElement(D1, (2, mat))
        a1, n = untwist(f)
        assert a1 == 2
        assert np.allclose(n, np.diag([1.5 + 1j, 0.2]), atol=1e-14)

    def test_homomorphism(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            f = random_element(D1, rng)
            g = random_element(D1, rng)
            a, n = untwist(compose(f, g))
            af, nf = untwist(f)
            ag, ng = untwist(g)
            assert np.isclose(a, af * ag, atol=1e-12)
            assert np.allclose(n, nf @ ng, atol=1e-12 * (1 + np.max(np.abs(n))))

    def test_twist_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            f = random_element(D1, rng)
            g = twist(D1, *untwist(f))
            assert params_distance(f, g) < 1e-13

    def test_action_in_untwisted_coordinates(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            f = random_element(D1, rng)
            a1, n = untwist(f)
            x = random_point(rng)
            xi = x.array()
            u = np.array([xi[1], xi[0] ** -1 * xi[2]])  # (xi2, xi1^{-p} xi3)
            v = n @ u
            y1 = a1 * xi[0]
            expected = np.array([y1, v[0], y1 ** 1 * v[1]])
            assert np.allclose(apply(f, x).array(), expected,
                               atol=1e-11 * (1 + np.max(np.abs(expected))))


def random_algebra_element(regime, rng, radius=0.3):
    def small():
        return complex(rng.normal(), rng.normal()) * radius / 3
    if regime.tag == "NonResonant":
        return AlgebraElement(regime, (small(), small(), small()))
    if regime.tag == "Single":
        return AlgebraElement(regime, (small(), small(), small(), small()))
    k = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * radius / 4
    return AlgebraElement(regime, (small(), k))


class TestExpLog:
    def test_identity_and_zero(self):
        for regime in (NR, S12, D1):
            x = group_log(identity(regime))
            if regime.tag == "Double":
                assert x.data[0] == 0 and np.allclose(x.data[1], 0)
            else:
                assert all(v == 0 for v in x.data)
            f = group_exp(x)
            assert params_distance(f, identity(regime)) < 1e-14

    def test_nonresonant_scalar_logs(self):
        f = GroupElement(NR, (np.e, np.e ** 2, np.e ** 3))
        x = group_log(f)
        assert np.allclose(x.data, (1, 2, 3), atol=1e-12)

    def test_round_trip_near_identity(self):
        rng = np.random.default_rng(16)
        for regime in (NR, S12, D1):
            for _ in range(30):
                x = random_algebra_element(regime, rng)
                f = group_exp(x)
                y = group_log(f)
                g = group_exp(y)
                assert params_distance(f, g) < 1e-10

    def test_one_parameter_subgroup_property(self):
        # exp(x) exp(x) = exp(2x), nontrivially for the Single shear slot
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_algebra_element(S12, rng)
            lhs = compose(group_exp(x), group_exp(x))
            rhs = group_exp(x.scaled(2))
            assert params_distance(lhs, rhs) < 1e-12

    def test_branch_domain(self):
        a1 = np.exp(0.9j * np.pi)
        a2 = np.exp(0.9j * np.pi)
        a3 = a1 * a2 ** 2  # principal logs then satisfy exp(mu) = exp(x3), mu != x3
        f = GroupElement(S12, (a1, a2, a3, 1))
        with pytest.raises(BranchDomain):
            group_log(f)

    def test_branch_domain_zero_eps_ok(self):
        a1 = np.exp(0.9j * np.pi)
        a2 = np.exp(0.9j * np.pi)
        f = GroupElement(S12, (a1, a2, a1 * a2 ** 2, 0))
        x = group_log(f)
        assert x.data[3] == 0


def _closed_form_error(fn, k):
    """A bound on the error the complex products of `_expm2` or `_logm2`
    (each within GAMMA = sqrt(5) u of exact) put on each matrix of the
    stack k, the other steps being the same on a stack and on one matrix.

    Both are f0 I + f1 C with C = K - m I and f0, f1 functions of m and
    s^2 = d^2 + k12 k21, whose two products and sum put an error of at
    most 3 GAMMA (|d|^2 + |k12 k21|) on s^2.  For exp, f0 = e^m cosh s and
    f1 = e^m sinh(s) / s, both moving by at most e^m cosh|s| / 2 per unit
    of s^2; for log, f0 = log(l1 l2) / 2 moves by 1 / (2 |l1 l2|) and the
    divided difference f1 = D by 0.6 / |m|^3 while |s| <= |m| / 2 (its
    series in (s / m)^2) and by (|m| / |l1 l2| + |D|) / (2 |s^2|) beyond.
    The products f1 C and e^m (cosh, sinh) and the quotients of D add a
    few GAMMA relative to their sizes.
    """
    m, s2, c = _eig2(k)
    d = (k[:, 0, 0] - k[:, 1, 1]) / 2
    ds2 = 3 * GAMMA * (np.abs(d) ** 2 + np.abs(k[:, 0, 1] * k[:, 1, 0]))
    cn = np.linalg.norm(c, axis=(1, 2))
    s = np.abs(np.sqrt(s2))
    if fn is _expm2:
        size = np.exp(m.real) * np.cosh(s)
        return size * ((0.5 + cn) * ds2 + 6 * GAMMA * (1 + cn))
    lam1lam2 = np.abs(m ** 2 - s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(s <= np.abs(m) / 2, 1 / np.abs(m),
                      np.abs(np.log((m + np.sqrt(s2)) / (m - np.sqrt(s2))))
                      / (2 * s))
        slope = np.where(s <= np.abs(m) / 2, 0.6 / np.abs(m) ** 3,
                         (np.abs(m) / lam1lam2 + dd) / (2 * np.abs(s2)))
    return ((1 / (2 * lam1lam2) + slope * cn) * ds2 + 8 * GAMMA * dd * cn
            + 2 * GAMMA * np.abs(np.log(lam1lam2)) / 2 + 2 * GAMMA)


def _kind_matrix(rng, kind, scale):
    """A 2x2 matrix of the given kind, scaled to max-entry `scale`."""
    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    p = c(2, 2)
    if kind == "diagonal":
        k = np.diag(c(2))
    elif kind == "nilpotent":
        k = p @ np.array([[0, 1], [0, 0]]) @ np.linalg.inv(p)
    elif kind == "defective":
        k = p @ (c(1)[0] * np.array([[1, 1], [0, 1]])) @ np.linalg.inv(p)
    elif kind == "near-confluent":
        lam = c(1)[0]
        k = p @ np.diag([lam, lam + 10 ** rng.uniform(-12, -3)]) @ np.linalg.inv(p)
    else:
        k = c(2, 2)
    return k / np.max(np.abs(k)) * scale


class TestClosedForm2x2:
    """The closed-form 2x2 exp and log against scipy's general ones."""

    KINDS = ("random", "diagonal", "nilpotent", "defective", "near-confluent")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KINDS), st.floats(-6, np.log10(3)),
           st.integers(0, 2 ** 32 - 1))
    def test_expm_against_scipy(self, kind, log_scale, seed):
        k = _kind_matrix(np.random.default_rng(seed), kind, 10 ** log_scale)
        want = scipy.linalg.expm(k)
        assert np.max(np.abs(_expm2(k) - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KINDS), st.floats(-6, np.log10(3)),
           st.integers(0, 2 ** 32 - 1))
    def test_logm_inverts_expm(self, kind, log_scale, seed):
        # with the spectrum of K inside the strip |Im| < pi, log exp K is
        # K; scipy's logm agrees
        k = _kind_matrix(np.random.default_rng(seed), kind, 10 ** log_scale)
        assume(np.all(np.abs(np.linalg.eigvals(k).imag) < 3))
        n = _expm2(k)
        got = _logm2(n)
        assert np.max(np.abs(got - k)) <= 1e-10 * (1 + np.max(np.abs(k)))
        assert np.max(np.abs(got - scipy.linalg.logm(n))) <= \
            1e-10 * (1 + np.max(np.abs(k)))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-6, -1), st.floats(-1, 1), st.floats(-1, 1),
           st.sampled_from([(1, 1), (1, -1), (-1, -1)]),
           st.integers(0, 2 ** 32 - 1))
    def test_logm_near_the_negative_axis(self, log_gap, log_r, log_ratio,
                                         sides, seed):
        # eigenvalues at argument +-(pi - gap), on one side of the cut or
        # on both, conjugated by a well-conditioned matrix; on both sides
        # the log is as sensitive as |lambda| / |lambda1 - lambda2|
        rng = np.random.default_rng(seed)
        theta = np.pi - 10 ** log_gap
        lam = 10 ** log_r * np.exp(1j * theta * np.array(sides)) \
            * np.array([1, 10 ** log_ratio])
        p = np.eye(2) + 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        n = p @ np.diag(lam) @ np.linalg.inv(p)
        want = scipy.linalg.logm(n)
        with np.errstate(divide="ignore"):  # coincident eigenvalues
            sensitivity = 1 + np.max(np.abs(lam)) / abs(lam[0] - lam[1])
        assert np.max(np.abs(_logm2(n) - want)) <= 1e-13 * sensitivity \
            * np.linalg.cond(p) ** 2 * (1 + np.max(np.abs(want)))

    def test_stack_rounds_as_its_matrices(self):
        # a stack and its single matrices differ only in the rounding of
        # their complex products (sqrt(5) u each; Brent, Percival and
        # Zimmermann, Math. Comp. 76, 2007), so each agrees with the other
        # within twice the error those products put on the closed forms
        rng = np.random.default_rng(5)
        k = np.array([_kind_matrix(rng, kind, scale) for kind in self.KINDS
                      for scale in (1e-6, 1e-3, 1, 3)])
        for stacked, fn in ((_expm2(k), _expm2), (_logm2(_expm2(k)), _logm2)):
            arg = k if fn is _expm2 else _expm2(k)
            bound = 2 * _closed_form_error(fn, arg)
            for i in range(len(k)):
                assert np.max(np.abs(fn(arg[i]) - stacked[i])) <= bound[i]

    def test_log_on_the_negative_axis(self):
        # numpy's principal log takes argument pi there, as scipy does
        n = np.diag([-0.99, 1.03]).astype(complex)
        assert np.allclose(_logm2(n), scipy.linalg.logm(n), atol=1e-15)

    def test_log_branch_domain(self):
        # eigenvalues -1 +- 1e-10 i straddle the cut: ill-conditioned
        with pytest.raises(BranchDomain, match="ill-conditioned"):
            _logm2(np.array([[-1, -1e-10], [1e-10, -1]], dtype=complex))
        with pytest.raises(BranchDomain, match="singular"):
            _logm2(np.array([[1, 1], [1, 1]], dtype=complex))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 2.5))
    def test_group_exp_log_round_trip(self, seed, radius):
        # the existing 1e-8 round-trip check of group_log holds on the
        # closed forms
        rng = np.random.default_rng(seed)
        for p in (-2, 1, 3):
            x = random_algebra_element(ResonanceClass("Double", p=p), rng,
                                       radius)
            f = group_exp(x)
            g = group_exp(group_log(f))
            assert params_distance(f, g) <= 1e-8 * (1 + np.max(np.abs(f.params())))


class TestGroupDim:
    def test_values(self):
        assert group_dim(NR) == 3
        assert group_dim(S12) == 4
        assert group_dim(D1) == 5


class TestTau:
    def test_entries(self):
        mat = np.array([[1, 2], [3, 4]], dtype=complex)
        out = tau(2, 1, mat)
        assert np.allclose(out, [[1, 1], [6, 4]])

    def test_conjugation_form(self):
        rng = np.random.default_rng(18)
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        z = 1.3 - 0.7j
        lmat = np.diag([1, z ** 3])
        assert np.allclose(tau(z, 3, mat), lmat @ mat @ np.linalg.inv(lmat),
                           atol=1e-12)
