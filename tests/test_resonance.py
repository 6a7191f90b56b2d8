import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lvmkit.holonomy import HolonomyPair
from lvmkit.resonance import (
    NEAR_SHOWN,
    Resonance,
    ResonanceClass,
    ResonantVectorField,
    UnclassifiableResonancePattern,
    _screen_bound,
    _screened,
    bracket,
    check_resonant,
    classify_regime,
    cohomology_dims,
    find_resonances,
    first_obstruction_vanishes,
)
from resonance_oracle import box_screen, exhaustive_resonances

FLOW_TOLERANCE = 1e-6
SMALL_BOUND = 8

H_SINGLE = HolonomyPair((2, 0.6, 0.72), (1 + 1j, 0.5j, -0.25 - 0.25j))
H_NONRES = HolonomyPair((2, 0.5, 0.3), (3, 0.4j, 0.2))
H_DOUBLE = HolonomyPair((2, 0.5, 0.5), (3, 0.4j, 0.4j))

TRIVIAL = {(1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1))}


def as_set(resonances):
    return {(r.j, r.p) for r in resonances}


def screened_box(h, tol, bound):
    """`_screened` on the box find_resonances searches."""
    logs = [np.log(np.asarray(v, dtype=complex)) for v in (h.alpha, h.beta)]
    box = np.arange(bound + 1)
    return _screened(logs, (1, 2, 3), box, box, tol, bound)


class TestFindResonances:
    def test_single_regime_example(self):
        out = as_set(find_resonances(H_SINGLE, bound=SMALL_BOUND))
        assert out == TRIVIAL | {(3, (1, 2, 0))}

    def test_nonresonant_example(self):
        out = as_set(find_resonances(H_NONRES, bound=16))
        assert out == TRIVIAL

    def test_double_regime_example(self):
        out = as_set(find_resonances(H_DOUBLE, bound=SMALL_BOUND))
        assert out == TRIVIAL | {(3, (0, 1, 0)), (2, (0, 0, 1))}

    def test_matches_exhaustive_oracle(self):
        for h in (H_SINGLE, H_NONRES, H_DOUBLE):
            fast = find_resonances(h, bound=SMALL_BOUND)
            slow = exhaustive_resonances(h, bound=SMALL_BOUND)
            assert fast == slow

    def test_unit_moduli_alpha(self):
        # all moduli on the unit circle except one per pair, so the
        # alpha moduli constrain only p3
        theta = np.exp(2j * np.pi * np.sqrt(2))
        phi = np.exp(2j * np.pi * np.sqrt(3))
        h = HolonomyPair((theta, phi, theta * phi ** 2), (2, 3, 2 * 9))
        out = as_set(find_resonances(h, bound=4))
        assert (3, (1, 2, 0)) in out
        slow = as_set(exhaustive_resonances(h, bound=4))
        assert out == slow

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-2, 0.3]))
    def test_unit_moduli_honours_tol(self, seed, tol):
        # unit-modulus alpha_1, alpha_2; a (3, (1, 2, 0)) relation off by
        # tol / 2 lies within tol but outside the screen used at the
        # default tol
        rng = np.random.default_rng(seed)
        alpha = np.exp(2j * np.pi * rng.uniform(size=2))
        beta = rng.uniform(0.5, 2, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
        off = tol / 2 * np.exp(2j * np.pi * rng.uniform(size=2))
        h = HolonomyPair((alpha[0], alpha[1], alpha[0] * alpha[1] ** 2 * (1 + off[0])),
                         (beta[0], beta[1], beta[0] * beta[1] ** 2 * (1 + off[1])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            found = find_resonances(h, tol=tol, bound=4)
        assert (3, (1, 2, 0)) in as_set(found)
        assert found == exhaustive_resonances(h, tol=tol, bound=4)

    def test_rejects_tol_without_sound_screen(self):
        theta = np.exp(2j * np.pi * np.sqrt(2))
        h = HolonomyPair((theta, theta ** 2, theta ** 3), (2, 3, 5))
        with pytest.raises(ValueError, match="tol must be below 1"):
            find_resonances(h, tol=1.0, bound=4)

    def test_near_resonance_warning(self):
        tol = 1e-9
        a3 = 0.72 * (1 + 5 * tol)  # within 10x tol but outside tol
        h = HolonomyPair((2, 0.6, a3), (1 + 1j, 0.5j, -0.25 - 0.25j))
        with pytest.warns(UserWarning, match="near-resonances"):
            out = as_set(find_resonances(h, tol=tol, bound=SMALL_BOUND))
        assert (3, (1, 2, 0)) not in out

    def test_near_resonance_warning_is_bounded(self):
        # at tol 0.3 the undecided exponents within 10 tol run into the
        # thousands on the unit circle: the warning gives their count and
        # the NEAR_SHOWN closest, by residual and then (j, p)
        tol = 0.3
        rng = np.random.default_rng(1)
        alpha = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        beta = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        with pytest.warns(UserWarning) as caught:
            find_resonances(HolonomyPair(tuple(alpha), tuple(beta)), tol=tol)
        assert [str(w.message) for w in caught] == [
            "near-resonances within 10x tolerance: 12 exponents, closest "
            "(1, (-25, 30, 41)) residual 3.84e-01, "
            "(2, (-26, 31, 41)) residual 3.84e-01, "
            "(3, (-26, 30, 42)) residual 3.84e-01, "
            "(1, (-1, 2, 3)) residual 4.28e-01, "
            "(2, (-2, 3, 3)) residual 4.28e-01"]
        unit = np.exp(2j * np.pi * rng.uniform(size=6))
        with pytest.warns(UserWarning) as caught:
            find_resonances(HolonomyPair(tuple(unit[:3]), tuple(unit[3:])),
                            tol=tol, bound=16)
        message = str(caught[0].message)
        assert int(message.split(": ")[1].split(" ")[0]) > NEAR_SHOWN
        assert message.count("residual") == NEAR_SHOWN

    def test_near_resonance_warning_unit_moduli(self):
        # unit-modulus alpha_1, alpha_2: the screen must keep candidates
        # within 10x tol at the default tol
        tol = 1e-9
        theta = np.exp(2j * np.pi * np.sqrt(2))
        phi = np.exp(2j * np.pi * np.sqrt(3))
        h = HolonomyPair((theta, phi, theta * phi ** 2 * (1 + 5 * tol)),
                         (2, 3, 2 * 9))
        with pytest.warns(UserWarning, match="near-resonances"):
            out = as_set(find_resonances(h, tol=tol, bound=4))
        assert (3, (1, 2, 0)) not in out

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(4)
    @example(12)
    @example(17)
    @example(46)
    def test_generic_moduli_large_tol(self, seed):
        # a (3, (1, 2, 0)) relation off by tol / 2 on generic moduli; an
        # integer window around the real solve of the log-modulus system
        # missed it on seeds 4, 12, 17 and 46, whose systems are ill
        # conditioned
        tol = 0.3
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.5, 2, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
        beta = rng.uniform(0.5, 2, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
        off = tol / 2 * np.exp(2j * np.pi * rng.uniform(size=2))
        h = HolonomyPair((alpha[0], alpha[1], alpha[0] * alpha[1] ** 2 * (1 + off[0])),
                         (beta[0], beta[1], beta[0] * beta[1] ** 2 * (1 + off[1])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            found = find_resonances(h, tol=tol, bound=4)
        assert found == exhaustive_resonances(h, tol=tol, bound=4)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["generic", "unit_alpha", "unit", "near_one",
                            "extreme"]),
           st.integers(0, 17), st.floats(-12, np.log10(0.5)))
    def test_screen_equals_whole_box(self, seed, moduli, bound, log_tol):
        # the pruned search screens exactly the exponents a scan of the
        # whole box screens, so found and near-resonances agree with it
        rng = np.random.default_rng(seed)
        logs = {"generic": rng.uniform(-0.7, 0.7, size=6),
                "unit_alpha": np.r_[0, 0, rng.uniform(-0.7, 0.7, size=4)],
                "unit": np.zeros(6),
                "near_one": rng.choice([-1, 1], size=6) * rng.uniform(0.5, 2, size=6) * 1e-7,
                "extreme": rng.choice([-1, 1], size=6) * rng.uniform(4, 6, size=6)}[moduli]
        vals = np.exp(logs + 2j * np.pi * rng.uniform(size=6))
        if rng.uniform() < 0.5:
            # a relation near a word of the box, so some exponents pass
            p1, p2 = int(rng.integers(-3, 4)), int(rng.integers(0, 4))
            near = 1 + 10 ** rng.uniform(-12, -1) * np.exp(2j * np.pi * rng.uniform(size=2))
            vals[2] = vals[0] ** p1 * vals[1] ** p2 * near[0]
            vals[5] = vals[3] ** p1 * vals[4] ** p2 * near[1]
        h = HolonomyPair(tuple(vals[:3]), tuple(vals[3:]))
        tol = 10 ** log_tol
        assert screened_box(h, tol, bound) == box_screen(h, tol, bound)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(496)
    @example(865)
    @example(924)
    def test_screen_equals_whole_box_at_slab_edge(self, seed):
        # z = log alpha_1 - log alpha_3, as the screen computes it, lies
        # within two ulps of the threshold, so p = (1, 0, 0) sits on the
        # edge of the j = 3 slab; beta_3 = beta_1 puts it inside beta's.
        # Seeds 496, 865 and 924 need the slab's room for rounding: with
        # neither its allowance nor its widening step, the interval drops
        # a screened exponent there
        rng = np.random.default_rng(seed)
        tol = 10 ** rng.uniform(-12, np.log10(0.5))
        thr = _screen_bound(tol)
        a1, a2, b1, b2 = np.exp(rng.uniform(-0.7, 0.7, size=4)
                                + 2j * np.pi * rng.uniform(size=4))
        for k in rng.permutation(np.arange(-64, 65)):
            a3 = a1 * np.exp(-thr) * (1 + k * 2.0 ** -53)
            if abs(np.log(a1).real - np.log(a3).real - thr) <= 2 * np.spacing(thr):
                break
        h = HolonomyPair((a1, a2, a3), (b1, b2, b1))
        bound = int(rng.integers(1, 5))
        assert screened_box(h, tol, bound) == box_screen(h, tol, bound)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_j1_only_trivial_and_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.3, 3.0, size=6) * np.exp(
            2j * np.pi * rng.uniform(size=6))
        h = HolonomyPair(tuple(vals[:3]), tuple(vals[3:]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = find_resonances(h, bound=6)
            assert fast == exhaustive_resonances(h, bound=6)
        for r in fast:
            if r.j == 1:
                assert r.trivial

    def test_alpha_beta_swap_symmetry(self):
        h = H_SINGLE
        swapped = HolonomyPair(h.beta, h.alpha)
        assert as_set(find_resonances(h, bound=SMALL_BOUND)) == \
            as_set(find_resonances(swapped, bound=SMALL_BOUND))

    def test_large_exponent_no_overflow(self):
        h = HolonomyPair((200, 0.5, 0.3), (100, 0.4, 0.2))
        out = find_resonances(h, bound=64)
        assert as_set(out) == TRIVIAL


@st.composite
def planted_eigen_data(draw):
    """Eigen-data of every regime: generic moduli, a planted Single or
    Double relation, or all six multipliers on the unit circle."""
    kind = draw(st.sampled_from(["generic", "single", "double", "unit"]))

    def z():
        log_modulus = 0.0 if kind == "unit" else draw(st.floats(-0.7, 0.7))
        return np.exp(log_modulus + 2j * np.pi * draw(st.floats(0, 1)))

    alpha, beta = [z(), z(), z()], [z(), z(), z()]
    p, q = draw(st.integers(-2, 2)), draw(st.integers(2, 3))
    for v in (alpha, beta):
        if kind == "single":
            v[2] = v[0] ** p * v[1] ** q
        elif kind == "double":
            v[2] = v[0] ** p * v[1]
    return HolonomyPair(tuple(alpha), tuple(beta))


def _outcome(fn, *args):
    """What fn returns, or the exception it raises, near-resonance
    warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except UnclassifiableResonancePattern as exc:
            return repr(exc)


class TestMetamorphic:
    """Relations the mathematics guarantees, with no oracle: resonances
    hold for alpha and beta alike, and complex conjugation maps every
    relation among the multipliers to the same relation."""

    @settings(max_examples=100, deadline=None)
    @given(planted_eigen_data(), st.sampled_from([1e-9, 1e-3, 0.1]),
           st.integers(0, 6))
    def test_alpha_beta_swap(self, h, tol, bound):
        assert _outcome(find_resonances, HolonomyPair(h.beta, h.alpha), tol,
                        bound) == _outcome(find_resonances, h, tol, bound)

    @settings(max_examples=100, deadline=None)
    @given(planted_eigen_data(), st.sampled_from([1e-9, 1e-3, 0.1]),
           st.integers(0, 6))
    def test_conjugation(self, h, tol, bound):
        conj = HolonomyPair(tuple(np.conj(h.alpha)), tuple(np.conj(h.beta)))
        assert _outcome(find_resonances, conj, tol, bound) == \
            _outcome(find_resonances, h, tol, bound)

    @settings(max_examples=100, deadline=None)
    @given(planted_eigen_data(), st.integers(2, 6))
    def test_regime_under_swap(self, h, bound):
        def regime(pair):
            return _outcome(lambda: classify_regime(
                find_resonances(pair, bound=bound)))
        assert regime(HolonomyPair(h.beta, h.alpha)) == regime(h)


class TestClassifyRegime:
    def test_three_regimes(self):
        assert classify_regime(find_resonances(H_NONRES, bound=8)).tag == "NonResonant"
        single = classify_regime(find_resonances(H_SINGLE, bound=8))
        assert (single.tag, single.p, single.q) == ("Single", 1, 2)
        double = classify_regime(find_resonances(H_DOUBLE, bound=8))
        assert (double.tag, double.p) == ("Double", 0)

    def test_unclassifiable(self):
        bad = [Resonance(j, p) for j, p in TRIVIAL] + [Resonance(2, (5, 3, 0))]
        with pytest.raises(UnclassifiableResonancePattern):
            classify_regime(bad)

    def test_missing_trivial(self):
        with pytest.raises(UnclassifiableResonancePattern):
            classify_regime([Resonance(1, (1, 0, 0))])


class TestCohomologyDims:
    def test_values(self):
        assert cohomology_dims(ResonanceClass("NonResonant")) == (3, 6, 3, 0)
        assert cohomology_dims(ResonanceClass("Single", 1, 2)) == (4, 8, 4, 0)
        assert cohomology_dims(ResonanceClass("Double", 3)) == (5, 10, 5, 0)

    def test_shape_identities(self):
        for cls in (ResonanceClass("NonResonant"),
                    ResonanceClass("Single", -2, 5),
                    ResonanceClass("Double", 1)):
            h0, h1, h2, h3 = cohomology_dims(cls)
            assert h1 == 2 * h0 and h2 == h0 and h3 == 0


def flow_commutator(x, y, z0, t=5e-3, steps=32):
    """Finite-difference Lie bracket oracle.

    Integrates the commutator of flows Phi^Y_{-t} Phi^X_{-t} Phi^Y_t
    Phi^X_t with RK4 and extrapolates (comp - z0)/t^2 -> [X, Y](z0)
    with two Richardson levels.
    """
    def rk4(field, z, total):
        h = total / steps
        for _ in range(steps):
            k1 = field.evaluate(z)
            k2 = field.evaluate(z + h / 2 * k1)
            k3 = field.evaluate(z + h / 2 * k2)
            k4 = field.evaluate(z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return z

    def estimate(s):
        z = rk4(x, z0, s)
        z = rk4(y, z, s)
        z = rk4(x, z, -s)
        z = rk4(y, z, -s)
        return (z - z0) / s ** 2

    e1, e2, e3 = estimate(t), estimate(t / 2), estimate(t / 4)
    r1 = 2 * e2 - e1
    r2 = 2 * e3 - e2
    return (4 * r2 - r1) / 3


class TestBracket:
    def test_antisymmetry_with_self(self):
        x = ResonantVectorField.from_dict({(3, (0, 0, 1)): 2 - 1j,
                                           (1, (1, 0, 0)): 0.5})
        assert bracket(x, x).is_zero()

    def test_commuting_diagonal(self):
        x = ResonantVectorField.from_dict({(1, (1, 0, 0)): 1})
        y = ResonantVectorField.from_dict({(2, (0, 1, 0)): 1})
        assert bracket(x, y).is_zero()

    def test_resonant_monomial_pair(self):
        # [z3 d3, z1 z2^2 d3] = -z1 z2^2 d3, exactly
        x = ResonantVectorField.from_dict({(3, (0, 0, 1)): 1})
        y = ResonantVectorField.from_dict({(3, (1, 2, 0)): 1})
        out = bracket(x, y).as_dict()
        assert out == {(3, (1, 2, 0)): -1}

    def test_flow_oracle_agreement(self):
        rng = np.random.default_rng(23)
        x = ResonantVectorField.from_dict({(3, (0, 0, 1)): 1})
        y = ResonantVectorField.from_dict({(3, (1, 2, 0)): 1})
        expected = bracket(x, y)
        for _ in range(20):
            z0 = rng.uniform(0.5, 1.5, size=3) * np.exp(
                2j * np.pi * rng.uniform(size=3))
            numeric = flow_commutator(x, y, z0)
            assert np.max(np.abs(numeric - expected.evaluate(z0))) < FLOW_TOLERANCE

    def test_flow_oracle_mixed_fields(self):
        rng = np.random.default_rng(5)
        x = ResonantVectorField.from_dict({(1, (1, 0, 0)): 0.7 - 0.2j,
                                           (3, (0, 0, 1)): 1.1j})
        y = ResonantVectorField.from_dict({(2, (0, 1, 0)): -0.4,
                                           (3, (1, 2, 0)): 0.9 + 0.3j})
        expected = bracket(x, y)
        for _ in range(5):
            z0 = rng.uniform(0.6, 1.4, size=3) * np.exp(
                2j * np.pi * rng.uniform(size=3))
            numeric = flow_commutator(x, y, z0)
            assert np.max(np.abs(numeric - expected.evaluate(z0))) < FLOW_TOLERANCE

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_jacobi_identity(self, seed):
        rng = np.random.default_rng(seed)
        keys = [(1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1)),
                (3, (1, 2, 0)), (2, (2, 1, 0))]

        def rand_field():
            picks = rng.choice(len(keys), size=2, replace=False)
            return ResonantVectorField.from_dict({
                keys[i]: complex(rng.normal(), rng.normal()) for i in picks})

        x, y, z = rand_field(), rand_field(), rand_field()
        total = {}
        for f in (bracket(x, bracket(y, z)), bracket(y, bracket(z, x)),
                  bracket(z, bracket(x, y))):
            for k, a in f.as_dict().items():
                total[k] = total.get(k, 0) + a
        assert all(abs(a) < 1e-10 for a in total.values())

    def test_closure_under_resonance(self):
        x = ResonantVectorField.from_dict({(3, (0, 0, 1)): 1})
        y = ResonantVectorField.from_dict({(3, (1, 2, 0)): 1})
        assert check_resonant(bracket(x, y), H_SINGLE)


class TestFirstObstruction:
    def test_diagonal_true(self):
        x = ResonantVectorField.from_dict({(1, (1, 0, 0)): 1})
        y = ResonantVectorField.from_dict({(2, (0, 1, 0)): 1})
        assert first_obstruction_vanishes(x, y)

    def test_resonant_false(self):
        x = ResonantVectorField.from_dict({(3, (0, 0, 1)): 1})
        y = ResonantVectorField.from_dict({(3, (1, 2, 0)): 1})
        assert not first_obstruction_vanishes(x, y)

    def test_self_true(self):
        x = ResonantVectorField.from_dict({(3, (0, 0, 1)): 1,
                                           (3, (1, 2, 0)): 2j})
        assert first_obstruction_vanishes(x, x)
