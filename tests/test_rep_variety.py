import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lvmkit.config_geometry import Configuration
from lvmkit.developing import check_structure
from lvmkit.holonomy import (HolonomyPair, holonomy_pair, pairings,
                             validate_holonomy)
from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import (
    GroupElement,
    commutation_residual,
    compose,
    identity,
    inverse,
)
from lvmkit.rep_variety import (
    REJECTION_RADIUS,
    NoConvergence,
    StructureSpec,
    _solve_scaling,
    psi_case,
    psi_nonresonant,
    psi_resonant,
    tangent_dimension,
    tangent_gap,
    variety_residual,
)

NR = ResonanceClass("NonResonant")
S12 = ResonanceClass("Single", p=1, q=2)
D1 = ResonanceClass("Double", p=1)

E1 = Configuration(2, (
    (1, 0),
    (1j, 0),
    (0, 1),
    (0, 1j),
    (-1 - 1j, -1 - 1j),
    (-1.1 - 1.1j, -1.1 - 1.1j),
))


def commuting_single_family(kappa, diagonals, regime=S12):
    """Elements (x1, x2, x3, kappa*(x3 - x1^p x2^q)) pairwise commute."""
    p, q = regime.p, regime.q
    out = []
    for x1, x2, x3 in diagonals:
        out.append(GroupElement(regime, (x1, x2, x3,
                                         kappa * (x3 - x1 ** p * x2 ** q))))
    return out


class TestVarietyResidual:
    def test_diagonal_single_pair(self):
        f = GroupElement(S12, (2, 0.6, 0.5, 0))
        g = GroupElement(S12, (3, 0.4, 0.9, 0))
        assert variety_residual((f, g), S12).max_abs == 0

    def test_solved_relation_exact(self):
        f = GroupElement(S12, (2, 0.5, 0.25, 1))
        # delta = eps (b3 - b1 b2^2) / (a3 - a1 a2^2) with rational data
        b = (4, 0.5, 2)
        delta = (b[2] - b[0] * b[1] ** 2) / (0.25 - 2 * 0.25)
        g = GroupElement(S12, (*b, delta))
        assert variety_residual((f, g), S12).max_abs == 0

    def test_perturbed_delta_scales_linearly(self):
        f = GroupElement(S12, (2, 0.5, 0.25, 1))
        b = (4, 0.5, 2)
        delta = (b[2] - b[0] * b[1] ** 2) / (0.25 - 2 * 0.25)
        g = GroupElement(S12, (*b, delta + 1e-3))
        expected = 1e-3 * abs(0.25 - 2 * 0.25)
        assert np.isclose(variety_residual((f, g), S12).max_abs, expected,
                          rtol=1e-10)

    def test_double_commuting_pair(self):
        f = GroupElement(D1, (2, np.diag([1.5, 0.7])))
        g = GroupElement(D1, (3, np.diag([0.4, 1.1])))
        assert variety_residual((f, g), D1).max_abs == 0

    def test_double_equations_match_commutation(self):
        # the three named equations vanish iff the semi-direct product
        # commutator does, on random matrix pairs
        rng = np.random.default_rng(21)
        for _ in range(30):
            f = GroupElement(D1, (complex(rng.normal(), rng.normal()) + 2,
                                  rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
            g = GroupElement(D1, (complex(rng.normal(), rng.normal()) + 2,
                                  rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
            res = variety_residual((f, g), D1).max_abs
            comm = commutation_residual(f, g)
            # diagonal commutator entries are determined by the displayed
            # equations together with the scalar parts; zero sets agree
            if comm < 1e-12:
                assert res < 1e-10
            if res > 1e-6:
                assert comm > 1e-12

    def test_nonresonant_empty(self):
        f = GroupElement(NR, (2, 3, 4))
        g = GroupElement(NR, (5, 6, 7))
        out = variety_residual((f, g), NR)
        assert out.max_abs == 0 and out.equations == ()

    def test_regime_mismatch(self):
        f = GroupElement(NR, (2, 3, 4))
        with pytest.raises(ValueError):
            variety_residual((f, f), S12)


class TestTangentDimension:
    def test_nonresonant_always_six(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            f = GroupElement(NR, tuple(rng.uniform(0.5, 2, size=3)
                                       * np.exp(2j * np.pi * rng.uniform(size=3))))
            g = GroupElement(NR, tuple(rng.uniform(0.5, 2, size=3)
                                       * np.exp(2j * np.pi * rng.uniform(size=3))))
            assert tangent_dimension((f, g), NR) == 6
            assert tangent_gap((f, g), NR) == np.inf

    def test_single_central_pair_eight(self):
        # central elements: diagonal with the resonant linear relation
        f = GroupElement(S12, (2, 0.5, 2 * 0.25, 0))
        g = GroupElement(S12, (1.5, 0.8, 1.5 * 0.64, 0))
        assert tangent_dimension((f, g), S12) == 8

    def test_double_central_pair_ten(self):
        f = GroupElement(D1, (2, np.diag([1.3, 1.3 * 2])))
        g = GroupElement(D1, (0.5, np.diag([0.9, 0.9 * 0.5])))
        assert tangent_dimension((f, g), D1) == 10

    def test_single_generic_pair_smaller(self):
        f = GroupElement(S12, (2, 0.6, 0.5, 0.3))
        b = (1.1, 0.9, 0.8)
        delta = 0.3 * (b[2] - b[0] * b[1] ** 2) / (0.5 - 2 * 0.36)
        g = GroupElement(S12, (*b, delta))
        dim = tangent_dimension((f, g), S12)
        assert dim == 7  # one independent equation cuts the 8 parameters
        assert tangent_gap((f, g), S12) >= 1e3


    def test_generic_double_pair_finite_gap(self):
        # the dropped singular value is rounding, not 0: a finite gap far
        # above MIN_GAP, and no warning
        f = GroupElement(D1, (2 + 0.5j, np.array([[1.3, 0.2], [0.1, 0.7 - 0.2j]])))
        g = GroupElement(D1, (0.8, np.array([[0.5j, 0.3], [0.2, 1.1]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tangent_dimension((f, g), D1) == 6
        gap = tangent_gap((f, g), D1)
        assert np.isfinite(gap) and gap >= 1e3

    def test_ambiguous_rank_warned(self):
        # g is 1e-8 from commuting with f: two singular values sit on
        # either side of the 1e-8 cut, so the rank is ambiguous
        f = GroupElement(D1, (2, np.array([[1.3, 0.5], [0, 2.6]])))
        g = GroupElement(D1, (0.5, np.array([[0.9, 0], [1e-8, 0.45]])))
        with pytest.warns(UserWarning, match="^RankAmbiguous: singular-value "
                          "gap 2.27 below 10$"):
            assert tangent_dimension((f, g), D1) == 7
        assert 2 < tangent_gap((f, g), D1) < 3


class TestPsiNonResonant:
    def setup_method(self):
        self.base = holonomy_pair(E1)
        self.a0 = GroupElement(NR, self.base.alpha)
        self.b0 = GroupElement(NR, self.base.beta)

    def spec_with_gamma(self, gamma):
        c = GroupElement(NR, gamma)
        return StructureSpec((self.a0, self.b0, c), base_config=E1)

    def test_trivial_gamma_fixed_point(self):
        pair, tail, shifts = psi_nonresonant(self.spec_with_gamma((1, 1, 1)))
        assert np.allclose(pair[0].params(), self.a0.params(), atol=1e-12)
        assert np.allclose(pair[1].params(), self.b0.params(), atol=1e-12)
        for got, want in zip(tail, E1.vectors[3:]):
            assert np.allclose(got, want, atol=1e-10)

    def test_perturbed_gamma_relations_hold(self):
        gamma = (1 + 1e-3, 1, 1)
        spec = self.spec_with_gamma(gamma)
        pair, tail, (s1, s2) = psi_nonresonant(spec)
        c = np.log(np.asarray(gamma, dtype=complex)) / (2j * np.pi)
        alpha = np.asarray(self.a0.data)
        beta = np.asarray(self.b0.data)
        arho = np.asarray(pair[0].data)
        brho = np.asarray(pair[1].data)
        # displayed equivariance relations for the first two deck generators
        assert abs(np.exp(2j * np.pi * s1 * (1 + c[0])) - alpha[0]) < 1e-10
        assert abs(arho[1] * np.exp(2j * np.pi * s1 * c[1]) - alpha[1]) < 1e-10
        assert abs(arho[2] * np.exp(2j * np.pi * s1 * c[2]) - alpha[2]) < 1e-10
        assert abs(np.exp(2j * np.pi * s2 * (1 + c[0])) - beta[0]) < 1e-10
        assert abs(brho[1] * np.exp(2j * np.pi * s2 * c[1]) - beta[1]) < 1e-10
        assert abs(brho[2] * np.exp(2j * np.pi * s2 * c[2]) - beta[2]) < 1e-10

    def test_tail_reproduces_output_eigendata(self):
        spec = self.spec_with_gamma((1 + 2e-3, 1 - 1e-3, 1 + 1e-3j))
        pair, tail, _ = psi_nonresonant(spec)
        deformed = Configuration(2, E1.vectors[:3] + tail)
        h = holonomy_pair(deformed)
        assert np.allclose(h.alpha, pair[0].data, atol=1e-10)
        assert np.allclose(h.beta, pair[1].data, atol=1e-10)

    def test_submersion_rank(self):
        h = 1e-6
        base_params = np.concatenate([
            np.asarray(self.a0.data), np.asarray(self.b0.data),
            np.ones(3, dtype=complex)])

        def tail_of(params):
            a = GroupElement(NR, tuple(params[:3]))
            b = GroupElement(NR, tuple(params[3:6]))
            c = GroupElement(NR, tuple(params[6:9]))
            _, tail, _ = psi_nonresonant(
                StructureSpec((a, b, c), base_config=E1))
            return np.concatenate([np.asarray(t) for t in tail])

        base_tail = tail_of(base_params)
        cols = []
        for k in range(9):
            pp = base_params.copy()
            pp[k] += h
            cols.append((tail_of(pp) - base_tail) / h)
        jac = np.column_stack(cols)
        sv = np.linalg.svd(jac, compute_uv=False)
        assert np.sum(sv > sv[0] * 1e-8) == 6

    def test_far_input_rejected(self):
        a_far = GroupElement(NR, tuple(1e6 * np.asarray(self.a0.data)))
        spec = StructureSpec((a_far, self.b0, GroupElement(NR, (1, 1, 1))),
                             base_config=E1)
        with pytest.raises(NoConvergence):
            psi_nonresonant(spec)


# Two inputs of a seeded sweep of NonResonant structures, as [re, im]
# pairs: the base configuration and the three generators.  At the first,
# the base pairings reach |u0_2| = 646, and the damped Newton run that
# once followed the closed form found no descent; the closed form itself
# satisfies the equations.  At the second, alpha_3 = 5.4e-323 - 1e-322j is
# subnormal and the closed form reads nan from it.
CLOSED_FORM_INPUT = {
    "vectors": [[(0.40486541606845255, -0.17095032096761145),
                 (-0.2537246387402875, 0.9943998317967306)],
                [(0.0026112154951590458, 0.004673136698562082),
                 (1.131137586743593e-06, -0.00124651307670686)],
                [(-2.7662558233798884, 0.5178043913091943),
                 (-3.499285929056802, -1.1455213635083696)],
                [(0.014796287419316573, -0.0027080221728226395),
                 (0.01910962589895401, 0.031120693484408577)],
                [(-305.5384312848297, 393.47553296424843),
                 (-111.02577688106784, -444.03471815355846)],
                [(0.001919633947282485, 0.002617633984495433),
                 (-0.0008137771700215822, 0.0021155164877842327)]],
    "generators": [[(0.8655490190997774, -0.12145053075971741),
                    (-3.3327679270748377e-13, 1.3657978868656851e-13),
                    (1.0051283099838848, -0.0359199400012983)],
                   [(1.0249103331626737, -0.028442650026159474),
                    (-1.0095354194369394e+223, -3.209202105423455e+222),
                    (0.8946523555735548, -0.0267830171164855)],
                   [(-1.1993892316825105, 0.5665839060952611),
                    (-1.1383739650145255, 2.294758409336087),
                    (-1.3971426398594322, -1.074103655670225)]],
}
NON_FINITE_INPUT = {
    "vectors": [[(0.032003175583947996, 0.005111305497305385),
                 (-0.16707599277145518, 0.2412332085657941)],
                [(0.05922770140399712, -0.18208877835273587),
                 (-0.05839324953697291, 0.15546300833651708)],
                [(22.189562872630404, 73.2529885097939),
                 (48.87798688358722, -76.21049076478768)],
                [(6.928323878421293, -4.201534251308593),
                 (3.377878454280184, 3.7847421970462123)],
                [(-1.0726944967153718, 1.8202916516984982),
                 (0.6032522891048319, 2.2768701038284878)],
                [(74.38499541842914, -189.93211355471234),
                 (327.7573919227022, -251.57162412716502)]],
    "generators": [[(-2.6778197668125734e-95, -1.6634822374891925e-95),
                    (-1.9422701598947446e-09, 1.1086775138555244e-08),
                    (5.4e-323, -1e-322)],
                   [(1.025176381001669, -0.13751448176619666),
                    (0.8978207341464718, -0.01744419354988455),
                    (-0.026841839902130776, 0.018256935478364225)],
                   [(-0.0587459821128816, -0.0620942254100728),
                    (-0.17621235807595928, 0.32414232552104605),
                    (-0.025645337192240273, 0.2354051149864422)]],
}


def nonresonant_spec(doc):
    """The StructureSpec of a document of [re, im] pairs as above."""
    config = Configuration(2, tuple(tuple(complex(*z) for z in v)
                                    for v in doc["vectors"]))
    return StructureSpec(tuple(GroupElement(NR, tuple(complex(*z) for z in g))
                               for g in doc["generators"]),
                         base_config=config)


def _parts(bound):
    """Complex numbers of real part within bound and imaginary part within
    1.5: multipliers within e^(+-2 pi 1.8), whose products stay far inside
    the commutation tolerance of `StructureSpec`."""
    return st.builds(complex, st.floats(-bound, bound),
                     st.floats(-min(bound, 1.5), min(bound, 1.5)))


class TestPsiNonResonantClosedForm:
    """The non-resonant projection is a closed form in logarithms; it
    solves its six equations up to rounding and refuses what it cannot
    read."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_parts(100.0), min_size=6, max_size=6),
           st.lists(_parts(0.3), min_size=6, max_size=6),
           st.lists(_parts(1.0), min_size=3, max_size=3))
    def test_equations_hold_within_rounding(self, pairs, d, c_unit):
        # base Omega = I, so the pairings are (u0, v0) exactly; the
        # generators sit at most 0.43 from them and c is small enough that
        # the solution stays within the anchor radius, so nothing refuses
        u0, v0 = np.array(pairs[:3]), np.array(pairs[3:])
        config = Configuration(2, ((0, 0), (1, 0), (0, 1))
                               + tuple(zip(u0, v0)))
        _, pu, pv = pairings(config)
        assert np.array_equal(pu, u0) and np.array_equal(pv, v0)
        assume(not validate_holonomy(HolonomyPair(
            tuple(np.exp(2j * np.pi * u0)), tuple(np.exp(2j * np.pi * v0)))))
        c = 0.07 * np.array(c_unit) / (1 + np.max(np.abs(pairs)))
        d = np.array(d)
        alpha = np.exp(2j * np.pi * (u0 + d[:3]))
        beta = np.exp(2j * np.pi * (v0 + d[3:]))
        spec = StructureSpec((GroupElement(NR, tuple(alpha)),
                              GroupElement(NR, tuple(beta)),
                              GroupElement(NR, tuple(np.exp(2j * np.pi * c)))),
                             base_config=config)
        pair, _, (s1, s2) = psi_nonresonant(spec)
        cc = np.log(np.asarray(spec.generators[2].data)) / (2j * np.pi)
        for base, dev, out, s, target in ((u0, d[:3], pair[0], s1, alpha),
                                          (v0, d[3:], pair[1], s2, beta)):
            x = np.asarray(out.data)
            lhs = np.array([np.exp(2j * np.pi * s * (1 + cc[0])),
                            x[1] * np.exp(2j * np.pi * s * cc[1]),
                            x[2] * np.exp(2j * np.pi * s * cc[2])])
            # each side sums terms of these sizes, a few roundings each
            # (the base multipliers, the quotient and its log, the sums
            # and products of the closed form, the exponentials), so the
            # relative error is a few u per operation times 2 pi |term|
            terms = np.abs(base) + np.abs(dev) + abs(s) * (1 + np.abs(cc)) + 1
            bound = 16 * np.finfo(float).eps * 2 * np.pi * terms
            assert np.all(np.abs(lhs - target) <= bound * np.abs(target))
            assert abs(s - base[0]) <= REJECTION_RADIUS

    def test_former_newton_failure_passes(self):
        spec = nonresonant_spec(CLOSED_FORM_INPUT)
        report = check_structure(spec)
        assert report.passed and report.max_residual <= 1e-12

    def test_non_finite_multipliers_refused(self):
        with pytest.raises(NoConvergence, match="^projected multipliers "
                           "are not finite and nonzero$"):
            psi_nonresonant(nonresonant_spec(NON_FINITE_INPUT))



# (message, target, c): a resonant scaling solve x exp(c Log x) = target
# that each refusal of the damped Newton iteration ends
SCALING_REFUSALS = [
    ("damping exhausted without descent",
     -3.859195221590849e-223 + 4.16903893935387e-223j,
     0.7468856162565439 - 1.8473247989741095j),
    ("iterate left the branch-anchor neighborhood",
     12.061400676042277 - 0.7424645440205423j,
     -0.21700504852910837 - 0.6023907983013789j),
    ("singular Jacobian in Newton solve", 2, -1),
    ("Newton did not converge in 50 iterations",
     0.007839342045064111 - 0.011135383574354523j,
     -13.637220513608005 - 1.3106100794985103j),
]


@pytest.mark.parametrize("message,target,c", SCALING_REFUSALS,
                         ids=["damping", "neighborhood", "singular",
                              "iterations"])
def test_scaling_solve_refusals(message, target, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergence, match="^%s$" % message):
            _solve_scaling(target, c)

def test_scaling_solve_stops_on_a_negligible_step():
    # Newton's last step from x = 0.01 is below 1e-14 and the solve stops
    # on it, at the root 0.01^(1/1.1) of x^1.1 = 0.01
    assert _solve_scaling(0.01, 0.1) == pytest.approx(0.01 ** (1 / 1.1),
                                                      rel=1e-15)


class TestPsiResonantSingle:
    def make_spec(self, cdiag, kappa=0.4):
        a, b, c = commuting_single_family(kappa, [
            (2, 0.6, 0.5),
            (1 + 1j, 0.5j, -0.3 + 0.2j),
            cdiag,
        ])
        return StructureSpec((a, b, c))

    def test_identity_third_generator(self):
        spec = self.make_spec((1, 1, 1))
        pair, (s1, s2) = psi_resonant(spec)
        assert np.allclose(pair[0].params(), spec.generators[0].params(),
                           atol=1e-14)
        assert np.allclose(pair[1].params(), spec.generators[1].params(),
                           atol=1e-14)

    def test_generic_case_outputs_commute(self):
        spec = self.make_spec((1.01, 1.02, 0.97))
        assert psi_case(spec) == "generic"
        pair, _ = psi_resonant(spec)
        assert commutation_residual(*pair) < 1e-10
        assert variety_residual(pair, S12).max_abs < 1e-10

    def test_degenerate_case_outputs_commute(self):
        g, c1 = 1.01, 1.02
        spec = self.make_spec((g, c1, g * c1 ** 2))
        assert psi_case(spec) == "degenerate"
        pair, _ = psi_resonant(spec)
        assert commutation_residual(*pair) < 1e-10

    def test_case_boundary_warning(self):
        g, c1 = 1.01, 1.02
        spec = self.make_spec((g, c1, g * c1 ** 2 + 1e-14))
        with pytest.warns(UserWarning, match="case boundary"):
            psi_resonant(spec)

    def test_scaling_equation_satisfied(self):
        spec = self.make_spec((1.03, 0.98, 1.01))
        pair, (s1, s2) = psi_resonant(spec)
        alpha = spec.generators[0].data[0]
        gamma = spec.generators[2].data[0]
        delta = pair[0].data[0]
        c = np.log(gamma) / (2j * np.pi)
        assert abs(delta * np.exp(c * np.log(delta)) - alpha) < 1e-12


class TestPsiResonantDouble:
    def make_spec(self, cdata, conjugate_by=None):
        a = GroupElement(D1, (2 + 0.5j, np.diag([1.3, 0.7 - 0.2j])))
        b = GroupElement(D1, (0.8, np.diag([0.5j, 1.1])))
        c = GroupElement(D1, cdata)
        gens = (a, b, c)
        if conjugate_by is not None:
            h = GroupElement(D1, (1, conjugate_by))
            gens = tuple(compose(h, compose(g, inverse(h))) for g in gens)
        return StructureSpec(gens)

    def test_identity_third_generator(self):
        spec = self.make_spec((1, np.eye(2)))
        pair, _ = psi_resonant(spec)
        assert np.allclose(pair[0].params(), spec.generators[0].params(),
                           atol=1e-12)
        assert np.allclose(pair[1].params(), spec.generators[1].params(),
                           atol=1e-12)

    def test_outputs_commute(self):
        spec = self.make_spec((1.02, np.diag([0.99, 1.03])),
                              conjugate_by=np.array([[1, 0.3 + 0.1j],
                                                     [-0.2j, 1.1]]))
        pair, _ = psi_resonant(spec)
        assert commutation_residual(*pair) < 1e-10
        assert variety_residual(pair, D1).max_abs < 1e-10

    def test_scaling_equation_satisfied(self):
        spec = self.make_spec((1.05, np.diag([1.01, 0.98])))
        pair, (s1, s2) = psi_resonant(spec)
        alpha = spec.generators[0].data[0]
        gamma = spec.generators[2].data[0]
        delta = pair[0].data[0]
        c = np.log(gamma) / (2j * np.pi)
        assert abs(delta * np.exp(c * np.log(delta)) - alpha) < 1e-12


class TestStructureSpec:
    def test_noncommuting_rejected(self):
        f = GroupElement(D1, (2, np.array([[0, 1], [1, 0]])))
        g = GroupElement(D1, (3, np.array([[1, 1], [0, 1]])))
        with pytest.raises(ValueError):
            StructureSpec((f, g, identity(D1)))

    def test_mixed_regimes_rejected(self):
        with pytest.raises(ValueError):
            StructureSpec((identity(NR), identity(S12), identity(S12)))

    def test_large_nonresonant_generators_commute(self):
        # diagonal generators commute, but numpy rounds a b and b a apart
        # by about u |a| |b|, above COMMUTE_TOL * (1 + max |params|) at
        # modulus 1e9: 194 of these 200 triples were refused
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * 1e9
            StructureSpec(tuple(GroupElement(NR, tuple(row)) for row in z))

    @pytest.mark.parametrize("f, g", [
        (GroupElement(S12, (2, 0.6, 0.5, 0.3)),
         GroupElement(S12, (1 + 1j, 0.5j, -0.3 + 0.2j, 0.7))),
        (GroupElement(D1, (2, np.array([[1.3, 0.2], [0.1, 0.7]]))),
         GroupElement(D1, (3, np.array([[0.4, 1], [0.5j, 2]])))),
    ], ids=["single", "double"])
    def test_noncommuting_resonant_pair_rejected(self, f, g):
        assert commutation_residual(f, g) > 1e-3
        with pytest.raises(ValueError, match="generators 1 and 2 do not commute"):
            StructureSpec((f, g, identity(f.regime)))
