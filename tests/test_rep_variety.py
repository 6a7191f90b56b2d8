import numpy as np
import pytest

from lvmkit.config_geometry import Configuration
from lvmkit.holonomy import holonomy_pair
from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import (
    GroupElement,
    commutation_residual,
    compose,
    identity,
    inverse,
)
from lvmkit.rep_variety import (
    NoConvergence,
    StructureSpec,
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
