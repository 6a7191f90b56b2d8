import numpy as np
import pytest

from lvmkit.config_geometry import Configuration
from lvmkit.holonomy import holonomy_pair
from lvmkit.resonance import ResonanceClass
import developing_oracle
from lvmkit import developing
from lvmkit.resonant_group import (GroupElement, compose, element_from_params,
                                   identity, inverse)
from lvmkit.rep_variety import StructureSpec
from lvmkit.developing import (
    DevMap,
    DevStructure,
    build_structure,
    check_structure,
    deck_transform,
    dev_eval,
    equivariance_residual,
    sample_cover_points,
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

BASE = holonomy_pair(E1)


def nonres_spec(gamma):
    a = GroupElement(NR, BASE.alpha)
    b = GroupElement(NR, BASE.beta)
    c = GroupElement(NR, gamma)
    return StructureSpec((a, b, c), base_config=E1)


def single_spec(cdiag, kappa=0.4):
    def elem(x1, x2, x3):
        return GroupElement(S12, (x1, x2, x3, kappa * (x3 - x1 * x2 ** 2)))
    return StructureSpec((
        elem(2, 0.6, 0.5),
        elem(1 + 1j, 0.5j, -0.3 + 0.2j),
        elem(*cdiag),
    ))


def double_spec(cdata, conjugate_by=None):
    a = GroupElement(D1, (2 + 0.5j, np.diag([1.3, 0.7 - 0.2j])))
    b = GroupElement(D1, (0.8, np.diag([0.5j, 1.1])))
    c = GroupElement(D1, cdata)
    gens = (a, b, c)
    if conjugate_by is not None:
        h = GroupElement(D1, (1, conjugate_by))
        gens = tuple(compose(h, compose(g, inverse(h))) for g in gens)
    return StructureSpec(gens)


class TestDevEval:
    def test_canonical_at_origin(self):
        d = DevMap(NR, "canonical-form", (0, 0, 0))
        assert np.allclose(dev_eval(d, (0, 1, 0)).array(), (1, 1, 0))

    def test_canonical_period_one(self):
        d = DevMap(NR, "canonical-form", (0, 0, 0))
        out = dev_eval(d, (1, 0.3 - 0.2j, 1.5j)).array()
        assert np.allclose(out, (1, 0.3 - 0.2j, 1.5j), atol=1e-12)

    def test_degenerate_case_display(self):
        gamma, c1 = 1.01, 1.02
        c4 = gamma * c1 ** 2
        c3 = 0.05
        d = DevMap(S12, "degenerate", (gamma, c1, c4, c3))
        rng = np.random.default_rng(3)
        for _ in range(10):
            w1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            xi2 = complex(rng.normal(), rng.normal())
            xi3 = complex(rng.normal(), rng.normal())
            out = dev_eval(d, (w1, xi2, xi3)).array()
            # independent re-evaluation of the displayed formula
            expected = np.array([
                np.exp((2j * np.pi + np.log(gamma)) * w1),
                np.exp(w1 * np.log(c1)) * xi2,
                np.exp(w1 * np.log(c4)) * (
                    xi3 + (c3 / c4) * w1 * np.exp(2j * np.pi * w1) * xi2 ** 2),
            ])
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_degenerate_input_rejected(self):
        d = DevMap(NR, "canonical-form", (0, 0, 0))
        with pytest.raises(ValueError):
            dev_eval(d, (0.5, 0, 0))


class TestEquivarianceNonResonant:
    def test_canonical_structure_machine_zero(self):
        spec = nonres_spec((1, 1, 1))
        st = build_structure(spec)
        rng = np.random.default_rng(1)
        for w in sample_cover_points(rng, 20):
            for idx in (1, 2, 3):
                assert equivariance_residual(st, idx, w) < 1e-12

    def test_deformed_structure(self):
        spec = nonres_spec((1 + 1e-3, 1 - 2e-3, 1 + 1e-3j))
        st = build_structure(spec)
        rng = np.random.default_rng(2)
        worst = 0
        for w in sample_cover_points(rng, 100):
            for idx in (1, 2, 3):
                worst = max(worst, equivariance_residual(st, idx, w))
        assert worst < 1e-10

    def test_mismatched_negative_control(self):
        st_a = build_structure(nonres_spec((1 + 1e-2, 1, 1)))
        st_b = build_structure(nonres_spec((1, 1, 1)))
        # developing map from A, holonomy/deck data from B
        from lvmkit.developing import DevStructure
        frankenstein = DevStructure(st_b.spec, st_b.output_pair,
                                    st_b.shifts, st_a.dev, None)
        rng = np.random.default_rng(3)
        worst = max(equivariance_residual(frankenstein, idx, w)
                    for w in sample_cover_points(rng, 20) for idx in (1, 2, 3))
        assert worst > 1e-3

    def test_residual_invariant_under_unitary_recentering(self):
        # composing dev with a diagonal unitary g and conjugating the
        # (abelian) holonomy leaves every residual value unchanged
        spec = nonres_spec((1 + 1e-3, 1, 1))
        st = build_structure(spec)
        phases = np.exp(1j * np.array([0.3, 1.1, -0.7]))

        class Recentered:
            spec = st.spec
            output_pair = st.output_pair
            shifts = st.shifts
            tail = None

        rng = np.random.default_rng(4)
        for w in sample_cover_points(rng, 10):
            for idx in (1, 2, 3):
                r0 = equivariance_residual(st, idx, w)
                lhs = dev_eval(st.dev, deck_transform(st, idx, w)).array()
                base = dev_eval(st.dev, w)
                from lvmkit.resonant_group import apply
                rhs = apply(st.spec.generators[idx - 1], base).array()
                r1 = float(np.max(np.abs(phases * lhs - phases * rhs))
                           / (1 + np.max(np.abs(phases * rhs))))
                assert abs(r0 - r1) < 1e-10 * (1 + r0)


class TestEquivarianceResonant:
    def test_single_generic(self):
        spec = single_spec((1.01, 1.02, 0.97))
        st = build_structure(spec)
        rng = np.random.default_rng(5)
        worst = max(equivariance_residual(st, idx, w)
                    for w in sample_cover_points(rng, 100) for idx in (1, 2, 3))
        assert worst < 1e-9

    def test_single_degenerate(self):
        g, c1 = 1.01, 1.02
        spec = single_spec((g, c1, g * c1 ** 2))
        st = build_structure(spec)
        rng = np.random.default_rng(6)
        worst = max(equivariance_residual(st, idx, w)
                    for w in sample_cover_points(rng, 100) for idx in (1, 2, 3))
        assert worst < 1e-9

    def test_double_affine(self):
        spec = double_spec((1.02, np.diag([0.99, 1.03])),
                           conjugate_by=np.array([[1, 0.3 + 0.1j],
                                                  [-0.2j, 1.1]]))
        st = build_structure(spec)
        rng = np.random.default_rng(7)
        worst = max(equivariance_residual(st, idx, w)
                    for w in sample_cover_points(rng, 100) for idx in (1, 2, 3))
        assert worst < 1e-9

    def test_identity_third_generator_machine_zero(self):
        for spec in (single_spec((1, 1, 1)), double_spec((1, np.eye(2)))):
            st = build_structure(spec)
            rng = np.random.default_rng(8)
            worst = max(equivariance_residual(st, idx, w)
                        for w in sample_cover_points(rng, 20)
                        for idx in (1, 2, 3))
            assert worst < 1e-11


class TestCheckStructure:
    def test_canonical_passes_complete(self):
        report = check_structure(nonres_spec((1, 1, 1)), samples=50, seed=9)
        assert report.passed and report.complete

    def test_deformed_passes_incomplete(self):
        report = check_structure(nonres_spec((1 + 1e-3, 1, 1)),
                                 samples=50, seed=10)
        assert report.passed and not report.complete

    def test_resonant_structures_pass(self):
        for spec in (single_spec((1.01, 1.02, 0.97)),
                     double_spec((1.02, np.diag([0.99, 1.03])))):
            report = check_structure(spec, samples=50, seed=11)
            assert report.passed and not report.complete

    def test_deterministic_given_seed(self):
        a = check_structure(nonres_spec((1 + 1e-3, 1, 1)), samples=30, seed=12)
        b = check_structure(nonres_spec((1 + 1e-3, 1, 1)), samples=30, seed=12)
        assert a == b

    def test_corrupted_spec_fails_with_location(self):
        spec = single_spec((1.01, 1.02, 0.97))
        st_report = check_structure(spec, samples=30, seed=13)
        assert st_report.passed
        # corrupt the projected pair by rebuilding with a wrong first
        # generator: residual must blow up on generator 1
        bad = StructureSpec((
            GroupElement(S12, (2.02, 0.6, 0.5, 0.4 * (0.5 - 2.02 * 0.36))),
            spec.generators[1], spec.generators[2]))
        from lvmkit.developing import DevStructure
        st_good = build_structure(spec)
        franken = DevStructure(bad, st_good.output_pair, st_good.shifts,
                               st_good.dev, None)
        rng = np.random.default_rng(14)
        res1 = max(equivariance_residual(franken, 1, w)
                   for w in sample_cover_points(rng, 20))
        res3 = max(equivariance_residual(franken, 3, w)
                   for w in sample_cover_points(rng, 20))
        assert res1 > 1e-3 and res3 < 1e-9


def _outcome(fn, *args, **kwargs):
    """What fn returns, or the error it raises as "Type: message"."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _deform_specs():
    """Structures as `lvmkit deform` builds them from a document of each
    regime and developing case: generators from flat coefficient rows."""
    s12 = ResonanceClass("Single", p=1, q=2)
    s23 = ResonanceClass("Single", p=-1, q=3)
    d2 = ResonanceClass("Double", p=2)

    def single(regime, x1, x2, x3, kappa=0.4):
        return (x1, x2, x3, kappa * (x3 - x1 ** regime.p * x2 ** regime.q))

    conjugated = double_spec((1.02, np.diag([0.99, 1.03])),
                             conjugate_by=np.array([[1, 0.3], [0.2j, 1]]))
    docs = {
        "nonresonant": (NR, (BASE.alpha, BASE.beta, (1.3, 0.8j, 1.1))),
        "single-generic": (s12, (single(s12, 2, 0.6, 0.5),
                                 single(s12, 1 + 1j, 0.5j, -0.3 + 0.2j),
                                 single(s12, 1.01, 1.02, 0.97))),
        "single-degenerate": (s23, (single(s23, 2, 0.6, 0.5),
                                    single(s23, 1 + 1j, 0.5j, -0.3),
                                    single(s23, 1, 1, 1, 0.1))),
        "double": (D1, ((2 + 0.5j, 1.3, 0, 0, 0.7 - 0.2j),
                        (0.8, 0.5j, 0, 0, 1.1), (1.02, 0.99, 0, 0, 1.03))),
        "double-conjugated": (D1, [g.params() for g in conjugated.generators]),
        "double-p2": (d2, ((1.5, 1.3, 0, 0, 0.7 - 0.2j), (0.8j, 0.5j, 0, 0, 1.1),
                           (1.01, 0.98, 0, 0, 1.02))),
    }
    return {name: StructureSpec(
        tuple(element_from_params(regime, row) for row in rows),
        base_config=E1 if regime == NR else None)
        for name, (regime, rows) in docs.items()}


DEFORM_SPECS = _deform_specs()


class TestStackedCheck:
    """`check_structure` runs each stage once over the three generators
    stacked; the loop of one generator at a time that it replaced
    (`developing_oracle`) gives the same report to the bit, and the same
    first refusal."""

    @pytest.mark.parametrize("fault", [False, True])
    @pytest.mark.parametrize("seed,samples", [(0, 100), (1, 100), (7, 37),
                                              (123, 1)])
    def test_verify_structures(self, seed, samples, fault):
        for spec in developing_oracle.verify_specs(fault):
            assert repr(check_structure(spec, samples=samples, seed=seed)) \
                == repr(developing_oracle.check_structure(
                    spec, samples=samples, seed=seed))

    @pytest.mark.parametrize("name", sorted(DEFORM_SPECS))
    def test_deform_documents(self, name):
        spec = DEFORM_SPECS[name]
        for seed, samples in ((0, 100), (5, 13), (9, 4099)):
            assert repr(_outcome(check_structure, spec, samples, 1e-9, seed)) \
                == repr(_outcome(developing_oracle.check_structure, spec,
                                 samples, 1e-9, seed))

    def test_first_refusal_is_in_generator_order(self, monkeypatch):
        # generator 1 sends the base images out of the float range, and
        # the deck transform of generator 2, a1 = 5e-324, rounds the xi1 of
        # its images to 0.  Stacked, the deck stage refuses first; one
        # generator at a time, generator 1's action does.
        good = double_spec((1.02, np.diag([0.99, 1.03])))
        st = build_structure(good)
        spec = StructureSpec((GroupElement(D1, (1e308, np.eye(2))),
                              *good.generators[1:]))
        tiny = GroupElement(D1, (5e-324, np.eye(2)))
        crafted = DevStructure(spec, (st.output_pair[0], tiny), st.shifts,
                               st.dev)
        monkeypatch.setattr(developing, "build_structure", lambda s: crafted)
        w = sample_cover_points(np.random.default_rng(0), 20)
        assert _outcome(developing.deck_transform_many, crafted, (1, 2, 3),
                        w) == "ValueError: xi_1 must be nonzero"
        want = _outcome(developing_oracle.check_structure, spec, 20)
        assert want == ("OverflowError: apply: result leaves the float "
                        "range (row 0)")
        # the library applies each generator as a (1, N) stack
        assert _outcome(check_structure, spec, 20) == \
            "OverflowError: apply: result leaves the float range (row 0, 0)"
