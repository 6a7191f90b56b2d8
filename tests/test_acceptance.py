"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a per-criterion
PASS/FAIL line (visible with ``pytest -s`` or in captured output)."""

import numpy as np
import pytest

from lvmkit.config_geometry import Configuration, check_siegel, config_report
from lvmkit.holonomy import HolonomyPair, holonomy_pair
from lvmkit.resonance import (Resonance, ResonanceClass, ResonantVectorField,
                              bracket, cohomology_dims, find_resonances)
from lvmkit.resonant_group import (GroupElement, IllConditioned, PointV,
                                   apply, compose, conjugate,
                                   diagonalize_pair, element_from_params,
                                   group_dim, identity, inverse,
                                   simultaneous_triangularize, triangularize)
from lvmkit.rep_variety import (StructureSpec, psi_nonresonant, psi_resonant,
                                tangent_dimension, tangent_gap)
from lvmkit.developing import check_structure
from lvmkit.action import fixed_point_certificate, properness_probe
from lvmkit.family_gluing import (FamilyPoint, family_action, glue_phi_pq,
                                  glue_psi_p, invert_phi_pq, invert_psi_p)

from test_resonance import flow_commutator

NR = ResonanceClass("NonResonant")
S12 = ResonanceClass("Single", p=1, q=2)
D1 = ResonanceClass("Double", p=1)
REGIMES = (NR, S12, D1)

E1 = Configuration(2, (
    (1, 0),
    (1j, 0),
    (0, 1),
    (0, 1j),
    (-1 - 1j, -1 - 1j),
    (-1.1 - 1.1j, -1.1 - 1.1j),
))


def verdict(number, ok, detail):
    print("criterion %02d: %s  [%s]" % (number, "PASS" if ok else "FAIL",
                                        detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


def test_criterion_01_configuration_certification():
    report = config_report(E1)
    ok = (report.type_triple == (2, 6, 4)
          and report.indispensable == frozenset({1, 2, 3, 4}))
    for j in (1, 2, 3, 4):
        vectors = tuple(v for i, v in enumerate(E1.vectors, start=1) if i != j)
        ok = ok and not check_siegel(Configuration(2, vectors))
    verdict(1, ok, "exact certification and indispensable deletions")


def test_criterion_02_dimension_identities():
    dims = tuple(group_dim(r) for r in REGIMES)
    cohs = tuple(cohomology_dims(r) for r in REGIMES)
    ok = dims == (3, 4, 5) and cohs == ((3, 6, 3, 0), (4, 8, 4, 0),
                                        (5, 10, 5, 0))
    verdict(2, ok, "group dims %s, cohomology %s" % (dims, cohs))


def test_criterion_03_tangent_dimensions():
    pairs = {
        NR: (GroupElement(NR, (2, 0.6, 0.5)),
             GroupElement(NR, (1 + 1j, 0.5j, -0.3 + 0.2j))),
        S12: (GroupElement(S12, (2, 0.5, 2 * 0.25, 0)),
              GroupElement(S12, (1.5, 0.8, 1.5 * 0.64, 0))),
        D1: (GroupElement(D1, (2, np.diag([1.3, 1.3 * 2]))),
             GroupElement(D1, (0.5, np.diag([0.9, 0.9 * 0.5])))),
    }
    want = {NR: 6, S12: 8, D1: 10}
    ok = True
    gaps = []
    for regime, pair in pairs.items():
        ok = ok and tangent_dimension(pair, regime) == want[regime]
        gap = tangent_gap(pair, regime)
        gaps.append(gap)
        ok = ok and gap >= 1e3
    verdict(3, ok, "dims 6/8/10, min gap %.1e" % min(gaps))


def _random_element(rng, regime):
    def scalar():
        return complex(rng.uniform(0.5, 1.5)
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


def _random_v_point(rng):
    xi = rng.uniform(0.4, 1.5, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    return PointV(tuple(xi))


def test_criterion_04_group_law_suite():
    rng = np.random.default_rng(41)
    worst = 0.0
    for regime in REGIMES:
        for _ in range(1000):
            f = _random_element(rng, regime)
            g = _random_element(rng, regime)
            h = _random_element(rng, regime)
            x = _random_v_point(rng)
            scale = 1 + max(np.max(np.abs(e.params())) for e in (f, g, h))
            fg = compose(f, g)
            assoc = np.max(np.abs(compose(fg, h).params()
                                  - compose(f, compose(g, h)).params()))
            inv = np.max(np.abs(compose(f, inverse(f)).params()
                                - identity(regime).params()))
            hom = np.max(np.abs(apply(fg, x).array()
                                - apply(f, apply(g, x)).array()))
            worst = max(worst, assoc / scale, inv / scale,
                        hom / (1 + np.max(np.abs(x.array()))))
    verdict(4, worst <= 1e-10, "1000 draws per regime, worst %.2e" % worst)


def _commuting_single_pair(rng, resonant_linear=False):
    p, q = S12.p, S12.q
    while True:
        a = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        b = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        if resonant_linear:
            a[2] = a[0] ** p * a[1] ** q
            return (GroupElement(S12, (*a, complex(rng.normal(), rng.normal()))),
                    GroupElement(S12, (*b, complex(rng.normal(), rng.normal()))))
        ga = a[2] - a[0] ** p * a[1] ** q
        gb = b[2] - b[0] ** p * b[1] ** q
        if abs(ga) > 0.1:
            eps = complex(rng.normal(), rng.normal())
            return (GroupElement(S12, (*a, eps)),
                    GroupElement(S12, (*b, eps * gb / ga)))


def _commuting_double_pair(rng):
    d_f = GroupElement(D1, (1.3 + 0.2j, np.diag([0.9 + 0.5j, 1.7 - 0.3j])))
    d_g = GroupElement(D1, (0.7 - 0.4j, np.diag([2.0j, 0.6 + 0.8j])))
    while True:
        pmat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(pmat)) > 0.3:
            break
    h = GroupElement(D1, (1, pmat))
    return (compose(h, compose(d_f, inverse(h))),
            compose(h, compose(d_g, inverse(h))))


def test_criterion_05_normal_forms():
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(100):
        f = _random_element(rng, D1)
        h, t = triangularize(f)
        scale = 1 + np.max(np.abs(f.params()))
        worst = max(worst,
                    np.max(np.abs(conjugate(h, f).params() - t.params()))
                    / scale,
                    abs(t.data[1][0, 1]) / scale)
    for _ in range(100):
        f, g = _commuting_double_pair(rng)
        h, tf, tg = simultaneous_triangularize(f, g)
        scale = 1 + max(np.max(np.abs(f.params())), np.max(np.abs(g.params())))
        worst = max(worst,
                    np.max(np.abs(conjugate(h, f).params() - tf.params()))
                    / scale,
                    abs(tf.data[1][0, 1]) / scale,
                    abs(tg.data[1][0, 1]) / scale)
    for _ in range(100):
        f, g = _commuting_single_pair(rng)
        h, df, dg = diagonalize_pair(f, g)
        scale = 1 + max(np.max(np.abs(f.params())), np.max(np.abs(g.params())))
        worst = max(worst,
                    np.max(np.abs(conjugate(h, f).params() - df.params()))
                    / scale,
                    abs(df.data[3]) / scale, abs(dg.data[3]) / scale)
    refused = 0
    for _ in range(10):
        f, g = _commuting_single_pair(rng, resonant_linear=True)
        try:
            diagonalize_pair(f, g)
        except IllConditioned:
            refused += 1
    ok = worst <= 1e-10 and refused == 10
    verdict(5, ok, "100 instances each, worst %.2e, %d/10 refusals"
            % (worst, refused))


def _oracle_resonances(pair, tol, bound):
    """Vectorized exhaustive enumeration over the full exponent box."""
    p1 = np.arange(-bound, bound + 1)
    p2 = np.arange(0, bound + 1)
    p3 = np.arange(0, bound + 1)
    grid = np.stack(np.meshgrid(p1, p2, p3, indexing="ij"), axis=-1)
    flat = grid.reshape(-1, 3)
    la = np.log(np.asarray(pair.alpha, dtype=complex))
    lb = np.log(np.asarray(pair.beta, dtype=complex))
    za = flat @ la
    zb = flat @ lb
    found = set()
    for j in (1, 2, 3):
        ra = np.abs(np.exp(za - la[j - 1]) - 1)
        rb = np.abs(np.exp(zb - lb[j - 1]) - 1)
        hits = flat[np.maximum(ra, rb) <= tol]
        for p in hits:
            found.add((j, tuple(int(v) for v in p)))
    return found


def _random_eigendata(rng, regime):
    a = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    b = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    if regime.tag == "Single":
        p = int(rng.integers(-3, 4))
        q = int(rng.integers(2, 5))
        a[2] = a[0] ** p * a[1] ** q
        b[2] = b[0] ** p * b[1] ** q
    elif regime.tag == "Double":
        p = int(rng.integers(-3, 4))
        a[2] = a[0] ** p * a[1]
        b[2] = b[0] ** p * b[1]
    return HolonomyPair(tuple(a), tuple(b))


def test_criterion_06_resonance_detection():
    rng = np.random.default_rng(61)
    tol, bound = 1e-9, 16
    j1_clean = True
    agreements = 0
    for i in range(200):
        pair = _random_eigendata(rng, REGIMES[i % 3])
        got = {(r.j, r.p) for r in find_resonances(pair, tol=tol, bound=bound)}
        want = _oracle_resonances(pair, tol, bound)
        if got == want:
            agreements += 1
        for j, p in got:
            if j == 1 and p != (1, 0, 0):
                j1_clean = False
    ok = agreements == 200 and j1_clean
    verdict(6, ok, "%d/200 oracle agreements, j=1 trivial only: %s"
            % (agreements, j1_clean))


def test_criterion_07_first_obstruction():
    x = ResonantVectorField.from_dict({(3, (0, 0, 1)): 1})
    y = ResonantVectorField.from_dict({(3, (1, 2, 0)): 1})
    exact = bracket(x, y).as_dict()
    ok = exact == {(3, (1, 2, 0)): -1}
    rng = np.random.default_rng(71)
    worst = 0.0
    instances = (
        (x, y),
        (ResonantVectorField.from_dict({(1, (1, 0, 0)): 0.7 - 0.2j,
                                        (3, (0, 0, 1)): 1.1j}),
         ResonantVectorField.from_dict({(2, (0, 1, 0)): -0.4,
                                        (3, (1, 2, 0)): 0.9 + 0.3j})),
        (ResonantVectorField.from_dict({(2, (0, 1, 0)): 1.2,
                                        (3, (2, 2, 0)): 0.5}),
         ResonantVectorField.from_dict({(3, (0, 0, 1)): -0.8 + 0.1j})),
    )
    for u, v in instances:
        expected = bracket(u, v)
        for _ in range(20):
            z0 = rng.uniform(0.5, 1.5, size=3) * np.exp(
                2j * np.pi * rng.uniform(size=3))
            numeric = flow_commutator(u, v, z0)
            worst = max(worst,
                        float(np.max(np.abs(numeric - expected.evaluate(z0)))))
    ok = ok and worst <= 1e-6
    verdict(7, ok, "exact coefficients and flow oracle worst %.2e" % worst)


def _near_identity_specs(rng, regime, base_pair):
    def small():
        return 1 + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 2e-3
    if regime.tag == "NonResonant":
        third = GroupElement(regime, (small(), small(), small()))
        return StructureSpec((GroupElement(regime, base_pair.alpha),
                              GroupElement(regime, base_pair.beta), third),
                             base_config=E1)
    if regime.tag == "Single":
        kappa = 0.4

        def elem(x1, x2, x3):
            return GroupElement(regime, (x1, x2, x3,
                                         kappa * (x3 - x1 * x2 ** 2)))
        return StructureSpec((elem(2, 0.6, 0.5),
                              elem(1 + 1j, 0.5j, -0.3 + 0.2j),
                              elem(small(), small(), small())))
    third = GroupElement(regime, (small(), np.diag([small(), small()])))
    return StructureSpec((GroupElement(regime,
                                       (2 + 0.5j, np.diag([1.3, 0.7 - 0.2j]))),
                          GroupElement(regime, (0.8, np.diag([0.5j, 1.1]))),
                          third))


def test_criterion_08_projection_correctness():
    base_pair = holonomy_pair(E1)
    rng = np.random.default_rng(81)
    worst = 0.0
    for regime in REGIMES:
        for _ in range(50):
            spec = _near_identity_specs(rng, regime, base_pair)
            report = check_structure(spec, samples=100, tol=1e-9,
                                     seed=int(rng.integers(1 << 30)))
            worst = max(worst, report.max_residual)
    # exactness at the identity deformation
    exact = 0.0
    nr_spec = StructureSpec((GroupElement(NR, base_pair.alpha),
                             GroupElement(NR, base_pair.beta), identity(NR)),
                            base_config=E1)
    pair, _, _ = psi_nonresonant(nr_spec)
    exact = max(exact,
                np.max(np.abs(pair[0].params() - np.array(base_pair.alpha))),
                np.max(np.abs(pair[1].params() - np.array(base_pair.beta))))
    for regime in (S12, D1):
        spec = _near_identity_specs(np.random.default_rng(0), regime,
                                    base_pair)
        fixed = StructureSpec(spec.generators[:2] + (identity(regime),))
        out, _ = psi_resonant(fixed)
        exact = max(exact,
                    np.max(np.abs(out[0].params()
                                  - spec.generators[0].params())),
                    np.max(np.abs(out[1].params()
                                  - spec.generators[1].params())))
    ok = worst <= 1e-9 and exact == 0.0
    verdict(8, ok, "worst equivariance %.2e, identity exactness %.1e"
            % (worst, exact))


def _random_t_point(rng):
    def c(scale=1.0):
        return complex(rng.normal(), rng.normal()) * scale
    a = (1.5 + c(0.2), 2.0 + c(0.2), 0.5 + c(0.1))
    b = (0.8 + c(0.2), 1.3 + c(0.2), 0.4 + c(0.1))
    eps = c(0.3)
    amat = np.diag(a).astype(complex)
    amat[2, 1] = eps
    bmat = np.diag(b).astype(complex)
    bmat[2, 1] = eps * (b[2] - b[1]) / (a[2] - a[1])
    return FamilyPoint("T", amat, bmat, lam=c(0.5))


def _random_tpq_point(rng, p, q):
    def c(scale=1.0):
        return complex(rng.normal(), rng.normal()) * scale
    a = (1.5 + c(0.2), 2.0 + c(0.2), 0.5 + c(0.1))
    b = (0.8 + c(0.2), 1.3 + c(0.2), 0.4 + c(0.1))
    eps = c(0.3)
    amat = np.diag(a).astype(complex)
    amat[2, 1] = eps
    bmat = np.diag(b).astype(complex)
    bmat[2, 1] = (eps * (b[2] - b[0] ** p * b[1] ** q)
                  / (a[2] - a[0] ** p * a[1] ** q))
    return FamilyPoint("T_pq", amat, bmat, lam=c(0.5), p=p, q=q)


def _pair_diff(u, v):
    out = max(np.max(np.abs(u[0].amat - v[0].amat)),
              np.max(np.abs(u[0].bmat - v[0].bmat)),
              np.max(np.abs(u[1].array() - v[1].array())))
    if u[0].lam is not None and v[0].lam is not None:
        out = max(out, abs(u[0].lam - v[0].lam))
    return float(out)


def test_criterion_09_gluing_suite():
    rng = np.random.default_rng(91)
    p, q = 1, 2
    worst = 0.0
    for _ in range(50):
        point = _random_t_point(rng)
        x = PointV((2 + complex(rng.normal(), rng.normal()),
                    complex(rng.normal(), rng.normal()),
                    1 + complex(rng.normal(), rng.normal())))
        out = glue_psi_p(point, x, p)
        scale = 1 + np.max(np.abs(out[1].array()))
        for word in ((1, 0), (0, 1)):
            lhs = glue_psi_p(point, family_action(point, word, x), p)
            rhs = (out[0], family_action(out[0], word, out[1]))
            worst = max(worst, _pair_diff(lhs, rhs) / scale)
        back = invert_psi_p(out[0], out[1], p)
        worst = max(worst, _pair_diff(back, (point, x)) / scale)

        point = _random_tpq_point(rng, p, q)
        out = glue_phi_pq(point, x, p, q)
        scale = 1 + np.max(np.abs(out[1].array()))
        for word in ((1, 0), (0, 1)):
            lhs = glue_phi_pq(point, family_action(point, word, x), p, q)
            rhs = (out[0], family_action(out[0], word, out[1]))
            worst = max(worst, _pair_diff(lhs, rhs) / scale)
        back = invert_phi_pq(out[0], out[1], p, q)
        worst = max(worst, _pair_diff(back, (point, x)) / scale)
    # degenerate reductions are exact
    amat = np.diag([1.5, 2.0, 0.5]).astype(complex)
    bmat = np.diag([0.8, 1.3, 0.4]).astype(complex)
    trivial = FamilyPoint("T", amat, bmat, lam=0.0)
    x = PointV((2, 1 + 1j, -0.5))
    out, y = glue_psi_p(trivial, x, p)
    exact = max(np.max(np.abs(out.amat - amat)), np.max(np.abs(out.bmat - bmat)),
                np.max(np.abs(y.array() - x.array())))
    tp = FamilyPoint("T_pq", amat, bmat, lam=0.3, p=p, q=q)
    out, y = glue_phi_pq(tp, x, p, q)
    exact = max(exact, np.max(np.abs(out.amat - amat)),
                np.max(np.abs(out.bmat - bmat)),
                np.max(np.abs(y.array() - x.array())), abs(out.lam - 0.3))
    ok = worst <= 1e-10 and exact == 0.0
    verdict(9, ok, "50 points per map, worst %.2e, reductions exact"
            % worst)


def test_criterion_10_action_suite():
    rng = np.random.default_rng(101)
    free = 0
    for _ in range(20):
        # multipliers drawn with moduli bounded away from 1 on a random
        # side, the profile the fixed-point-free theorem covers
        def gen():
            mods = np.exp(rng.uniform(0.2, 1.0, size=3)
                          * rng.choice([-1.0, 1.0], size=3))
            return GroupElement(NR, tuple(
                mods * np.exp(2j * np.pi * rng.uniform(size=3))))
        cert = fixed_point_certificate((gen(), gen()), window=25)
        free += cert.fixed_point_free
    unit = (GroupElement(NR, tuple(np.exp(2j * np.pi
                                          * np.array([1 / 3, 1 / 3, 1 / 7])))),
            GroupElement(NR, tuple(np.exp(2j * np.pi
                                          * np.array([1 / 5, 1 / 7, 1 / 9])))))
    counter = fixed_point_certificate(unit, window=6)
    base_pair = holonomy_pair(E1)
    probe = properness_probe((GroupElement(NR, base_pair.alpha),
                              GroupElement(NR, base_pair.beta)),
                             horizon=20, samples=20, seed=10)
    ok = (free == 20 and not counter.fixed_point_free
          and probe.no_violation_found)
    verdict(10, ok, "%d/20 free at window 25, witness %s, probe clean %s"
            % (free, counter.witness is not None, probe.no_violation_found))
