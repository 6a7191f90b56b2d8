"""The array forms behind `lvmkit verify` against their scalar oracles.

The array forms compute in numpy's arithmetic and the oracles in the
scalar code's, so values are compared within twice the rounding bounds
of `verify_bounds`, which are derived from the formulas before the run.
Decisions are compared exactly: refused or not, the exception and its
message, the NotInImage clause, a suite's passed flag.  The exception is
a row whose decision turns on rounding (a power within 2^8 of the ends
of the float range, a term near its top, a determinant within its
rounding bound of 0, an order of moduli within their errors), which
each test excludes by that computed margin.  A refused batch raises what
a loop over its rows raises on the first row it refuses.
"""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import verify_oracle as oracle
from verify_bounds import (GAMMA, HUGE, TINY, U, action_sizes, chart_ops,
                           eigen_errors, group_laws_errors, gluing_errors,
                           invert_psi_errors, law_ops, law_sizes, near_end,
                           near_range, phi_sizes, psi_sizes, residual_errors)
from lvmkit import cli
from lvmkit.developing import (build_structure, check_structure,
                               sample_cover_points)
from lvmkit.family_gluing import (DENOM_TOL, FamilyPoint, _paired_eigendata,
                                  _paired_eigendata_many, family_action_many,
                                  glue_phi_pq_many, glue_psi_p_many,
                                  invert_psi_p_many)
from lvmkit.rep_variety import StructureSpec
from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import (GroupElement, PointV, _l_matrices,
                                   _power_check, accepted, apply, apply_many,
                                   compose, compose_many, element_from_params,
                                   identity, inverse, inverse_many,
                                   p_eigenvalues, p_eigenvalues_many, passed)

REGIMES = (ResonanceClass("NonResonant"), ResonanceClass("Single", p=1, q=2),
           ResonanceClass("Single", p=-2, q=3), ResonanceClass("Double", p=1),
           ResonanceClass("Double", p=-3))


def _outcome(fn, *args):
    """What fn returns, or the error it raises as "Type: message"."""
    try:
        return fn(*args)
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _agree(got, want, err):
    """Two outcomes agree: the same error, or arrays (or tuples of them)
    equal within err entrywise."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return all(np.all(np.abs(np.asarray(g) - np.asarray(w)) <= e)
               for g, w, e in zip(got, want, err))


def _rows(rng, n, k, scale):
    """n complex rows of width k with moduli spread over many decades."""
    z = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    return z * np.exp(rng.uniform(-scale, scale, size=(n, 1)))


def _element_rows(rng, regime, n, scale):
    rows = _rows(rng, n, {"NonResonant": 3, "Single": 4, "Double": 5}[regime.tag],
                 scale)
    rows[rng.random(n) < 0.1, 0] = 0  # some rows no element has
    return rows


def _law_ambiguous(regime, law, rows, got, size):
    """Rows of a group law whose refusal turns on rounding: a power of an
    input near the range, or one Python's power returns as nan where
    numpy's is refused, the divisor of the Single inverse or its first
    product near an end of it, a term near the top of the range, an entry
    `GroupElement` or `PointV` tests for 0 whose terms are below TINY, or
    a determinant within its rounding bound of 0.  A term beyond the range
    leaves it on both sides, and both refuse the row."""
    p, q = regime.p, regime.q
    with np.errstate(all="ignore"):
        e = np.log2(size)
        amb = ((near_end(e) & (e > 0)) | np.isnan(e)).any(axis=1)
        if law is apply_many:
            amb |= (size[:, 0] < TINY) | (size[:, 1:] < TINY).all(axis=1)
            powers = [(rows[1][:, 0], p)] if regime.tag == "Double" else []
        else:
            lead = size[:, :1] if regime.tag == "Double" else size[:, :3]
            amb |= (lead < TINY).any(axis=1)
            if regime.tag == "Double":
                err = 2 * law_ops(regime) * GAMMA + 4 * U
                det = np.linalg.det(got[:, 1:].reshape(-1, 2, 2))
                amb |= ~(np.abs(det) > err * (size[:, 1] * size[:, 4]
                                              + size[:, 2] * size[:, 3]))
            base = rows[-1] if law is compose_many else rows[0]
            if law is inverse_many and regime.tag == "Double":
                powers = [(1 / base[:, 0], p)]
            elif regime.tag == "Double":
                powers = [(base[:, 0], p)]
            elif regime.tag == "Single":
                powers = [(base[:, 0], p), (base[:, 1], q)]
                if law is inverse_many:
                    # the quotient by (a3 a1^p) a2^q, each product of which
                    # may underflow to 0 on one side only near the end; a
                    # divisor clearly below it is 0 on both sides, and its
                    # refusal is compared though the quotient is beyond HUGE
                    e = np.log2(np.abs(base[:, :3]))
                    head = e[:, 2] + p * e[:, 0]
                    den = head + q * e[:, 1]
                    zero = np.minimum(head, den) <= -1074 - 8
                    amb = (amb & ~zero) | near_end(head) | near_end(den)
            else:
                powers = []
        for z, n in powers:
            amb |= near_range(z, n) | _nan_power(z, n)
            if regime.tag == "Double":  # tau takes z^-n and z^n
                amb |= _nan_power(z, -n)
    return amb


def _nan_power(z, n):
    """Where Python's power complex(z) ** n returns nan without raising,
    its chain of products having overflowed."""
    out = np.zeros(len(z), dtype=bool)
    for k, w in enumerate(z):
        try:
            out[k] = cmath.isnan(complex(w) ** n)
        except ArithmeticError:
            pass
    return out


class TestGroupLaws:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(REGIMES), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 30, 400]))
    def test_compose_inverse_apply(self, regime, seed, scale):
        # each row the scalar law takes is taken, within 2 k GAMMA of the
        # law on moduli, and each row it refuses is refused with its error
        rng = np.random.default_rng(seed)
        a = _element_rows(rng, regime, 40, scale)
        b = _element_rows(rng, regime, 40, scale)
        x = _rows(rng, 40, 3, scale)
        bound = 2 * law_ops(regime) * GAMMA
        for law, scalar, rows in ((compose_many, compose, (a, b)),
                                  (inverse_many, inverse, (a,)),
                                  (apply_many, apply, (a, x))):
            got, checks = law(regime, *rows)
            ok = passed(checks)
            size = law_sizes(regime, law, *rows)
            ambiguous = _law_ambiguous(regime, law, rows, got, size)
            elements = rows[:1] if law is apply_many else rows
            for k in range(len(a)):
                try:
                    args = [element_from_params(regime, r[k]) for r in elements]
                except ValueError:
                    continue  # no group element: nothing to compare
                if law is apply_many:
                    args.append(PointV(tuple(x[k])))
                want = _outcome(scalar, *args)
                if ambiguous[k]:
                    continue
                if isinstance(want, str):
                    assert not ok[k]
                    assert _outcome(lambda: accepted(law(
                        regime, *(r[k:k + 1] for r in rows)))) == want
                else:
                    assert ok[k]
                    assert _agree([got[k]], [_values(want)], [bound * size[k]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([-101, -100, -7, -3, -2, -1, 0, 1, 2, 3, 5, 100]))
    def test_powers_and_quotients(self, seed, n):
        # powers: binary powering takes at most |n| products and a
        # quotient, the exp-log power errs by |n| (|log |z|| + pi) u; a
        # power is refused exactly where Python refuses it, with its error,
        # except a non-finite z, which passes through
        rng = np.random.default_rng(seed)
        z = _rows(rng, 50, 1, 400)[:, 0]
        z[:4] = [0, complex(-0.0, 1), complex(1, -0.0), np.inf]
        w = _rows(rng, 50, 1, 400)[:, 0]
        got, [(ok, refuse, _)] = _power_check(z, n)
        with np.errstate(all="ignore"):
            rel = (abs(n) + 3) * GAMMA * (
                1 + np.abs(np.log(np.abs(z) + (z == 0))) + np.pi)
            quotients = z / w
            sizes = np.abs(z) / np.abs(w)
        for k in range(len(z)):
            if not np.isfinite(z[k]):
                assert ok[k]
                continue
            if near_range(z[k], n):
                continue
            want = _outcome(lambda: complex(z[k]) ** n)
            if not isinstance(want, str) and not np.isfinite(want):
                continue  # Python's chain of products overflowed to nan
            if isinstance(want, str):
                assert not ok[k] and _outcome(refuse, z[k]) == want
            else:
                assert ok[k] and abs(got[k] - want) <= 2 * rel[k] * abs(want)
            if TINY <= sizes[k] <= HUGE:
                assert abs(quotients[k] - complex(z[k]) / complex(w[k])) <= \
                    2 * 6 * GAMMA * sizes[k]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_refused_rows_raise_as_compose_does(self, regime):
        # the product, or a negative power, underflows to 0 in row 1: the
        # checks refuse it, and it raises what compose raises on it
        a = np.ones((3, len(identity(regime).params())), dtype=complex)
        a[:] = identity(regime).params()
        a[1, 0] = 1e-170
        h, checks = compose_many(regime, a, a)
        assert passed(checks).tolist() == [True, False, True]
        f = element_from_params(regime, a[1])
        want = _outcome(compose, f, f)
        assert want.startswith(("ValueError", "ZeroDivisionError"))
        assert _outcome(lambda: accepted(compose_many(regime, a, a))) == want


def _values(result):
    return result.params() if isinstance(result, GroupElement) \
        else result.array()


def _charts(rng, n, p=0, q=1):
    """Stacked chart points as the verify suite draws them, and points."""
    z = rng.normal(size=(n, 22)).view(complex)
    amat, bmat, lam = cli._random_charts(z[:, :8], p, q)
    return amat, bmat, lam, cli._random_points(z[:, 8:11])


def _stack(outs, with_lam=False):
    """The (point, x) results of a scalar chart map, stacked as the
    batched map returns them."""
    cols = [np.array([o[0].amat for o in outs]),
            np.array([o[0].bmat for o in outs])]
    if with_lam:
        cols.append(np.array([o[0].lam for o in outs]))
    return cols + [np.array([o[1].array() for o in outs])]


def _tees(amat, bmat, lam):
    return [FamilyPoint("T", a, b, lam=c) for a, b, c in zip(amat, bmat, lam)]


def _denominators_ambiguous(amat, p, q):
    """Whether the IllConditioned refusal of a row turns on rounding: its
    twisted denominator a3 - a1^p a2^q within its error of the bound."""
    a1, a2, a3 = (amat[:, i, i] for i in range(3))
    with np.errstate(all="ignore"):
        twist = np.abs(a1) ** p * np.abs(a2) ** q
        tiny = DENOM_TOL * (1 + np.maximum(np.abs(a2), np.abs(a3)))
        err = 2 * chart_ops(p, q) * GAMMA * (np.abs(a3) + twist)
        return bool((np.abs(np.abs(a3 - a1 ** p * a2 ** q) - tiny) <= err).any())


def _invert_with_eigendata(sa, sb, sx, p):
    """The batched inverse of psi_p, and the scalar one fed the same
    eigen-data (the eigen-solve is compared in test_twisted_eigendata),
    with the bound on their difference."""
    got = _outcome(invert_psi_p_many, sa, sb, sx, p)
    eig = _paired_eigendata_many(sa, sb, p)
    want = _outcome(lambda: _stack([oracle.invert_psi_p(
        FamilyPoint("S_p", a, b, p=p), y, p, tuple(d[k] for d in eig))
        for k, (a, b, y) in enumerate(zip(sa, sb, sx))], True))
    zero = np.zeros(sa.shape)
    err = invert_psi_errors(sa, sb, sx, p, eig, np.zeros((len(sa), 4)), zero,
                            zero, np.zeros(sx.shape))
    return got, want, [2 * e for e in err]


class TestCharts:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-3, 3), st.integers(2, 4),
           st.sampled_from([(1, 0), (0, 1), (-1, 2), (2, -1), (0, 0)]),
           st.booleans())
    def test_chart_maps(self, seed, p, q, word, spoil):
        rng = np.random.default_rng(seed)
        amat, bmat, lam, x = _charts(rng, 12)
        if spoil:
            # an eigenvalue collision (IllConditioned) and a point off V
            amat[rng.integers(12), 2, 2] = amat[0, 1, 1]
            amat[0, 2, 2] = amat[0, 1, 1]
            x[rng.integers(12), 0] = 0
        assume(not _denominators_ambiguous(amat, p, 1))
        tees = _tees(amat, bmat, lam)

        def images(points, xs):
            return [np.array([oracle.family_action(pt, word, y).array()
                              for pt, y in zip(points, xs)])]

        def action(space, am, bm, xs, *pq):
            size, ops = action_sizes(space, am, bm, word, np.abs(xs), *pq)
            return [2 * ops * GAMMA * size]
        with np.errstate(all="ignore"):
            assert _agree(_outcome(lambda: [family_action_many(
                "T", amat, bmat, word, x)]), _outcome(images, tees, x),
                action("T", amat, bmat, x))
            psi = _outcome(glue_psi_p_many, amat, bmat, lam, x, p)
            bound = 2 * chart_ops(p, 1) * GAMMA
            assert _agree(psi, _outcome(lambda: _stack(
                [oracle.glue_psi_p(pt, y, p) for pt, y in zip(tees, x)])),
                [bound * s for s in psi_sizes(amat, bmat, lam, np.abs(x), p)])
        if isinstance(psi, str):
            return
        sa, sb, sx = psi
        sps = [FamilyPoint("S_p", a, b, p=p) for a, b in zip(sa, sb)]
        with np.errstate(all="ignore"):
            assert _agree(_outcome(lambda: [family_action_many(
                "S_p", sa, sb, word, sx, p)]), _outcome(images, sps, sx),
                action("S_p", sa, sb, sx, p))
            assert _agree(*_invert_with_eigendata(sa, sb, sx, p))
        amat, bmat, lam, x = _charts(rng, 12, p, q)
        assume(not _denominators_ambiguous(amat, p, q))
        tpq = [FamilyPoint("T_pq", a, b, lam=c, p=p, q=q)
               for a, b, c in zip(amat, bmat, lam)]
        bound = 2 * chart_ops(p, q) * GAMMA
        with np.errstate(all="ignore"):
            assert _agree(_outcome(lambda: [family_action_many(
                "T_pq", amat, bmat, word, x, p, q)]),
                _outcome(images, tpq, x), action("T_pq", amat, bmat, x, p, q))
            assert _agree(
                _outcome(glue_phi_pq_many, amat, bmat, x, p, q),
                _outcome(lambda: _stack([oracle.glue_phi_pq(pt, y, p, q)
                                         for pt, y in zip(tpq, x)])),
                [bound * s for s in phi_sizes(amat, bmat, np.abs(x), p, q)])
            tees = _tees(amat, bmat, lam)
            assert _agree(
                _outcome(glue_phi_pq_many, amat, bmat, x, p, q, True),
                _outcome(lambda: _stack([oracle.invert_phi_pq(pt, y, p, q)
                                         for pt, y in zip(tees, x)])),
                [bound * s for s in phi_sizes(amat, bmat, np.abs(x), p, q,
                                              True)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-3, 3))
    def test_twisted_eigendata(self, seed, p):
        # the stacked twisted eigenvalues and paired eigen-data agree with
        # the scalar ones that check_condition keeps within twice the
        # bounds of `eigen_errors`, degenerate rows included; a row whose
        # order or assignment of roots turns on that error is compared
        # as an unordered pair, or not at all
        rng = np.random.default_rng(seed)
        amat, bmat, lam, x = _charts(rng, 12)
        sa, sb, _ = glue_psi_p_many(amat, bmat, lam, x, p)
        sa[0, 1:, 1:] = [[2, 0], [0, 2 * sa[0, 0, 0] ** p]]  # double root
        sa[1, 2, :] = 0  # det M = 0: a root np.roots appends as 0
        roots = p_eigenvalues_many(sa[:, 0, 0], sa[:, 1:, 1:], p)
        errors, ambiguous = eigen_errors(sa, sb, p)
        dr = 2 * errors[:, 0]
        for k in range(12):
            want = np.array(p_eigenvalues(sa[k, 0, 0], sa[k, 1:, 1:], p))
            if abs(want[0].real - want[1].real) <= dr[k]:
                want = min((want, want[::-1]),
                           key=lambda v: np.max(np.abs(v - roots[k])))
            assert np.all(np.abs(roots[k] - want) <= dr[k])
        keep = [k for k in range(12) if k != 1]  # row 1 is no S_p point
        sa, sb, errors = sa[keep], sb[keep], errors[keep]
        many = _paired_eigendata_many(sa, sb, p)
        for k in np.flatnonzero(~ambiguous[keep]):
            want = _paired_eigendata(FamilyPoint("S_p", sa[k], sb[k], p=p))
            err = np.array([0, *errors[k, :2], 0, *errors[k, 2:]]) * 2
            assert np.all(np.abs(np.array([d[k] for d in many])
                                 - np.array(want)) <= err)

    def test_not_in_image_first_row(self):
        # row 1 has a double twisted eigenvalue, so no assignment is
        # modulus-ordered, and row 2 a point off V: the batched inverse
        # raises row 1's error, as a loop over the rows does
        rng = np.random.default_rng(3)
        amat, bmat, lam, x = _charts(rng, 4)
        sa, sb, sx = glue_psi_p_many(amat, bmat, lam, x, 1)
        sa[1, 1:, 1:] = [[2, 0], [0, 2 * sa[1, 0, 0]]]
        sx[2, 0] = 0
        sps = [FamilyPoint("S_p", a, b, p=1) for a, b in zip(sa, sb)]
        got = _outcome(invert_psi_p_many, sa, sb, sx, 1)
        assert got.startswith("NotInImage")
        assert got == _outcome(lambda: _stack(
            [oracle.invert_psi_p(pt, y, 1) for pt, y in zip(sps, sx)], True))

    @pytest.mark.parametrize("exact", [False, True])
    def test_resonant_clause(self, exact):
        # twisted eigenvalues (a2, a1^p a2 (1 + 1e-6)) pass the log screen
        # of the resonance clause but not its residual, so the inverse maps
        # them; a row with a3' = a1^p a2' to rounding is refused, as a loop
        # over the rows refuses it
        rng = np.random.default_rng(5)
        n, p = 6, 1
        sa, sb = np.zeros((2, n, 3, 3), dtype=complex)
        for mats in (sa, sb):
            d1, d2 = (np.exp(rng.uniform(-0.6, -0.1, size=(2, n))
                             + 2j * np.pi * rng.uniform(size=(2, n))))
            conj = np.eye(2) + 0.3 * rng.normal(size=(n, 2, 2))
            eigen = np.stack([d2, d2 * (1 + 1e-6)], axis=1)
            mats[:, 0, 0] = d1
            mats[:, 1:, 1:] = (_l_matrices(d1, p) @ np.linalg.inv(conj)
                               @ (eigen[..., None] * conj))
        if exact:  # a double root the quadratic finds to rounding
            sa[3] = np.diag([0.5, 3, 1.5])
        sx = cli._random_points(rng.normal(size=(n, 6)).view(complex))
        sps = [FamilyPoint("S_p", a, b, p=p) for a, b in zip(sa, sb)]
        got = _outcome(invert_psi_p_many, sa, sb, sx, p)
        assert (got.startswith("NotInImage: twisted eigenvalues satisfy")
                if exact else not isinstance(got, str))
        assert _agree(got, _outcome(lambda: _stack(
            [oracle.invert_psi_p(pt, y, p) for pt, y in zip(sps, sx)], True)),
            [np.inf] * 4)
        assert _agree(*_invert_with_eigendata(sa, sb, sx, p))


def _specs():
    nr = ResonanceClass("NonResonant")
    d0 = ResonanceClass("Double", p=0)
    d1 = ResonanceClass("Double", p=1)
    s12 = ResonanceClass("Single", p=1, q=2)
    s23 = ResonanceClass("Single", p=-1, q=3)
    pair = cli.holonomy_pair(cli._E1)

    def single(regime, x1, x2, x3, kappa=0.4):
        p, q = regime.p, regime.q
        return GroupElement(regime, (x1, x2, x3,
                                     kappa * (x3 - x1 ** p * x2 ** q)))
    c = np.array([[0.99, 0.01], [0.002j, 0.98]])
    return (
        StructureSpec((GroupElement(nr, pair.alpha), GroupElement(nr, pair.beta),
                       GroupElement(nr, (1.05, 1 - 2e-3, 1 + 1e-3j))),
                      base_config=cli._E1),
        StructureSpec((single(s12, 2, 0.6, 0.5), single(s12, 1 + 1j, 0.5j, -0.3),
                       single(s12, 1.01, 1.02, 0.97))),
        StructureSpec((single(s23, 2, 0.6, 0.5), single(s23, 1 + 1j, 0.5j, -0.3),
                       single(s23, 1, 1, 1, 0.1))),
        StructureSpec((GroupElement(d1, (2 + 0.5j, np.diag([1.3, 0.7 - 0.2j]))),
                       GroupElement(d1, (0.8, np.diag([0.5j, 1.1]))),
                       GroupElement(d1, (1.02, np.diag([0.99, -1.03]))))),
        StructureSpec((GroupElement(d0, (1, c @ c)), GroupElement(d0, (1, c @ c @ c)),
                       GroupElement(d0, (1, c)))),
    )


SPECS = _specs()


def _structure_errors(spec, samples, seed):
    """The bound on one computation's residual for each generator of
    `check_structure`, over its seeded cover points."""
    structure = build_structure(spec)
    w = sample_cover_points(np.random.default_rng(seed), samples)
    return np.array([residual_errors(structure, index, w).max()
                     for index in (1, 2, 3)])


def _agree_reports(got, want, err, tol):
    """Two structure reports agree: their flags, seed and sample count
    exactly (passed unless the worst residual is within 2 err of tol),
    their residuals within 2 err."""
    worst = 2 * err.max()
    assert (got.complete, got.seed, got.samples) == \
        (want.complete, want.seed, want.samples)
    if abs(want.max_residual - tol) > worst:
        assert got.passed == want.passed
    assert abs(got.max_residual - want.max_residual) <= worst
    assert abs(got.mean_residual - want.mean_residual) <= worst
    for (i, mx, mean), (j, mx2, mean2), e in zip(got.per_generator,
                                                 want.per_generator, err):
        assert i == j
        assert abs(mx - mx2) <= 2 * e and abs(mean - mean2) <= 2 * e


class TestDeveloping:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(range(len(SPECS))), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 60))
    def test_check_structure(self, which, seed, samples):
        spec = SPECS[which]
        _agree_reports(check_structure(spec, samples=samples, seed=seed),
                       oracle.check_structure(spec, samples=samples,
                                              seed=seed),
                       _structure_errors(spec, samples, seed), 1e-9)


class _ShortDirection:
    """The draws of a generator, except that row `row` of the first two
    normal arrays, the direction parts of the first batch, is scaled to
    a direction far shorter than 1e-6."""

    def __init__(self, seed, row):
        self.rng, self.row, self.normals = np.random.default_rng(seed), row, 0

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)

    def normal(self, *args, **kwargs):
        out = self.rng.normal(*args, **kwargs)
        if self.row is not None and self.normals < 2:
            out[self.row] *= 1e-8
        self.normals += 1
        return out


class TestSampler:
    @pytest.mark.parametrize("row", [None, 0, 4])
    def test_cover_points_as_the_oracle_draws_them(self, row):
        # the same points in the same order, a short direction dropped and
        # its point drawn in the next batch; the two norms sum four squares
        # in different orders (within 3 u each) and the quotient and the
        # product by the modulus round once each
        got = sample_cover_points(_ShortDirection(11, row), 7)
        want = np.array(oracle.sample_cover_points(_ShortDirection(11, row),
                                                   7))
        assert got.shape == want.shape == (7, 3)
        assert np.all(np.abs(got - want) <= 10 * U * np.abs(want))


def _agree_suites(got, want, err, tol):
    """Two suite results agree: the same failure, or the same keys and
    flags (passed unless the worst residual is within 2 err of tol) and
    residuals within 2 err."""
    if isinstance(got, str) or "failure" in got:
        assert got == want
        return
    assert got.keys() == want.keys()
    for key in got:
        if key == "passed" and abs(want["max_residual"] - tol) <= 2 * err:
            continue
        if key == "max_residual":
            assert abs(got[key] - want[key]) <= 2 * err
        elif key != "structures":
            assert got[key] == want[key]


def _draws(seed, samples, width):
    """The complex draws of a one-block suite, as `cli._worst` takes them."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(samples, 2 * width)).view(complex)


class TestSuites:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.booleans())
    def test_group_laws(self, seed, samples, fault):
        rng = np.random.default_rng(seed)
        err = 0.0
        for i, regime in enumerate(cli._REGIMES):
            width = 3 * len(identity(regime).params()) + 3
            z = rng.normal(size=(samples, 2 * width)).view(complex)
            err = max(err, group_laws_errors(regime, z, fault and i == 0).max())
        _agree_suites(cli._suite_group_laws(seed, samples, 1e-10, fault),
                      oracle.oracle_group_laws(seed, samples, 1e-10, fault),
                      err, 1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.integers(-3, 3),
           st.integers(2, 4), st.booleans())
    @example(0, 3, 2000, 2, False)
    @example(0, 3, -1500, 3, False)
    def test_gluing(self, seed, samples, p, q, fault):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = _outcome(cli._suite_gluing, seed, samples, 1e-10, p, q, fault)
            want = _outcome(oracle.oracle_gluing, seed, samples, 1e-10, p, q,
                            fault)
            if isinstance(got, str) or isinstance(want, str):
                assert got == want
                return
            err = gluing_errors(p, q, _draws(seed, samples, 22), fault).max()
        _agree_suites(got, want, err, 1e-10)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.booleans())
    def test_developing(self, seed, samples, fault):
        got = cli._suite_developing(seed, samples, fault)
        want = oracle.oracle_developing(seed, samples, fault)
        err = max(_structure_errors(spec, samples, seed).max()
                  for spec in _developing_specs(fault))
        _agree_suites(got, want, err, 1e-9)
        for a, b in zip(got["structures"], want["structures"]):
            assert a["regime"] == b["regime"] and a["complete"] == b["complete"]
            assert abs(a["max_residual"] - b["max_residual"]) <= 2 * err

    def test_first_failing_sample_raises(self):
        # a block that raises is evaluated again sample by sample, so the
        # error is the first failing sample's, as in the scalar loop
        calls = []

        def evaluate(z, fault):
            calls.append(len(z))
            if len(z) > 1 or z[0, 0].real > 1:
                raise ValueError("draw %.17g" % z[0, 0].real)
            return 0.0
        draws = np.random.default_rng(0).normal(size=(6, 2))[:, 0]
        k = int(np.argmax(draws > 1))
        assert k == 3
        with pytest.raises(ValueError, match="draw %.17g$" % draws[k]):
            cli._worst(np.random.default_rng(0), 6, 1, evaluate, False)
        assert calls == [6] + [1] * (k + 1)


def _developing_specs(fault):
    """The structures of `cli._suite_developing`."""
    pair = cli.holonomy_pair(cli._E1)
    nr = ResonanceClass("NonResonant")
    s12 = ResonanceClass("Single", p=1, q=2)
    d1 = ResonanceClass("Double", p=1)

    def single(x1, x2, x3, shift=0.0):
        return GroupElement(s12, (x1, x2, x3, 0.4 * (x3 - x1 * x2 ** 2) + shift))
    return (
        StructureSpec((GroupElement(nr, pair.alpha), GroupElement(nr, pair.beta),
                       GroupElement(nr, (1 + 1e-3, 1 - 2e-3, 1 + 1e-3j))),
                      base_config=cli._E1),
        StructureSpec((single(2, 0.6, 0.5), single(1 + 1j, 0.5j, -0.3 + 0.2j),
                       single(1.01, 1.02, 0.97, 1e-9 if fault else 0.0))),
        StructureSpec((GroupElement(d1, (2 + 0.5j, np.diag([1.3, 0.7 - 0.2j]))),
                       GroupElement(d1, (0.8, np.diag([0.5j, 1.1]))),
                       GroupElement(d1, (1.02, np.diag([0.99, 1.03]))))),
    )


def _wide_charts(rng, n, scale):
    """Stacked T points whose entries' moduli span e^-scale .. e^scale,
    and points of V alike: (amat, bmat, lam, x)."""
    d = _rows(rng, n, 8, scale)
    amat = np.zeros((2, n, 3, 3), dtype=complex)
    amat[:, :, [0, 1, 2], [0, 1, 2]] = d[:, :6].reshape(n, 2, 3).transpose(1, 0, 2)
    amat[:, :, 2, 1] = d[:, 6:8].T
    return amat[0], amat[1], _rows(rng, n, 1, scale)[:, 0], _rows(rng, n, 3,
                                                                  scale)


class TestNoSilentNan:
    """On rows whose moduli span +-300 decades every array law and chart
    map returns finite rows or raises one of the refusals `verify`
    reports; it never returns nan, and its arithmetic leaks no
    RuntimeWarning."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(REGIMES), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1.0, 100.0, 690.0]))
    def test_group_laws(self, regime, seed, scale):
        rng = np.random.default_rng(seed)
        a = _element_rows(rng, regime, 40, scale)
        b = _element_rows(rng, regime, 40, scale)
        x = _rows(rng, 40, 3, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law, rows in ((compose_many, (a, b)), (inverse_many, (a,)),
                              (apply_many, (a, x))):
                out, checks = law(regime, *rows)
                assert np.isfinite(out[passed(checks)]).all()
                for k in range(len(a)):
                    try:
                        row = accepted(law(regime, *(r[k:k + 1] for r in rows)))
                    except cli._REFUSALS:
                        continue
                    assert np.isfinite(row).all()

    def test_scalar_laws_refuse_non_finite(self):
        # finite inputs whose result leaves the float range: the scalar
        # laws refuse it as the array forms do, and leak no RuntimeWarning
        nr, d1 = REGIMES[0], REGIMES[3]
        big = GroupElement(nr, (1e200 * (1 + 1j), 1, 1))
        wide = GroupElement(d1, (1, np.diag([1e300, 1])))
        cases = [(compose, big, big), (compose, wide, wide),
                 (inverse, GroupElement(nr, (1e-310, 1, 1))),
                 (inverse, GroupElement(d1, (1, np.diag([1e-310, 1])))),
                 (apply, big, PointV((1e200, 1, 1))),
                 (apply, wide, PointV((1, 1e300, 1)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law, *args in cases:
                with pytest.raises(OverflowError,
                                   match="^result leaves the float range$"):
                    law(*args)
                rows = [a.array() if isinstance(a, PointV) else a.params()
                        for a in args]
                many = {compose: compose_many, inverse: inverse_many,
                        apply: apply_many}[law]
                with pytest.raises(OverflowError,
                                   match="^result leaves the float range$"):
                    accepted(many(args[0].regime, *(r[None] for r in rows)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1.0, 100.0, 690.0]),
           st.integers(-3, 3), st.integers(2, 4),
           st.sampled_from([(1, 0), (0, 1), (-1, 2), (2, -1)]))
    def test_chart_maps(self, seed, scale, p, q, word):
        rng = np.random.default_rng(seed)
        amat, bmat, lam, x = _wide_charts(rng, 12, scale)
        maps = [lambda: family_action_many("T", amat, bmat, word, x),
                lambda: family_action_many("T_pq", amat, bmat, word, x, p, q),
                lambda: glue_phi_pq_many(amat, bmat, x, p, q),
                lambda: glue_phi_pq_many(amat, bmat, x, p, q, True),
                lambda: glue_psi_p_many(amat, bmat, lam, x, p)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sa, sb = amat.copy(), bmat.copy()
            sa[:, 1, 2], sb[:, 1, 2] = _rows(rng, 12, 2, scale).T
            maps += [lambda: family_action_many("S_p", sa, sb, word, x, p),
                     lambda: invert_psi_p_many(sa, sb, x, p)]
            for fn in maps:
                try:
                    out = fn()
                except cli._REFUSALS:
                    continue
                for part in out if isinstance(out, tuple) else (out,):
                    assert np.isfinite(part).all()
