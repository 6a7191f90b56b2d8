"""The array forms behind `lvmkit verify` against their scalar oracles.

Every batched form must equal the scalar reading in `verify_oracle` (and
the scalar group laws) to the last bit, row by row, and must raise what a
loop over the rows raises on the first row it refuses.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import verify_oracle as oracle
from lvmkit import cli
from lvmkit.developing import check_structure
from lvmkit.family_gluing import (FamilyPoint, _paired_eigendata,
                                  _paired_eigendata_many, family_action_many,
                                  glue_phi_pq_many, glue_psi_p_many,
                                  invert_psi_p_many)
from lvmkit.rep_variety import StructureSpec
from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import (GroupElement, PointV, _cdiv,
                                   _l_matrices, _numpy_powers, _python_powers,
                                   apply, apply_many, checked, compose,
                                   compose_many,
                                   element_from_params, identity, inverse,
                                   inverse_many, p_eigenvalues,
                                   p_eigenvalues_many)

REGIMES = (ResonanceClass("NonResonant"), ResonanceClass("Single", p=1, q=2),
           ResonanceClass("Single", p=-2, q=3), ResonanceClass("Double", p=1),
           ResonanceClass("Double", p=-3))


def _bits(a):
    """The bytes of an array, with every nan made the same nan: the sign
    of a nan is the one bit the scalar and array forms may differ in."""
    a = np.array(a)
    if a.dtype.kind == "c":
        a.real[np.isnan(a.real)] = np.nan
        a.imag[np.isnan(a.imag)] = np.nan
    return a.tobytes()


def _outcome(fn, *args):
    """What fn returns, as bytes of its arrays, or the error it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return repr([_bits(o) for o in out])


def _rows(rng, n, k, scale):
    """n complex rows of width k with moduli spread over many decades."""
    z = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    return z * np.exp(rng.uniform(-scale, scale, size=(n, 1)))


def _element_rows(rng, regime, n, scale):
    rows = _rows(rng, n, {"NonResonant": 3, "Single": 4, "Double": 5}[regime.tag],
                 scale)
    rows[rng.random(n) < 0.1, 0] = 0  # some rows no element has
    return rows


def _scalar_rows(regime, op, *rows):
    """The scalar op on the group elements of each row: its result, None
    where it refuses them, and "skip" where a row is no group element."""
    out = []
    for k in range(len(rows[0])):
        try:
            args = [element_from_params(regime, r[k]) for r in rows]
        except ValueError:
            out.append("skip")
            continue
        try:
            out.append(op(*args))
        except (ValueError, ZeroDivisionError, OverflowError,
                np.linalg.LinAlgError):
            out.append(None)
    return out


class TestGroupLaws:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(REGIMES), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 30, 400]))
    def test_compose_inverse_apply(self, regime, seed, scale):
        rng = np.random.default_rng(seed)
        a = _element_rows(rng, regime, 40, scale)
        b = _element_rows(rng, regime, 40, scale)
        x = _rows(rng, 40, 3, scale)
        with np.errstate(all="ignore"):
            h, ok = compose_many(regime, a, b)
            inv, inv_ok = inverse_many(regime, a)
            y, fine = apply_many(regime, a, x)
        for got, mask, want in ((h, ok, _scalar_rows(regime, compose, a, b)),
                                (inv, inv_ok, _scalar_rows(regime, inverse, a))):
            for k, w in enumerate(want):
                if w is None:
                    assert not mask[k]
                elif w != "skip" and mask[k]:
                    assert _bits(w.params()) == _bits(got[k])
        for k in range(len(a)):
            try:
                f = element_from_params(regime, a[k])
                want = apply(f, PointV(tuple(x[k]))).array()
            except ValueError:
                continue
            except (ZeroDivisionError, OverflowError):
                assert not fine[k]
                continue
            assert _bits(want) == _bits(y[k])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([-101, -100, -7, -3, -2, -1, 0, 1, 2, 3, 5, 100]))
    def test_powers_and_quotients(self, seed, n):
        rng = np.random.default_rng(seed)
        z = _rows(rng, 50, 1, 400)[:, 0]
        z[:4] = [0, complex(-0.0, 1), complex(1, -0.0), np.inf]
        w = _rows(rng, 50, 1, 400)[:, 0]
        with np.errstate(all="ignore"):
            got_py, got_np, got_div = (_python_powers(z, n), _numpy_powers(z, n),
                                       _cdiv(z, w))
            for k in range(len(z)):
                try:
                    want = complex(z[k]) ** n
                except (OverflowError, ZeroDivisionError):
                    want = complex(np.nan, np.nan)
                for got, ref in ((got_py[k], want), (got_np[k], z[k] ** n),
                                 (got_div[k], complex(z[k]) / complex(w[k]))):
                    assert _bits(got) == _bits(ref)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_refused_rows_raise_as_compose_does(self, regime):
        # the product, or a negative power, underflows to 0 in row 1: the
        # mask refuses it, and the row replayed through compose raises
        # what compose raises
        a = np.ones((3, len(identity(regime).params())), dtype=complex)
        a[:] = identity(regime).params()
        a[1, 0] = 1e-170
        h, ok = compose_many(regime, a, a)
        assert ok.tolist() == [True, False, True]
        f = element_from_params(regime, a[1])
        want = _outcome(compose, f, f)
        assert want.startswith(("ValueError", "ZeroDivisionError"))
        assert _outcome(checked, regime, compose_many, compose, a, a) == want


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
        tees = _tees(amat, bmat, lam)

        def images(points, xs):
            return [np.array([oracle.family_action(pt, word, y).array()
                              for pt, y in zip(points, xs)])]
        with np.errstate(all="ignore"):
            assert _outcome(lambda: [family_action_many(
                "T", amat, bmat, word, x)]) == _outcome(images, tees, x)
            psi = _outcome(glue_psi_p_many, amat, bmat, lam, x, p)
            assert psi == _outcome(lambda: _stack(
                [oracle.glue_psi_p(pt, y, p) for pt, y in zip(tees, x)]))
        if not psi.startswith("["):
            return
        sa, sb, sx = glue_psi_p_many(amat, bmat, lam, x, p)
        sps = [FamilyPoint("S_p", a, b, p=p) for a, b in zip(sa, sb)]
        with np.errstate(all="ignore"):
            assert _outcome(lambda: [family_action_many(
                "S_p", sa, sb, word, sx, p)]) == _outcome(images, sps, sx)
            assert _outcome(invert_psi_p_many, sa, sb, sx, p) == \
                _outcome(lambda: _stack([oracle.invert_psi_p(pt, y, p)
                                         for pt, y in zip(sps, sx)], True))
        amat, bmat, lam, x = _charts(rng, 12, p, q)
        tpq = [FamilyPoint("T_pq", a, b, lam=c, p=p, q=q)
               for a, b, c in zip(amat, bmat, lam)]
        with np.errstate(all="ignore"):
            assert _outcome(lambda: [family_action_many(
                "T_pq", amat, bmat, word, x, p, q)]) == _outcome(images, tpq, x)
            assert _outcome(glue_phi_pq_many, amat, bmat, x, p, q) == \
                _outcome(lambda: _stack([oracle.glue_phi_pq(pt, y, p, q)
                                         for pt, y in zip(tpq, x)]))
            tees = _tees(amat, bmat, lam)
            assert _outcome(glue_phi_pq_many, amat, bmat, x, p, q, True) == \
                _outcome(lambda: _stack([oracle.invert_phi_pq(pt, y, p, q)
                                         for pt, y in zip(tees, x)]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-3, 3))
    def test_twisted_eigendata(self, seed, p):
        # the stacked twisted eigenvalues and paired eigen-data equal the
        # scalar ones that check_condition keeps, degenerate rows included
        rng = np.random.default_rng(seed)
        amat, bmat, lam, x = _charts(rng, 12)
        sa, sb, _ = glue_psi_p_many(amat, bmat, lam, x, p)
        sa[0, 1:, 1:] = [[2, 0], [0, 2 * sa[0, 0, 0] ** p]]  # double root
        sa[1, 2, :] = 0  # det M = 0: a root np.roots appends as 0
        roots = p_eigenvalues_many(sa[:, 0, 0], sa[:, 1:, 1:], p)
        for k in range(12):
            want = p_eigenvalues(sa[k, 0, 0], sa[k, 1:, 1:], p)
            assert _bits(roots[k]) == _bits(np.array(want))
        keep = [k for k in range(12) if k != 1]  # row 1 is no S_p point
        sa, sb = sa[keep], sb[keep]
        many = _paired_eigendata_many(sa, sb, p)
        for k in range(len(sa)):
            want = _paired_eigendata(FamilyPoint("S_p", sa[k], sb[k], p=p))
            assert _bits(np.array([d[k] for d in many])) == _bits(np.array(want))

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
        assert got.startswith("NotInImage: twisted eigenvalues satisfy"
                              if exact else "[")
        assert got == _outcome(lambda: _stack(
            [oracle.invert_psi_p(pt, y, p) for pt, y in zip(sps, sx)], True))


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


class TestDeveloping:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(range(len(SPECS))), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 60))
    def test_check_structure(self, which, seed, samples):
        spec = SPECS[which]
        assert check_structure(spec, samples=samples, seed=seed) == \
            oracle.check_structure(spec, samples=samples, seed=seed)


class TestSuites:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.booleans())
    def test_group_laws(self, seed, samples, fault):
        assert cli._suite_group_laws(seed, samples, 1e-10, fault) == \
            oracle.oracle_group_laws(seed, samples, 1e-10, fault)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.integers(-3, 3),
           st.integers(2, 4), st.booleans())
    @example(0, 3, 2000, 2, False)
    @example(0, 3, -1500, 3, False)
    def test_gluing(self, seed, samples, p, q, fault):
        with np.errstate(all="ignore"):
            assert _outcome(lambda: [repr(cli._suite_gluing(
                seed, samples, 1e-10, p, q, fault))]) == _outcome(
                lambda: [repr(oracle.oracle_gluing(seed, samples, 1e-10, p, q,
                                                   fault))])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.booleans())
    def test_developing(self, seed, samples, fault):
        assert cli._suite_developing(seed, samples, fault) == \
            oracle.oracle_developing(seed, samples, fault)

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
