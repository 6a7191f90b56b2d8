"""The array forms behind `lvmkit verify` against their scalar oracles.

The array forms compute in numpy's arithmetic and the oracles in
Python's scalar complex arithmetic (`law_reference`), so values are
compared within twice the rounding bounds of `verify_bounds`, which are
derived from the formulas before the run.  Decisions are compared
exactly: refused or not, the exception and its message, the NotInImage
clause, a suite's passed flag; where Python's power or division raises
an ArithmeticError, the library raises an OverflowError that names the
law, the quantity and the row (`law_reference.same_outcome`).  The exception is a row whose decision
turns on rounding (a power within 2^8 of the ends of the float range, a
term near its top, a determinant within its rounding bound of 0, an
order of moduli within their errors), which each test excludes by that
computed margin.  A refused batch raises what a loop over its rows
raises on the first row it refuses.
"""

import cmath
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import law_reference as ref
import verify_oracle as oracle
from developing_oracle import verify_specs as _developing_specs
from membership_oracle import charts_ok
from verify_bounds import (GAMMA, HUGE, TINY, U, UNCHECKED, action_sizes,
                           chart_ops, eigen_errors, group_laws_errors, gluing_errors,
                           invert_psi_errors, law_exponents, law_ops,
                           law_sizes, near_end, near_range, phi_sizes, psi_sizes, residual_errors)
from click.testing import CliRunner
from lvmkit import cli, developing, family_gluing, resonant_group
from lvmkit.developing import (build_structure, check_structure,
                               sample_cover_points)
from lvmkit.family_gluing import (DENOM_TOL, FamilyPoint, _paired_eigendata,
                                  family_action_many, glue_phi_pq_many,
                                  glue_psi_p_many, invert_psi_p,
                                  invert_psi_p_many)
from lvmkit.rep_variety import StructureSpec
from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import (GroupElement, PointV, _elements_ok,
                                   _power, _twisted_roots,
                                   apply, apply_many, compose, compose_many,
                                   element_from_params, identity, inverse,
                                   inverse_many, power_many)

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


def _at_row(outcome, k):
    """The outcome of a one-row law call as row k of a batch raises it."""
    return outcome.replace("(row 0)", "(row %d)" % k)


def _law_ambiguous(regime, law, rows, got, size):
    """Rows of a group law whose refusal turns on rounding: a power of an
    input near the range, or one Python's power returns as nan where
    numpy's is refused, the divisor of the Single inverse or its first
    product near an end of it, a term near the top of the range (also
    just beyond it, where its components may still be finite), an entry
    `GroupElement` or `PointV` tests for 0 whose terms are below TINY, or
    a determinant within its rounding bound of 0.  A term beyond the range
    leaves it on both sides, and both refuse the row."""
    p, q = regime.p, regime.q
    with np.errstate(all="ignore"):
        e = law_exponents(regime, law, *rows)
        amb = ((np.abs(e - 1024) < 8) | np.isnan(e)).any(axis=1)
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
    @example(REGIMES[1], 85070, 400)  # a term of modulus 2^1024.3
    def test_compose_inverse_apply(self, regime, seed, scale):
        # each row the scalar law takes is taken, within 2 k GAMMA of the
        # law on moduli, and each row it refuses is refused with its error
        rng = np.random.default_rng(seed)
        a = _element_rows(rng, regime, 40, scale)
        b = _element_rows(rng, regime, 40, scale)
        x = _rows(rng, 40, 3, scale)
        bound = 2 * law_ops(regime) * GAMMA
        for law, scalar, rows in ((compose_many, ref.compose, (a, b)),
                                  (inverse_many, ref.inverse, (a,)),
                                  (apply_many, ref.apply, (a, x))):
            with np.errstate(all="ignore"):
                got = UNCHECKED[law](regime, *rows)
            size = law_sizes(regime, law, *rows)
            ambiguous = _law_ambiguous(regime, law, rows, got, size)
            elements = rows[:1] if law is apply_many else rows
            outcomes = [_outcome(law, regime, *(r[k:k + 1] for r in rows))
                        for k in range(len(a))]
            refused = [isinstance(out, str) for out in outcomes]
            # the batch raises what its first refused row raises, as its row
            first = refused.index(True) if any(refused) else len(a)
            if not ambiguous[:first + 1].any():
                assert _outcome(lambda: law(regime, *rows) is None) == (
                    False if first == len(a) else _at_row(outcomes[first],
                                                          first))
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
                    assert refused[k] and ref.same_outcome(outcomes[k], want)
                else:
                    assert not refused[k]
                    assert _agree([got[k]], [_values(want)], [bound * size[k]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([-101, -100, -7, -3, -2, -1, 0, 1, 2, 3, 5, 100]))
    def test_powers_and_quotients(self, seed, n):
        # powers: binary powering takes at most |n| products and a
        # quotient, the exp-log power errs by |n| (|log |z|| + pi) u; a
        # power is refused exactly where Python refuses it, by name, except
        # a non-finite z, which passes through
        rng = np.random.default_rng(seed)
        z = _rows(rng, 50, 1, 400)[:, 0]
        z[:4] = [0, complex(-0.0, 1), complex(1, -0.0), np.inf]
        w = _rows(rng, 50, 1, 400)[:, 0]
        with np.errstate(all="ignore"):
            rel = (abs(n) + 3) * GAMMA * (
                1 + np.abs(np.log(np.abs(z) + (z == 0))) + np.pi)
            quotients = z / w
            sizes = np.abs(z) / np.abs(w)
        for k in range(len(z)):
            got = _outcome(_power, z[k:k + 1], n, "law", "z")
            if not np.isfinite(z[k]):
                assert not isinstance(got, str)
                continue
            if near_range(z[k], n):
                continue
            want = _outcome(lambda: complex(z[k]) ** n)
            if not isinstance(want, str) and not np.isfinite(want):
                continue  # Python's chain of products overflowed to nan
            if isinstance(want, str):
                assert ref.same_outcome(got, want)
                assert got == ("OverflowError: law: z^%d leaves the float "
                               "range (row 0)" % n)
            else:
                assert abs(got[0] - want) <= 2 * rel[k] * abs(want)
            if TINY <= sizes[k] <= HUGE:
                assert abs(quotients[k] - complex(z[k]) / complex(w[k])) <= \
                    2 * 6 * GAMMA * sizes[k]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_refused_rows_raise_as_compose_does(self, regime):
        # the product, or a negative power, underflows to 0 in row 1: it
        # is refused, and raises what compose raises on it, a ValueError
        # word for word and Python's ZeroDivisionError as a named
        # OverflowError
        a = np.ones((3, len(identity(regime).params())), dtype=complex)
        a[:] = identity(regime).params()
        a[1, 0] = 1e-170
        assert not isinstance(_outcome(compose_many, regime, a[::2], a[::2]),
                              str)
        f = element_from_params(regime, a[1])
        want = _outcome(ref.compose, f, f)
        got = _outcome(compose_many, regime, a, a)
        assert ref.same_outcome(got, want)
        assert _at_row(_outcome(compose, f, f), 1) == got
        if want.startswith("ZeroDivisionError"):
            assert re.fullmatch(r"OverflowError: compose: b1\^-\d leaves the "
                                r"float range \(row 1\)", got)
        else:
            assert want.startswith("ValueError") and got == want


S32 = ResonanceClass("Single", p=3, q=2)
D2, DM2 = ResonanceClass("Double", p=2), ResonanceClass("Double", p=-2)


# the Double regime takes z^-p and z^p, in this order: numpy's z^-2 of a
# z whose square overflows is nan, so where p > 0 only z^-p is refused,
# and where p < 0 a small z has z^-p = 0 and z^p refused
@pytest.mark.parametrize("law,regime,column,value,message", [
    (compose_many, S32, 0, 1e200, "b1^3 leaves the float range"),
    (compose_many, S32, 1, 1e200, "b2^2 leaves the float range"),
    (compose_many, D2, 0, 1e-200, "b1^-2 leaves the float range"),
    (compose_many, DM2, 0, 1e-200, "b1^-2 leaves the float range"),
    (compose_many, REGIMES[0], 0, 1e200, "result leaves the float range"),
    (inverse_many, S32, 0, 1e200, "a1^3 leaves the float range"),
    (inverse_many, S32, 1, 1e200, "a2^2 leaves the float range"),
    (inverse_many, S32, 0, 1e-200, "a3 a1^3 a2^2 rounds to 0"),
    (inverse_many, D2, 0, 1e200, "(1/a1)^-2 leaves the float range"),
    (inverse_many, DM2, 0, 1e200, "(1/a1)^-2 leaves the float range"),
    (inverse_many, REGIMES[0], 0, 1e-310, "result leaves the float range"),
    (apply_many, D2, 0, 1e-200, "xi1^-2 leaves the float range"),
    (apply_many, DM2, 0, 1e-200, "xi1^-2 leaves the float range"),
    (apply_many, S32, 1, 1e200, "result leaves the float range"),
    (power_many, S32, 0, 1e200, "a1^3 leaves the float range"),
    (power_many, S32, 0, 1e-105, "(1/a1)^3 leaves the float range"),
    (power_many, S32, 0, 1e-110, "a3 a1^3 a2^2 rounds to 0"),
    (power_many, D2, 0, 1e-200, "(1/a1)^-2 leaves the float range")],
    ids=["compose-b1^p", "compose-b2^q", "compose-b1^-p", "compose-b1^p<0",
         "compose-result", "inverse-a1^p", "inverse-a2^q", "inverse-divisor",
         "inverse-(1/a1)^-p", "inverse-(1/a1)^p<0", "inverse-result",
         "apply-xi1^-p", "apply-xi1^p<0", "apply-result", "power-a1^p",
         "power-(1/a1)^p", "power-divisor", "power-(1/a1)^-p"])
def test_refusal_names_law_quantity_and_row(law, regime, column, value,
                                            message):
    # row 1 of three holds a base whose power, or an output that, leaves
    # the float range (compose: of b; apply: of the points; the Single
    # shear's xi2^q is part of the output), or a Single divisor that
    # rounds to 0: the law raises OverflowError naming itself, the
    # quantity and the row, and its one-row call row 0
    rows = np.tile(identity(regime).params(), (3, 1))
    points = np.ones((3, 3), dtype=complex)
    (points if law is apply_many else rows)[1, column] = value
    if law is compose_many and message.startswith("result"):
        rows[1, column] = value  # the product of two such rows
    args = {compose_many: (rows, rows), inverse_many: (rows,),
            apply_many: (rows, points),
            power_many: (rows, np.arange(-2, 3)[:, None])}[law]
    name = law.__name__.replace("_many", "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(law, regime, *args) == (
            "OverflowError: %s: %s (row 1)" % (name, message))
        one = [a[1:2] if a.shape[0] == 3 else a for a in args]
        assert _outcome(law, regime, *one) == (
            "OverflowError: %s: %s (row 0)" % (name, message))


# 2x2 blocks at and near a zero determinant: a rank-one block whose
# products round alike, exact dyadic rank one, equal and opposite products
# beyond the float range, products that underflow, one ulp off and half an
# ulp off (which rounds to rank one), a wide diagonal, rank-one rows whose
# last entry is a rounded quotient, so that their products differ in the
# last bits, and an exact rank-one block and an invertible one whose
# entries are beyond 2^512, where a complex product overflows
NEAR_SINGULAR = {
    "one-third": [[3, 1], [1, 1 / 3]],
    "dyadic-rank-one": [[0.5 + 0.5j, 4 + 2j], [1, 6 - 2j]],
    "equal-overflowing-products": [[1e200, 1e200], [1e200, 1e200]],
    "opposite-overflowing-products": [[1e200, 1e200], [1e200, -1e200]],
    "underflowing-products": [[1e-200, 0], [0, 1e-200]],
    "one-ulp-off": [[1, 1], [1, 1 + 2 ** -52]],
    "half-ulp-off": [[1, 1], [1, 1 + 2 ** -53]],
    "wide-diagonal": [[1e-200, 0], [0, 1e200]],
    "rounded-rank-one-a": [[-0.8 - 0.25j, -1.32 + 0.42j],
                           [1.14 - 0.55j, 1.021836298932384 - 1.82532384341637j]],
    "rounded-rank-one-b": [[0.1 + 0.48j, 1.9 - 1.58j],
                           [1.73 - 0.94j, -8.274259567387688 - 5.477554076539102j]],
    "rounded-rank-one-c": [[1.35 + 0.19j, -0.4 - 0.02j],
                           [0.61 - 0.15j,
                            -0.17452275906596362 + 0.059969869794468944j]],
    "rounded-rank-one-d": [[0.22 + 0.62j, 1.08 - 0.93j],
                           [-1.15 - 0.71j,
                            -0.5333456561922368 + 2.878974121996303j]],
    "complex-rank-one-beyond-2^512": (2.0 ** 600 * (1 + 1j) * np.ones((2, 2))
                                      ).tolist(),
    "invertible-beyond-2^512": [[2.0 ** 600, 2.0 ** 600],
                                [2.0 ** 600, 2.0 ** 601]],
}


class TestDeterminantAgreement:
    """The scalar `GroupElement`, `_elements_ok`, `charts_ok` and
    `FamilyPoint` read a 2x2 determinant by one formula, m11 m22 - m12 m21
    in numpy's array arithmetic on entries rescaled by powers of two where
    a product could leave the float range, and refuse the same blocks;
    `inverse` and `inverse_many` invert each block that they take."""

    NAMES = sorted(NEAR_SINGULAR)
    MATS = np.array([NEAR_SINGULAR[n] for n in NAMES], dtype=complex)
    ROWS = np.concatenate([np.ones((len(MATS), 1)), MATS.reshape(-1, 4)],
                          axis=1)

    def test_same_refusals(self):
        mats, rows = self.MATS, self.ROWS
        charts = np.zeros((len(mats), 3, 3), dtype=complex)
        charts[:, 0, 0], charts[:, 1:, 1:] = 1, mats
        eye = np.broadcast_to(np.eye(3), charts.shape)
        scalar = [_outcome(GroupElement, REGIMES[3], (1, m)) for m in mats]
        points = [_outcome(FamilyPoint, "S_p", a, np.eye(3), None, 1)
                  for a in charts]
        refused = [isinstance(out, str) for out in scalar]
        assert refused == [isinstance(out, str) for out in points]
        with np.errstate(all="ignore"):
            assert refused == (~_elements_ok(REGIMES[3], rows)).tolist()
        assert refused == (~charts_ok("S_p", charts, eye)).tolist()
        one = identity(REGIMES[3]).params()[None]
        assert refused == [isinstance(_outcome(
            compose_many, REGIMES[3], row[None], one), str) for row in rows]
        assert {out for out in scalar if isinstance(out, str)} == {
            "ValueError: Double element needs a1 != 0 and invertible M"}
        assert {out for out in points if isinstance(out, str)} == {
            "ValueError: matrices must be invertible"}
        assert {n for n, r in zip(self.NAMES, refused) if r} == {
            "one-third", "dyadic-rank-one", "equal-overflowing-products",
            "half-ulp-off", "rounded-rank-one-a", "rounded-rank-one-b",
            "complex-rank-one-beyond-2^512"}
        # the rows whose refusal differs from np.linalg.det's, an LU
        # factorization, which reads the first two as invertible and the
        # others as singular
        with np.errstate(all="ignore"):
            lu = (np.linalg.det(mats) == 0).tolist()
        assert {n for n, r, d in zip(self.NAMES, refused, lu) if r != d} == {
            "rounded-rank-one-a", "rounded-rank-one-b", "rounded-rank-one-c",
            "rounded-rank-one-d", "underflowing-products"}

    @pytest.mark.parametrize("regime", [REGIMES[3], REGIMES[4]])
    def test_inverse_of_every_block_taken(self, regime):
        # the blocks LU reads as singular are inverted too, and a batch
        # raises the refusal of its first refused row, here row 0 (a1 = 0)
        with np.errstate(all="ignore"):
            lu = np.linalg.det(self.MATS) != 0
            cond = np.linalg.cond(self.MATS)
        taken = set()
        for name, row, m, k in zip(self.NAMES, self.ROWS, self.MATS, cond):
            f = _outcome(GroupElement, regime, (1, m))
            want = f if isinstance(f, str) else _outcome(ref.inverse, f)
            got = _outcome(inverse_many, regime, row[None])
            if isinstance(want, str):
                assert ref.same_outcome(got, want)
            else:
                taken.add(name)
                assert np.array_equal(got[0], want.params())
                if k < 1e8:
                    assert np.abs(want.data[1] @ m - np.eye(2)).max() <= 1e-14
            first = _outcome(inverse_many, regime, np.array(
                [[0, 1, 0, 0, 1], row]))
            assert first == ("ValueError: Double element needs a1 != 0 "
                             "and invertible M")
        assert taken - {n for n, ok in zip(self.NAMES, lu) if ok} == {
            "rounded-rank-one-c", "rounded-rank-one-d", "underflowing-products"}


class TestCleanCallsStayLean:
    """A group law computes its rows and one mask; only a refused row
    takes the refusal path, which finds it (`_first`) and names why it is
    refused.  `verify all` calls the laws and takes that path nowhere."""

    LAWS = ("compose_many", "inverse_many", "apply_many")

    def _counting(self, monkeypatch):
        counts = {"calls": 0, "refused": 0}
        modules = (resonant_group, developing, family_gluing, cli)
        for name in self.LAWS:
            law = getattr(resonant_group, name)

            def counting(*args, law=law):
                counts["calls"] += 1
                return law(*args)
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        first = resonant_group._first

        def counting_first(ok):
            counts["refused"] += 1
            return first(ok)
        monkeypatch.setattr(resonant_group, "_first", counting_first)
        return counts

    def test_verify_all_builds_none(self, monkeypatch):
        counts = self._counting(monkeypatch)
        result = CliRunner().invoke(cli.main, ["verify", "all", "--seed", "0",
                                               "--json"])
        assert result.exit_code == 0
        assert counts["calls"] > 0 and counts["refused"] == 0

    def test_refusal_path_is_seen(self, monkeypatch):
        # the count does see the path of a refused row
        counts = self._counting(monkeypatch)
        row = np.array([[1e-170, 1, 1]])
        with pytest.raises(ValueError, match="three nonzero scalars"):
            resonant_group.compose_many(REGIMES[0], row, row)
        assert counts["refused"] == 1


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
    eig = _paired_eigendata(sa, sb, p)
    want = _outcome(lambda: _stack([oracle.invert_psi_p(
        FamilyPoint("S_p", a, b, p=p), y, p, tuple(d[k] for d in eig))
        for k, (a, b, y) in enumerate(zip(sa, sb, sx))], True))
    zero = np.zeros(sa.shape)
    err = invert_psi_errors(sa, sb, sx, p, eig, np.zeros((len(sa), 4)), zero,
                            zero, np.zeros(sx.shape))
    return got, want, [2 * e for e in err]


# diag(a1, d, a1 d): the twisted double root d of p = 1 (the first and
# second the parent's quadratic solver found to rounding, the last two it
# split by 1.1e-8 and 1.3e-8)
_EXACT_DIAGONALS = ((0.5, 3, 1.5), (0.7, 0.6, 0.42), (0.5, 0.75, 0.375),
                    (0.3, 0.9, 0.27))


def _dyadic(draw, top, real=False):
    """A nonzero complex dyadic (x + i y) 2^-e of few bits, x != 0 if real."""
    x, y = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
        lambda z: z[0] if real else any(z)))
    return complex(x, y) * 2.0 ** -draw(st.integers(0, top))


@st.composite
def twisted_plants(draw, split=None):
    """(amat, bmat, p) of an S_p point and its planted eigen-data
    (a1, a2', a3', b1, b2', b3').  The first block has the twisted roots
    r and r (1 + 2^-k), k drawn from ``split``, or without it the double
    root r of a Jordan or scalar block J: N = P J adj(P) with P a product
    of small-integer shears (det P = 1) and M = L_{a1,p} N.  The second
    block is L_{b1,p} P (c0 + c1 J) adj(P), which commutes with N.  Every
    entry is a dyadic of few bits, so the planted roots are the exact
    roots of the floats.  |a1^p| <= 1/4 keeps the roots' roles
    modulus-ordered; split roots get distinct real parts, since roots
    that differ in their imaginary parts alone are ordered by rounding."""
    p = draw(st.sampled_from([-2, -1, 1, 2]))
    a1 = draw(st.sampled_from([1, -1, 1j, -1j])) * draw(
        st.sampled_from([1, 3])) * 2.0 ** (draw(st.integers(2, 3))
                                           * (1 if p < 0 else -1))
    r = _dyadic(draw, 3, real=split is not None)
    if split is None:
        roots = (r, r)
        jmat = np.array([[r, 0], [draw(st.sampled_from([0, 1])), r]])
    else:
        roots = (r, r + r * 2.0 ** -draw(split))
        jmat = np.diag(roots)
    pmat = np.eye(2)
    for lower, k in draw(st.lists(st.tuples(st.booleans(),
                                            st.integers(-2, 2)),
                                  min_size=1, max_size=3)):
        pmat = pmat @ (np.array([[1, 0], [k, 1]]) if lower
                       else np.array([[1, k], [0, 1]]))
    adj = np.array([[pmat[1, 1], -pmat[0, 1]], [-pmat[1, 0], pmat[0, 0]]])
    c0, c1 = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    assume(c0 + c1 * roots[0] != 0 and c0 + c1 * roots[1] != 0)
    b1 = _dyadic(draw, 2)
    amat, bmat = np.zeros((2, 3, 3), dtype=complex)
    poly = c0 * np.eye(2) + c1 * jmat
    for mat, z, block in ((amat, a1, jmat), (bmat, b1, poly)):
        mat[0, 0] = z
        mat[1:, 1:] = np.diag([1, z ** p]) @ pmat @ block @ adj
    # the lexicographically larger root is a2', the other a3' / a1^p
    big, small = sorted(roots, key=lambda z: (z.real, z.imag), reverse=True)
    return amat, bmat, p, (a1, big, small * a1 ** p, b1, c0 + c1 * big,
                           (c0 + c1 * small) * b1 ** p)


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
        # the twisted roots and paired eigen-data agree with the np.roots
        # and SVD reference of `verify_oracle` within twice the bounds of
        # `eigen_errors`, degenerate rows included; a row whose order or
        # assignment of roots turns on that error is compared as an
        # unordered pair, or not at all.  The double root of row 0, which
        # the reference splits by about sqrt(u), comes out as two equal
        # roots
        rng = np.random.default_rng(seed)
        amat, bmat, lam, x = _charts(rng, 12)
        sa, sb, _ = glue_psi_p_many(amat, bmat, lam, x, p)
        ap = _power(sa[:, 0, 0], p, "S_p chart", "alpha1")
        sa[0, 1:, 1:] = [[2, 0], [0, 2 * ap[0]]]  # the double root 2
        sa[1, 2, :] = 0  # det M = 0: a root np.roots appends as 0
        # the roots -1 and -1e-8, which b + s and b - s alone lose
        sa[2, 1:, 1:] = [[-1, 0], [0, -1e-8 * ap[2]]]
        roots = _twisted_roots(ap, sa[:, 1:, 1:])
        errors, ambiguous = eigen_errors(sa, sb, p)
        dr = 2 * errors[:, 0]
        # d = 2 ap - 2 ap is 0, and the root (2 ap) / ap one quotient
        assert roots[0, 0] == roots[0, 1]
        assert abs(roots[0, 0] - 2) <= 2 * GAMMA
        for k in range(1, 12):
            want = np.array(oracle.p_eigenvalues(sa[k, 0, 0], sa[k, 1:, 1:], p))
            if abs(want[0].real - want[1].real) <= dr[k]:
                want = min((want, want[::-1]),
                           key=lambda v: np.max(np.abs(v - roots[k])))
            assert np.all(np.abs(roots[k] - want) <= dr[k])
        keep = [k for k in range(12) if k != 1]  # row 1 is no S_p point
        sa, sb, errors = sa[keep], sb[keep], errors[keep]
        got = _paired_eigendata(sa, sb, p)
        for k in np.flatnonzero(~ambiguous[keep]):
            want = oracle._paired_eigendata(FamilyPoint("S_p", sa[k], sb[k], p=p))
            err = np.array([0, *errors[k, :2], 0, *errors[k, 2:]]) * 2
            assert np.all(np.abs(np.array([d[k] for d in got])
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
        # them, as a loop over the rows does.  A row diag(a1, d, a1 d) with
        # p = 1 has the double root d and is refused with the resonance
        # clause; the loop's reference solver splits some of these double
        # roots by rounding, so it is fed the library's eigen-data there
        rng = np.random.default_rng(5)
        n, p = 6, 1
        sa, sb = np.zeros((2, n, 3, 3), dtype=complex)
        for mats in (sa, sb):
            d1, d2 = (np.exp(rng.uniform(-0.6, -0.1, size=(2, n))
                             + 2j * np.pi * rng.uniform(size=(2, n))))
            conj = np.eye(2) + 0.3 * rng.normal(size=(n, 2, 2))
            eigen = np.stack([d2, d2 * (1 + 1e-6)], axis=1)
            mats[:, 0, 0] = d1
            lmat = np.zeros((n, 2, 2), dtype=complex)  # diag(1, d1^p)
            lmat[:, 0, 0], lmat[:, 1, 1] = 1, d1 ** p
            mats[:, 1:, 1:] = (lmat @ np.linalg.inv(conj)
                               @ (eigen[..., None] * conj))
        sx = cli._random_points(rng.normal(size=(n, 6)).view(complex))
        if not exact:
            sps = [FamilyPoint("S_p", a, b, p=p) for a, b in zip(sa, sb)]
            got = _outcome(invert_psi_p_many, sa, sb, sx, p)
            assert not isinstance(got, str)
            assert _agree(got, _outcome(lambda: _stack(
                [oracle.invert_psi_p(pt, y, p) for pt, y in zip(sps, sx)],
                True)), [np.inf] * 4)
        for diag in _EXACT_DIAGONALS if exact else ():
            sa[3] = np.diag(diag)
            got = _outcome(invert_psi_p_many, sa, sb, sx, p)
            assert got.startswith("NotInImage: twisted eigenvalues satisfy")
        assert _agree(*_invert_with_eigendata(sa, sb, sx, p))

    @settings(max_examples=200, deadline=None)
    @given(twisted_plants())
    def test_planted_double_root_refused(self, plant):
        # a3' = a1^p a2' holds exactly when the twisted roots coincide
        point = FamilyPoint("S_p", *plant[:2], p=plant[2])
        assert _outcome(invert_psi_p, point, PointV((1, 1, 1)), plant[2]) == (
            "NotInImage: twisted eigenvalues satisfy a3' = a1^p a2'")

    @settings(max_examples=200, deadline=None)
    @given(twisted_plants(st.sampled_from([20, 23])))
    def test_planted_split_roots_decided_exactly(self, plant):
        # roots r and r (1 + 2^-20) or r (1 + 2^-23), split by about 1e-6
        # and 1e-7, are no double root: the inverse maps the point, or
        # refuses it for its lower shear, as their exact values decide
        amat, bmat, p, eigendata = plant
        point = FamilyPoint("S_p", amat, bmat, p=p)
        x = PointV((1, 1, 1))
        got = _outcome(invert_psi_p, point, x, p)
        want = _outcome(oracle.invert_psi_p, point, x, p, eigendata)
        assert (got == want if isinstance(want, str)
                else not isinstance(got, str))


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
        with pytest.MonkeyPatch.context() as mp:
            if fault:
                oracle.inject_fault(mp)
            got = cli._suite_group_laws(seed, samples, 1e-10)
        _agree_suites(got, oracle.oracle_group_laws(seed, samples, 1e-10,
                                                    fault), err, 1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.integers(-3, 3),
           st.integers(2, 4), st.booleans())
    @example(0, 3, 2000, 2, False)
    @example(0, 3, -1500, 3, False)
    def test_gluing(self, seed, samples, p, q, fault):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.MonkeyPatch.context() as mp:
                if fault:
                    oracle.inject_fault(mp)
                got = _outcome(cli._suite_gluing, seed, samples, 1e-10, p, q)
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
        with pytest.MonkeyPatch.context() as mp:
            if fault:
                oracle.inject_fault(mp)
            got = cli._suite_developing(seed, samples)
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

        def evaluate(z):
            calls.append(len(z))
            if len(z) > 1 or z[0, 0].real > 1:
                raise ValueError("draw %.17g" % z[0, 0].real)
            return 0.0
        draws = np.random.default_rng(0).normal(size=(6, 2))[:, 0]
        k = int(np.argmax(draws > 1))
        assert k == 3
        with pytest.raises(ValueError, match="draw %.17g$" % draws[k]):
            cli._worst(np.random.default_rng(0), 6, 1, evaluate)
        assert calls == [6] + [1] * (k + 1)


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
                for part in [rows] + [[r[k:k + 1] for r in rows]
                                      for k in range(len(a))]:
                    try:
                        out = law(regime, *part)
                    except cli._REFUSALS:
                        continue
                    assert np.isfinite(out).all()

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
                message = (r"^%s: result leaves the float range \(row 0\)$"
                           % law.__name__)
                with pytest.raises(OverflowError, match=message):
                    law(*args)
                rows = [a.array() if isinstance(a, PointV) else a.params()
                        for a in args]
                many = {compose: compose_many, inverse: inverse_many,
                        apply: apply_many}[law]
                with pytest.raises(OverflowError, match=message):
                    many(args[0].regime, *(r[None] for r in rows))

    @pytest.mark.parametrize("law,row", [
        ("compose", 24), ("inverse", 22), ("apply", 10), ("apply", 15),
        ("apply", 22), ("apply", 26), ("apply", 28)])
    def test_scalar_laws_raise_as_their_rows(self, law, row):
        # the draw of test_compose_inverse_apply for Single p = 1, q = 2 at
        # seed 0 and scale 400: on rows 24 (compose) and 22 (inverse)
        # Python's chain of products returns a nan power where numpy's
        # leaves the float range, so the reference raises "result leaves
        # the float range" and the array law names the power; a scalar
        # law, one row of its array law, raises what that row does, as on
        # the rows whose images leave the range (apply)
        regime = REGIMES[1]
        rng = np.random.default_rng(0)
        a = _element_rows(rng, regime, 40, 400)[row:row + 1]
        b = _element_rows(rng, regime, 40, 400)[row:row + 1]
        x = _rows(rng, 40, 3, 400)[row:row + 1]
        scalar, many, reference = {
            "compose": (compose, compose_many, ref.compose),
            "inverse": (inverse, inverse_many, ref.inverse),
            "apply": (apply, apply_many, ref.apply)}[law]
        rows = {"compose": (a, b), "inverse": (a,), "apply": (a, x)}[law]
        args = [element_from_params(regime, r[0]) for r in rows if r is not x]
        if law == "apply":
            args.append(PointV(tuple(x[0])))
        want = _outcome(many, regime, *rows)
        assert want.startswith("OverflowError: %s: " % law)
        assert want.endswith(" leaves the float range (row 0)")
        assert _outcome(scalar, *args) == want
        assert ref.same_outcome(want, _outcome(reference, *args))
        assert ("result" in want) == (law == "apply")

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
