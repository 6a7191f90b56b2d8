import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lvmkit.action
import lvmkit.resonant_group
from lvmkit.config_geometry import Configuration
from lvmkit.holonomy import holonomy_pair
from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import (GroupElement, PointV, _compose_rows,
                                   _images, _inverse_rows, _power_stages,
                                   apply, compose, element_from_params,
                                   identity, power_many)
from lvmkit.action import (
    FP_TOL,
    ActionCertificate,
    _fixed_point_witness,
    _grid,
    _powers,
    _samples,
    fixed_point_certificate,
    orbit,
    properness_probe,
)
from action_oracle import (oracle_certificate, oracle_powers, oracle_probe,
                           oracle_samples)
import law_reference as ref
from verify_bounds import GAMMA, HUGE, U, law_ops, moduli

NR = ResonanceClass("NonResonant")
S12 = ResonanceClass("Single", p=1, q=2)
S22 = ResonanceClass("Single", p=2, q=2)
D1 = ResonanceClass("Double", p=1)
D2 = ResonanceClass("Double", p=2)

E1 = Configuration(2, (
    (1, 0),
    (1j, 0),
    (0, 1),
    (0, 1j),
    (-1 - 1j, -1 - 1j),
    (-1.1 - 1.1j, -1.1 - 1.1j),
))

BASE = holonomy_pair(E1)
DIAG_PAIR = (GroupElement(NR, BASE.alpha), GroupElement(NR, BASE.beta))
# rational angles on the unit circle: f^3 fixes (1, 1, 0)
UNIT_PAIR = (
    GroupElement(NR, tuple(np.exp(2j * np.pi * np.array([1 / 3, 1 / 3, 1 / 7])))),
    GroupElement(NR, tuple(np.exp(2j * np.pi * np.array([1 / 5, 1 / 7, 1 / 9])))))
SINGLE_PAIR = (GroupElement(S12, (2, 0.6, 0.5, 0.3 - 0.1j)),
               GroupElement(S12, (1 + 1j, 0.5j, -0.3 + 0.2j, 0.25)))
DOUBLE_PAIR = (GroupElement(D1, (1.5j, np.array([[1.2, 0.3j], [-0.4, 0.8]]))),
               GroupElement(D1, (0.7 - 0.2j, np.diag([0.9j, 1.1]))))


def _word_element(pair, r, s):
    """f^r g^s, composed by `compose` from the oracle's power rows."""
    return compose(*(element_from_params(e.regime, oracle_powers(e, abs(k))[k])
                     for e, k in zip(pair, (r, s))))


def brute_force_window_check(pair, window, tol=1e-10):
    """Oracle: directly test the eigenvalue conditions via logs."""
    alpha = np.asarray(pair[0].data)
    beta = np.asarray(pair[1].data)
    la, lb = np.log(alpha), np.log(beta)
    for r in range(-window, window + 1):
        for s in range(-window, window + 1):
            if (r, s) == (0, 0):
                continue
            z = r * la + s * lb
            first = abs(np.exp(z[0]) - 1) <= tol if z[0].real < 500 else False
            second = abs(np.exp(z[1]) - 1) <= tol if z[1].real < 500 else False
            third = abs(np.exp(z[2]) - 1) <= tol if z[2].real < 500 else False
            if first and (second or third):
                return False
    return True


class TestFixedPointCertificate:
    def test_reference_diagonal_pair(self):
        cert = fixed_point_certificate(DIAG_PAIR, window=10)
        assert cert.fixed_point_free and cert.witness is None
        assert brute_force_window_check(DIAG_PAIR, 10)

    def test_identity_generator_witness(self):
        pair = (GroupElement(NR, BASE.alpha), identity(NR))
        cert = fixed_point_certificate(pair, window=5)
        assert not cert.fixed_point_free
        (r, s), w = cert.witness
        assert r == 0 and s != 0
        # the witness really is fixed
        from lvmkit.resonant_group import compose
        h = identity(NR)
        assert np.allclose(apply(h, w).array(), w.array())

    def test_single_regime_pair(self):
        kappa = 0.4

        def elem(x1, x2, x3):
            return GroupElement(S12, (x1, x2, x3, kappa * (x3 - x1 * x2 ** 2)))

        pair = (elem(2, 0.6, 0.5), elem(1 + 1j, 0.5j, -0.3 + 0.2j))
        cert = fixed_point_certificate(pair, window=10)
        assert cert.fixed_point_free

    def test_single_witness_construction(self):
        # f has scalar and second multiplier 1 but a shear: the affine
        # fixed-point equation in xi3 is solved exactly
        f = GroupElement(S12, (1, 1, 0.5, 0.3))
        g = GroupElement(S12, (2, 3, 4, 0))
        cert = fixed_point_certificate((f, g), window=3)
        assert not cert.fixed_point_free
        (r, s), w = cert.witness
        h = _word_element((f, g), r, s)
        assert np.max(np.abs(apply(h, w).array() - w.array())) < 1e-9

    def test_single_witness_off_the_shear(self):
        # f has scalar and third multiplier 1 but not the second: xi2 = 0
        # removes the shear term, so (1, 0, 1) is fixed
        f = GroupElement(S12, (1, 2, 1, 0.3))
        g = GroupElement(S12, (2, 1.5, 3, 0.1))
        cert = fixed_point_certificate((f, g), window=1)
        assert cert.witness == ((-1, 0), PointV((1, 0, 1)))
        h = _word_element((f, g), -1, 0)
        assert apply(h, PointV((1, 0, 1))) == PointV((1, 0, 1))

    def test_double_regime_witness(self):
        f = GroupElement(D1, (1, np.array([[1.0, 0.0], [0.4, 0.7]])))
        g = GroupElement(D1, (2, np.diag([3.0, 5.0])))
        cert = fixed_point_certificate((f, g), window=3)
        assert not cert.fixed_point_free
        (r, s), w = cert.witness
        assert s == 0 and r != 0  # any power of f keeps the unit eigenvalue
        h = _word_element((f, g), r, s)
        assert np.max(np.abs(apply(h, w).array() - w.array())) < 1e-9

    def test_monotone_in_window(self):
        cert10 = fixed_point_certificate(DIAG_PAIR, window=10)
        cert5 = fixed_point_certificate(DIAG_PAIR, window=5)
        assert cert10.fixed_point_free
        assert cert5.fixed_point_free

    def test_vacuous_window_rejected(self):
        assert not fixed_point_certificate(UNIT_PAIR, window=6).fixed_point_free
        for window in (0, -3, 2.5, True, False):
            with pytest.raises(ValueError, match="need window >= 1"):
                fixed_point_certificate(UNIT_PAIR, window=window)
        assert fixed_point_certificate(UNIT_PAIR, window=np.int64(6)) == \
            fixed_point_certificate(UNIT_PAIR, window=6)

    def test_certificate_invariant(self):
        with pytest.raises(ValueError):
            ActionCertificate(5, True, witness=((1, 0), PointV((1, 1, 0))))
        with pytest.raises(ValueError):
            ActionCertificate(5, False, witness=None)


class TestOrbit:
    def test_empty_word(self):
        x = PointV((1, 2, 3))
        assert orbit(DIAG_PAIR, [], x) == [x]

    def test_inverse_pair_returns(self):
        x = PointV((1.5, 0.3 - 1j, 2))
        out = orbit(DIAG_PAIR, [(1, 0), (-1, 0)], x)
        assert len(out) == 3
        assert np.max(np.abs(out[-1].array() - x.array())) < 1e-12

    def test_diagonal_orbit_closed_form(self):
        f, g = DIAG_PAIR
        beta = np.asarray(g.data)
        x = PointV((1, 1, 1))
        out = orbit((f, g), [(0, 1)] * 4, x)
        for k, pt in enumerate(out):
            assert np.allclose(pt.array(), beta ** k, rtol=1e-12)

    @pytest.mark.parametrize("pair", [DIAG_PAIR, SINGLE_PAIR, DOUBLE_PAIR])
    def test_long_word_matches_stepwise(self, pair):
        f, g = pair
        word = [(3, -1), (-2, 4), (0, 2), (5, 0), (-5, -5), (1, 1), (0, 0),
                (-1, 3), (2, -4), (4, 2)]
        x = PointV((0.7 + 0.2j, 1.1 - 0.4j, -0.3 + 0.9j))
        out = orbit(pair, iter(word), x)
        assert len(out) == len(word) + 1 and out[0] == x
        # each point is the reference's word applied to the one before, up
        # to the rounding of `_word_sizes` and of two applications
        regime = f.regime
        (sf, okf), (sg, okg) = (_power_sizes(e, 5) for e in pair)
        assert okf.all() and okg.all()
        for (r, s), before, after in zip(word, out, out[1:]):
            want = ref.apply(ref.compose(*(
                element_from_params(regime, ref.chain_powers(e, 5)[k])
                for e, k in zip(pair, (r, s)))), before)
            size = np.abs(_images(regime, np.abs(_compose_rows(
                regime, moduli(sf[r + 5][None]),
                moduli(sg[s + 5][None]))).astype(complex),
                moduli(before.array()))[0])
            bound = _rounding(regime, 4 * (abs(r) + abs(s)) + 4)
            assert _within(after.array(), want.array(), bound, size)

    def test_extreme_pair_warns_nothing(self):
        # det(M^8) = e^720 overflows in the check of GroupElement
        big = np.exp(45.0)
        f = GroupElement(D1, (2.0, np.diag([big, big])))
        g = GroupElement(D1, (0.5j, np.diag([1.5, 0.7])))
        x = PointV((0.7 + 0.2j, 1.1 - 0.4j, -0.3 + 0.9j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = orbit((f, g), [(8, 0)], x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert out == [x, apply(_word_element((f, g), 8, 0), x)]

    @pytest.mark.parametrize("entry", [(1.0, 0), (0, np.float64(2)), (1, "1"),
                                       (True, 0), (0, False)])
    def test_non_integer_word_rejected(self, entry):
        with pytest.raises(ValueError, match=r"word entry %s is not an "
                           "integer pair" % re.escape(repr(entry))):
            orbit(DIAG_PAIR, [(1, 0), entry], PointV((1, 2, 3)))

    @pytest.mark.parametrize("entry", [(1, 2, 3), (1,), 5],
                             ids=["three", "one", "bare"])
    def test_malformed_word_entry_rejected(self, entry):
        with pytest.raises(ValueError, match=r"^word entry %s is not an "
                           "integer pair$" % re.escape(repr(entry))):
            orbit(DIAG_PAIR, [(1, 0), entry], PointV((1, 2, 3)))

    def test_mixed_regimes_rejected(self):
        pair = (DIAG_PAIR[0], SINGLE_PAIR[1])
        with pytest.raises(ValueError, match="cannot compose elements of "
                           "different regimes"):
            orbit(pair, [(1, 1)], PointV((1, 2, 3)))

    def test_numpy_word_accepted(self):
        x = PointV((1, 2, 3))
        assert orbit(DIAG_PAIR, [(np.int64(1), 0), (np.int64(-1), 0)], x) \
            == orbit(DIAG_PAIR, [(1, 0), (-1, 0)], x)


class TestPropernessProbe:
    def test_reference_pair_clean(self):
        report = properness_probe(DIAG_PAIR, horizon=20, samples=10, seed=1)
        assert report.no_violation_found

    def test_unit_moduli_pair_violates(self):
        # all multipliers on the unit circle: the action is isometric in
        # modulus and keeps returning to the annulus
        a = np.exp(2j * np.pi * np.array([0.31, 0.57, 0.79]))
        b = np.exp(2j * np.pi * np.array([0.13, 0.47, 0.91]))
        pair = (GroupElement(NR, tuple(a)), GroupElement(NR, tuple(b)))
        report = properness_probe(pair, horizon=10, samples=5, seed=2)
        assert not report.no_violation_found

    def test_identity_generator_violates(self):
        pair = (identity(NR), GroupElement(NR, BASE.beta))
        report = properness_probe(pair, horizon=10, samples=5, seed=3)
        assert not report.no_violation_found
        assert any(r != 0 and s == 0 for (r, s), _ in report.violations)

    def test_never_claims_properness(self):
        report = properness_probe(DIAG_PAIR, horizon=8, samples=5, seed=4)
        assert not hasattr(report, "proper")
        assert report.no_violation_found in (True, False)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            properness_probe(DIAG_PAIR, compact_radius=0.5)
        with pytest.raises(ValueError):
            properness_probe(DIAG_PAIR, horizon=0)
        # refused by name, not inside numpy
        for kwargs in ({"horizon": 2.5}, {"samples": 2.5}, {"seed": -1},
                       {"seed": 0.5}, *({name: flag} for flag in (True, False)
                                         for name in ("horizon", "samples",
                                                      "seed"))):
            with pytest.raises(ValueError, match="integers horizon >= 1, "
                               "samples >= 1 and seed >= 0"):
                properness_probe(DIAG_PAIR, **kwargs)
        assert properness_probe(DIAG_PAIR, horizon=np.int64(4),
                                samples=np.int64(3), seed=np.int64(2)) == \
            properness_probe(DIAG_PAIR, horizon=4, samples=3, seed=2)

    @pytest.mark.parametrize("kwargs", [
        {"samples": 0}, {"samples": -2},
        {"compact_radius": float("nan")}, {"compact_radius": float("inf")}])
    def test_vacuous_or_undefined_probe_rejected(self, kwargs):
        with pytest.raises(ValueError, match="need a finite compact_radius"):
            properness_probe(DIAG_PAIR, **kwargs)

    def test_no_per_point_work(self, monkeypatch):
        calls = {"apply": 0, "point": 0, "element_check": 0}
        post_init = PointV.__post_init__
        element_check = lvmkit.resonant_group._elements_ok

        def counting_apply(f, x):
            calls["apply"] += 1
            return apply(f, x)

        def counting_post_init(point):
            calls["point"] += 1
            post_init(point)

        def counting_element_check(regime, h):
            calls["element_check"] += 1
            return element_check(regime, h)

        monkeypatch.setattr(lvmkit.resonant_group, "apply", counting_apply)
        monkeypatch.setattr(lvmkit.action, "apply", counting_apply)
        monkeypatch.setattr(PointV, "__post_init__", counting_post_init)
        monkeypatch.setattr(lvmkit.resonant_group, "_elements_ok",
                            counting_element_check)
        report = properness_probe(DIAG_PAIR, horizon=20, samples=20)
        assert report.no_violation_found
        # a clean report builds no point; word-by-word evaluation applies
        # 1320 words to each of the 20 samples
        assert calls == {"apply": 0, "point": 0, "element_check": 0}
        # every word of the band returns, and each sample is built once
        report = properness_probe(UNIT_PAIR, horizon=20, samples=20)
        assert len(report.violations) == 41 ** 2 - 19 ** 2
        assert calls == {"apply": 0, "point": 20, "element_check": 0}
        # neither search checks the group elements of its words
        for pair in (DIAG_PAIR, UNIT_PAIR, SINGLE_PAIR, DOUBLE_PAIR):
            fixed_point_certificate(pair)
            properness_probe(pair, horizon=8, samples=5)
        assert calls["apply"] == calls["element_check"] == 0

    def test_images_only_where_undecided(self, monkeypatch):
        # every word of a root-of-unity pair returns at the first sample,
        # which no other sample meets, and the fibre screen decides every
        # word of the reference pair that the |h_1| screen keeps
        images = []
        formed = lvmkit.action._images

        def counting_images(regime, h, x):
            y = formed(regime, h, x)
            images.append(y.size // 3)
            return y

        monkeypatch.setattr(lvmkit.action, "_images", counting_images)
        for pair, count in ((UNIT_PAIR, 1320), (DIAG_PAIR, 0)):
            images.clear()
            properness_probe(pair, horizon=20, samples=20)
            assert sum(images) == count

    def test_compositions_only_where_kept(self, monkeypatch):
        # the probe composes the full rows of exactly the words whose
        # |h_1| brings some sample's |xi1| into the annulus (no word of
        # these pairs lies within e^-0.001 of a bound), and NonResonant
        # rows, their diagonal products, it does not compose at all; a
        # certificate composes only the words near 1, and builds the
        # Single shears once for them, and with no such word (the Double
        # pair) it runs no Single shear or Double block step at all
        composed, steps = [], []
        compose_rows = lvmkit.action._compose_rows

        def counting_compose(regime, a, b):
            composed.append(len(a))
            return compose_rows(regime, a, b)

        def counting(step):
            def counted(*args):
                steps.append(step.__name__)
                return step(*args)
            return counted

        monkeypatch.setattr(lvmkit.action, "_compose_rows", counting_compose)
        for name in ("_shear", "_twisted"):
            monkeypatch.setattr(lvmkit.resonant_group, name, counting(
                getattr(lvmkit.resonant_group, name)))
        r, s = _grid(20)
        band = np.maximum(abs(r), abs(s)) >= 10
        m1 = np.abs(_samples(1e2, 20, 0)[:, 0])
        for pair, kept in ((SINGLE_PAIR, 677), (DOUBLE_PAIR, 1046),
                           (UNIT_PAIR, 0), (DIAG_PAIR, 0)):
            fp, gp = _powers(pair, 20).swapaxes(0, 1)
            h1 = np.abs(fp[r + 20, 0] * gp[s + 20, 0])[band]
            lo, hi = np.log(h1 * m1.max() * 1e2), np.log(h1 * m1.min() / 1e2)
            assert np.minimum(abs(lo), abs(hi)).min() > 1e-3
            composed.clear()
            properness_probe(pair, horizon=20, samples=20)
            assert sum(composed) == kept
            if pair[0].regime.tag != "NonResonant":
                assert kept == ((lo >= 0) & (hi <= 0)).sum()
        composed.clear(), steps.clear()
        assert fixed_point_certificate(SINGLE_PAIR).fixed_point_free
        # (-4, 8) and its multiples have h_1 = 1; the chain to 25 takes
        # 24 shear steps, and each word's composition one more
        assert composed == [1] * 6 and steps == ["_shear"] * (24 + 6)
        composed.clear(), steps.clear()
        assert fixed_point_certificate(DOUBLE_PAIR).fixed_point_free
        assert composed == steps == []

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1.01, 1e2, 1e154, 1e300, 1.79e308]),
           st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    def test_samples_lie_in_the_annulus(self, radius, samples, seed):
        # up to the top of the float range, the batched draw gives finite
        # points of V with both moduli in [1/radius, radius], to a few ulp
        # of the bounds (1/1.79e308 is subnormal)
        x = _samples(radius, samples, seed)
        assert x.shape == (samples, 3) and np.isfinite(x).all()
        assert all(PointV(xi) for xi in x.tolist())
        lo, hi = 1 / radius, radius
        m23 = np.hypot(np.abs(x[:, 1]), np.abs(x[:, 2]))
        for m in (np.abs(x[:, 0]), m23):
            assert (lo - 4 * np.spacing(lo) <= m).all()
            assert (m <= hi + 4 * np.spacing(hi)).all()


@st.composite
def action_pairs(draw):
    """Pairs in every regime, log-moduli up to a drawn scale: 0 puts every
    multiplier on the unit circle, 50 and 100 make words of a horizon-8 window
    overflow to inf and underflow to 0.  Root-of-unity pairs have a fixed
    point in a small window, and every word of theirs returns."""
    kind = draw(st.sampled_from(["NonResonant", "Single", "Double", "root"]))
    if kind == "root":
        order = draw(st.integers(2, 6))
        return tuple(GroupElement(NR, tuple(
            np.exp(2j * np.pi * draw(st.integers(0, order - 1)) / order)
            for _ in range(3))) for _ in range(2))
    scale = draw(st.sampled_from([0.0, 0.05, 0.7, 4.0, 50.0, 100.0]))

    def z():
        return np.exp(scale * draw(st.floats(-1, 1))
                      + 2j * np.pi * draw(st.floats(0, 1)))

    def c():
        return draw(st.floats(-2, 2)) * z()

    if kind == "NonResonant":
        return tuple(GroupElement(NR, (z(), z(), z())) for _ in range(2))
    if kind == "Single":
        cls = ResonanceClass("Single", p=draw(st.integers(1, 2)),
                             q=draw(st.integers(2, 3)))
        return tuple(GroupElement(cls, (z(), z(), z(), c()))
                     for _ in range(2))
    cls = ResonanceClass("Double", p=draw(st.integers(1, 2)))
    mats = [np.array([[z(), c()], [c(), z()]]) for _ in range(2)]
    assume(all(np.linalg.det(m) != 0 for m in mats))
    return tuple(GroupElement(cls, (z(), m)) for m in mats)


def _outcome(search, *args):
    """The report of a search, or the exception it raised."""
    try:
        return repr(search(*args))
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


LAM = 0.9 * np.exp(0.3j)
W12 = np.exp(2j * np.pi / 12)


def _result(fn, *args):
    """What fn returns, or the error it raises as "Type: message"."""
    try:
        return fn(*args)
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _chain_rows(f, bound):
    table = ref.chain_powers(f, bound)
    return np.array([table[r] for r in range(-bound, bound + 1)])


def _normal(size):
    """Rows whose nonzero sizes all lie within 2^-500 ... 2^500, so that a
    product of two of their entries is normal."""
    return ((size == 0) | (size >= 2.0 ** -500)
            & (size <= 2.0 ** 500)).all(axis=-1)


def _power_sizes(f, bound):
    """(S, ok) for r = -bound ... bound (rows): S_r, the sum of the moduli
    of the terms of each entry of f^r, by the chain f^r = f^(r-1) f,
    f^-r = f^-(r-1) f^-1 of `compose_many` on the moduli of f and of its
    inverse; ok_r where f^i is `_normal` for every i from 0 to r."""
    regime, row = f.regime, f.params()[None]
    with np.errstate(all="ignore"):
        steps = (moduli(row), moduli(_inverse_rows(regime, row)))
        up = [moduli(identity(regime).params()[None])]
        down = up[:]
        for _ in range(bound):
            up.append(moduli(np.abs(_compose_rows(regime, up[-1],
                                                  steps[0]))))
            down.append(moduli(np.abs(_compose_rows(regime, down[-1],
                                                    steps[1]))))
    size = np.abs(np.concatenate(down[:0:-1] + up))
    normal = _normal(size)
    return size, np.concatenate([
        np.logical_and.accumulate(normal[bound::-1])[::-1],
        np.logical_and.accumulate(normal[bound:])[1:]])


def _rounding(regime, ops):
    """The relative bound of ops law_ops operations of GAMMA each."""
    return (1 + GAMMA) ** (ops * law_ops(regime)) - 1


def _within(got, want, bound, size):
    """Every entry of got is within bound times its size of want's (an
    entry of size 0 equal to it, a non-finite one nowhere)."""
    return bool((np.abs(got - want) <= bound * size).all())


class TestPowers:
    """`power_many` against the chain of the reference laws and against
    the group law, within a bound derived from the products each takes.

    Both form f^r as the chain f^(r-1) f of |r| factors, each f or f^-1,
    `ref.chain_powers` in Python's complex arithmetic and `power_many` in
    numpy's, which round a product apart.  A factor's entries are within
    their moduli times GAMMA per operation of exact: both invert a block
    by `_inverse2` and twist it by a power of 1 / a1.  A factor and the
    product that takes it in cost at most 2 law_ops operations (a complex
    product within sqrt(5) u, Brent, Percival and Zimmermann, Math. Comp.
    76, 2007; a sum, within u, counted as one).  Relative errors add along
    products, so a computation is within `_rounding` of 2 |r| of f^r,
    relative to the sizes S_r of its terms (`_power_sizes`), and two
    computations differ by at most `_rounding` of 4 |r|.  This holds where
    no product leaves the normal range: f^r is compared where every power
    from f^0 to f^r is `_normal`.  Beyond, the two may round an entry to
    0 or to inf apart, and are compared on where they are not finite."""

    @settings(max_examples=100, deadline=None)
    @given(action_pairs(), st.integers(0, 30))
    def test_rows_match_scalar_chain(self, pair, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for f in pair:
                got = _result(lambda: _powers([f], bound)[:, 0])
                want = _result(_chain_rows, f, bound)
                if isinstance(want, str) or isinstance(got, str):
                    assert isinstance(want, str) and isinstance(got, str)
                    assert ref.same_outcome(got, want)
                    continue
                size, ok = _power_sizes(f, bound)
                for r in np.flatnonzero(ok) - bound:
                    assert _within(got[r + bound], want[r + bound],
                                   _rounding(f.regime, 4 * abs(r)),
                                   size[r + bound])

    @settings(max_examples=200, deadline=None)
    @given(action_pairs(), st.integers(0, 30))
    def test_scalars_are_the_diagonal_columns(self, pair, bound):
        # the certificate screens on the chain's running product of the
        # diagonal columns, taken before any Single shear or Double block:
        # it is the diagonal columns of the rows of `_powers` to the bit,
        # nan for nan, and it is refused where they are, by name; it is
        # numpy's entrywise product f^(r-1) f taken step by step, which
        # np.multiply.accumulate rounds otherwise
        regime = pair[0].regime
        d = 1 if regime.tag == "Double" else 3
        rows = np.array([e.params() for e in pair])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = _result(lambda: _power_stages(
                regime, rows, np.arange(-bound, bound + 1)[:, None])[0])
            want = _result(_powers, pair, bound)
            chain = {0: np.ones((len(pair), d), complex)}
            for sign, step in ((1, rows[:, :d]),
                               (-1, _inverse_rows(regime, rows)[:, :d])):
                chain[sign] = step
                for i in range(2, bound + 1):
                    chain[sign * i] = chain[sign * (i - 1)] * step
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        want = np.ascontiguousarray(want[..., :d])
        chain = np.array([chain[i] for i in range(-bound, bound + 1)])
        assert got.shape == want.shape == chain.shape
        assert got.tobytes() == want.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("f,bound,error", [
        (GroupElement(NR, (1e-170, 2, 3)), 3, None),
        (GroupElement(D2, (3e-155 + 4e-155j, np.eye(2))), 3, "OverflowError"),
        (GroupElement(D2, (4e-155 + 4e-155j, np.eye(2))), 0, "OverflowError"),
        (GroupElement(D2, (1e-170, np.eye(2))), 1, "OverflowError"),
        (GroupElement(S12, (1e-200, 1e-200, 1, 0.5)), 1, "ZeroDivisionError")],
        ids=["power-underflows", "a1-power-refused", "inverse-refused",
             "inverse-refused-first", "single-quotient-refused"])
    def test_refusals_match_scalar_chain(self, f, bound, error):
        # f^2 underflows to 0 and f^-2 overflows: both are rows like any
        # other; Python refuses a power of 1/a1 in the inverse, which is
        # built at bound 0 too, and so does `power_many`, with or without
        # negative powers, by name: numpy's (1/a1)^-2 = 1 / (1/a1)^2 is
        # not finite; a Single inverse divides by a3 a1 a2^2, which
        # underflows to 0, and Python's quotient raises ZeroDivisionError
        # where `power_many` names the divisor
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcome = _result(lambda: _powers([f], bound)[:, 0])
            ahead = _result(lambda: power_many(
                f.regime, f.params(), np.arange(bound + 1)))
            assert isinstance(ahead, str) == (error is not None)
            if error is None:
                assert outcome[bound + 2, 0] == 0
                assert np.isinf(outcome[bound - 2, 0])
                assert not isinstance(_result(_chain_rows, f, bound), str)
            else:
                assert _result(_chain_rows, f, bound).startswith(error + ": ")
                assert outcome == ahead == "OverflowError: power: " + (
                    "a3 a1^1 a2^2 rounds to 0 (row 0)" if f.regime == S12
                    else "(1/a1)^-2 leaves the float range (row 0)")

    @settings(max_examples=100, deadline=None)
    @given(action_pairs(), st.integers(-12, 12), st.integers(0, 12))
    def test_group_law(self, pair, r, s):
        # f^(r + s) = f^r f^s for r, s of one sign, within the bounds of
        # both sides on the sizes of the composed powers; and f^-r =
        # (f^r)^-1 where the inverse is one chain of quotients and
        # products, whose entries' sizes are their moduli.  A Double
        # block is inverted by LU (`_inverse2`), whose error |L||U| bounds
        # and the moduli of f^-1 do not, as they do not f f^-1 - 1; its
        # inverse is the chain's, against which `power_many` is compared
        f = pair[0]
        regime = f.regime
        s = s if r >= 0 else -s
        bound = abs(r + s)
        size, ok = _power_sizes(f, bound)
        with np.errstate(all="ignore"):
            a, b, c, d = _powers([f], bound)[[r + bound, s + bound,
                                              r + s + bound, bound - r], 0]
            fs = _compose_rows(regime, a[None], b[None])[0]
            size_fs = np.abs(_compose_rows(
                regime, moduli(size[r + bound][None]),
                moduli(size[s + bound][None])))
            inv = _inverse_rows(regime, a[None])[0]
        assume(ok.all() and _normal(size_fs).all())
        assert _within(fs, c, _rounding(regime, 2 * (abs(r) + abs(s)
                                                     + abs(r + s)) + 1),
                       size_fs[0] + size[r + s + bound])
        if regime.tag != "Double":
            assert _within(inv, d, _rounding(regime, 4 * abs(r) + 1),
                           np.abs(inv) + size[bound - r])

    @settings(max_examples=100, deadline=None)
    @given(action_pairs())
    def test_zero_and_one_exact(self, pair):
        # the words (1, 0) and (0, 1) of `verify gluing` take f^0 and f^1
        rows = np.array([e.params() for e in pair])
        with np.errstate(all="ignore"):
            got = power_many(pair[0].regime, rows, np.array([[0], [1]]))
        assert np.array_equal(got[0], np.stack(
            [identity(pair[0].regime).params()] * 2))
        assert np.array_equal(got[1], rows)

    @pytest.mark.parametrize("f,closed", [
        (GroupElement(ResonanceClass("Double", p=3),
                      (2.0 ** 200, np.diag([2.0, 0.25]))),
         lambda r: (2.0 ** (200 * r), 2.0 ** r, 0, 0, 0.25 ** r)),
        (GroupElement(ResonanceClass("Single", p=2, q=3),
                      (2.0 ** 100, 2.0 ** 100, 4.0, 0)),
         lambda r: (2.0 ** (100 * r), 2.0 ** (100 * r), 4.0 ** r, 0))],
        ids=["double", "single"])
    def test_twist_beyond_the_range(self, f, closed):
        # z = a1^p, or a1^p a2^q, is 2^600 or 2^500, so z^i leaves the
        # float range for i >= 2, while every power up to f^5 is within
        # it: the zero entries stay 0 and the others, powers of two, are
        # exact
        rows = _powers([f], 5)[:, 0]
        for r in range(-5, 6):
            assert np.array_equal(rows[r + 5], np.array(closed(r), complex))

    def test_single_twist_underflows(self):
        # a1 a2^2 = 1e-324 rounds to 0 while a1 and a2^2 are floats, and
        # eps / (a3 a1 a2^2) of the inverse overflows: every power is the
        # reference chain's where that is finite and not nan where it is
        # not nan, and the positive powers, whose shear is a3^(r-1) eps
        # but for terms eps_(r-1) a1 a2^2 below 1e-300, are within the
        # bound of that
        f = GroupElement(S12, (1e-162, 1e-81, 10, 0.5))
        bound = 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = _powers([f], bound)[:, 0]
            want = _chain_rows(f, bound)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert not np.isnan(got[bound:]).any()
        for r in range(bound + 1):
            closed = np.array([1e-162 ** r, 1e-81 ** r, 10.0 ** r,
                               10.0 ** (r - 1) * 0.5 * (r > 0)])
            size = np.abs(closed) + 1e-300
            assert _within(got[r + bound], closed,
                           _rounding(S12, 2 * r + 2), size)

    @pytest.mark.parametrize("f,closed", [
        # a3 = a1 a2^2 exactly: eps_r = r a3^(r - 1) eps
        (GroupElement(S12, (2, 0.5, 0.5, 0.3 - 0.1j)),
         lambda r: (2.0 ** r, 0.5 ** r, 0.5 ** r,
                    r * 0.5 ** (r - 1) * (0.3 - 0.1j))),
        # N = [[lam, 1], [0, lam]], defective: N^r = lam^r I + r lam^(r-1) E12
        (GroupElement(D1, (1.1j, np.array([[LAM, 1], [0, 1.1j * LAM]]))),
         lambda r: (1.1j ** r, LAM ** r, r * LAM ** (r - 1), 0,
                    1.1j ** r * LAM ** r)),
        # (0.9, 1.05 I), p = 2: f^r = (0.9^r, 1.05^r I)
        (GroupElement(D2, (0.9, 1.05 * np.eye(2))),
         lambda r: (0.9 ** r, 1.05 ** r, 0, 0, 1.05 ** r)),
        # roots of unity of order 12: f^12 is the identity
        (GroupElement(NR, (W12, W12 ** 3, W12 ** 4)),
         lambda r: (W12 ** r, W12 ** (3 * r), W12 ** (4 * r))),
        (GroupElement(S12, (W12 ** 3, W12 ** 3, W12 ** 4, 0.5)),
         None),
        (GroupElement(D1, (W12 ** 2, np.array([[0, W12 ** 4],
                                               [W12 ** 6, 0]]))),
         None)],
        ids=["confluent-single", "defective-double", "scalar-double",
             "roots-nonresonant", "roots-single", "roots-double"])
    def test_named_cases(self, f, closed):
        # against closed forms, whose own powers take at most 2 |r| + 2
        # operations more; roots of unity return to the identity at r = 12
        bound = 25
        rows = _powers([f], bound)[:, 0]
        size, ok = _power_sizes(f, bound)
        assert ok.all()
        for r in range(-bound, bound + 1):
            if closed is not None:
                want = np.array(closed(r), dtype=complex)
                k = 4 * abs(r) + 2
            elif r % 12 == 0:
                want, k = identity(f.regime).params(), 2 * abs(r)
            else:
                continue
            assert _within(rows[r + bound], want, _rounding(f.regime, k),
                           size[r + bound])


def _same_powers(pair, bound):
    """Whether the searches' power rows of both generators are the
    reference chain's to the bit (nan for nan), or either raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = _result(_powers, pair, bound)
        want = [_result(_chain_rows, e, bound) for e in pair]
    if isinstance(got, str) or any(isinstance(w, str) for w in want):
        return True
    return np.array_equal(got, np.stack(want, 1), equal_nan=True)


def _word_sizes(pair, bound, r, s):
    """(a, b, size, k) for the words f^r g^s: the searches' power rows,
    the term sizes of each word's row and the number k of law operations
    by which its two computations, the searches' and the oracle's, may
    differ, relative to those sizes; None where they may differ beyond.

    Where the power rows are the reference chain's, only the composition
    differs, and the sizes are those of the rows.  Otherwise each power
    is within `_rounding` of 2 |r| of f^r, relative to S_r, where every
    power from f^0 to f^r is `_normal` (`TestPowers`), and a composition
    adds one law: the two computations of a word differ by at most
    `_rounding` of 4 (|r| + |s|) + 2."""
    f, g = pair
    regime = f.regime
    with np.errstate(all="ignore"):
        a, b = _powers(pair, bound).swapaxes(0, 1)
        a, b = a[r + bound], b[s + bound]
        if _same_powers(pair, bound):
            sa, sb, k = moduli(a), moduli(b), np.full(r.shape, 2)
        else:
            (sf, okf), (sg, okg) = (_power_sizes(e, bound) for e in pair)
            if not (okf.all() and okg.all()):
                return None
            sa, sb = moduli(sf[r + bound]), moduli(sg[s + bound])
            k = 4 * (abs(r) + abs(s)) + 2
        size = np.abs(_compose_rows(regime, sa, sb))
    return a, b, size, k


def _image_ambiguous(pair, radius, horizon, samples, seed):
    """Whether an image of a sample under a word of the band has a modulus
    |xi1| or |(xi2, xi3)| within its error bound of a bound of the
    annulus, or an error bound beyond the float range.  An image entry of
    the two computations, each a word and an application, differs by at
    most `_rounding` of the word's k of `_word_sizes` and 2 more (the
    application) times its term size, which the laws give on the sizes
    of the words and the moduli of the point."""
    f, g = pair
    if f.regime != g.regime:
        return False
    regime = f.regime
    r, s = _grid(horizon)
    band = np.maximum(abs(r), abs(s)) >= (horizon + 1) // 2
    words = _word_sizes(pair, horizon, r[band], s[band])
    if words is None:
        return True
    a, b, size, k = words
    x = np.array([pt.array() for pt in oracle_samples(radius, samples, seed)])
    with np.errstate(all="ignore"):
        y = _images(regime, _compose_rows(regime, a, b)[:, None], x)
        err = _rounding(regime, k + 2)[:, None, None] * np.abs(_images(
            regime, moduli(size[:, None]), moduli(x)))
        m1, m23 = np.abs(y[..., 0]), np.hypot(np.abs(y[..., 1]),
                                              np.abs(y[..., 2]))
        e1 = err[..., 0] + 2 * U * m1
        e23 = err[..., 1] + err[..., 2] + 2 * U * m23
        return any((np.abs(m - bound) <= e).any() or (e > HUGE).any()
                   for m, e in ((m1, e1), (m23, e23))
                   for bound in (1 / radius, radius))


def _certificate_matches(pair, window, tol):
    """Assert that the certificate reports what the oracle reports: to
    the bit where the power rows are the reference chain's, else where no
    decision of `_fixed_point_witness` is ambiguous (returns False if one
    is).  An entry z of a word is read as |z - 1| <= tol, which each side
    rounds within 2 U (1 + |z|), so a decision is ambiguous within the
    words' difference of `_word_sizes` and that of tol.  The Double
    regime decides on eigenvalues and eigenvectors of the block, which
    this bound does not cover: a Double word whose scalar part may pass
    is ambiguous.  A Single witness (1, 1, eps / (1 - h3)) is compared
    within the quotient's first-order difference and 2 GAMMA of rounding
    (a difference and a quotient) on each side."""
    args = (pair, window, tol)
    got = _result(fixed_point_certificate, *args)
    want = _result(oracle_certificate, *args)
    if _same_powers(pair, window):
        assert ref.same_outcome(_outcome(fixed_point_certificate, *args),
                                _outcome(oracle_certificate, *args))
        return True
    regime = pair[0].regime
    r, s = _grid(window)
    words = _word_sizes(pair, window, r, s)
    if words is None:
        return False
    a, b, size, k = words
    with np.errstate(all="ignore"):
        h = _compose_rows(regime, a, b)
    err = _rounding(regime, k)[:, None] * size
    cut = err + 4 * U * (1 + np.abs(h))
    word = (r != 0) | (s != 0)
    near = (np.abs(np.abs(h - 1) - tol) <= cut)[word]
    if regime.tag == "Double":
        if (np.abs(h[word, 0] - 1) <= tol + cut[word, 0]).any():
            return False
    elif near[:, :3].any() or regime.tag == "Single" and (
            np.abs(np.abs(h[word, 3]) - tol) <= cut[word, 3]).any():
        return False
    assert not isinstance(got, str) and not isinstance(want, str)
    assert got.fixed_point_free == want.fixed_point_free
    if got.witness is None or got.witness == want.witness:
        return True
    (word, x), (word_want, x_want) = got.witness, want.witness
    n = int(np.flatnonzero((r == word[0]) & (s == word[1]))[0])
    gap = np.abs(1 - h[n, 2]) - err[n, 2]
    if gap <= 0:
        return False
    # the Single witness (1, 1, eps / (1 - h3)), the only one not exact
    assert word == word_want and x.xi[:2] == x_want.xi[:2] == (1, 1)
    w = abs(x.xi[2])
    assert abs(x.xi[2] - x_want.xi[2]) <= (
        (err[n, 3] + w * err[n, 2]) / gap + 2 * GAMMA * (w + abs(x_want.xi[2])))
    return True


class TestAgainstOracle:
    """The array searches report what word-by-word evaluation on the
    reference chain's powers reports, witness words and points included,
    and raise what it raises; no word refusal is left out.  Where the
    searches' powers are the reference's to the bit, the certificate is
    compared to the bit; otherwise each word is within the bound of
    `_word_sizes` of the oracle's, and a case whose decision that bound
    leaves open is left out (`_certificate_matches`).  The probe composes
    words in blocks and applies them to the first sample, then to the
    others, in arrays whose products may differ from the oracle's in the
    last bits, so a probe with an image within its error bound of a bound
    of the annulus, or with a term beyond the float range, is left out
    (`_image_ambiguous`)."""

    @settings(max_examples=150, deadline=None)
    @given(action_pairs(), st.integers(1, 8), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1),
           st.one_of(st.floats(1.01, 1e6),
                     st.floats(6, 308).map(lambda e: 10.0 ** e),
                     st.floats(1e308, 1.79e308)))
    def test_probe(self, pair, horizon, samples, seed, radius):
        args = (pair, radius, horizon, samples, seed)
        assume(not _image_ambiguous(*args))
        assert ref.same_outcome(_outcome(properness_probe, *args),
                                _outcome(oracle_probe, *args))

    @settings(max_examples=150, deadline=None)
    @given(action_pairs(), st.integers(1, 8),
           st.sampled_from([0.0, FP_TOL, 1e-3, 0.5]))
    def test_certificate(self, pair, window, tol):
        assume(_certificate_matches(pair, window, tol))

    def test_word_determinant_rounding_to_zero(self):
        # the word f^-1 g^2 has determinant 2^144 det(M_f)^-1, which
        # rounds to 0 in compose's arithmetic; its scalar part g1^2 is not
        # 1, so it has no fixed point, and the search goes on to the
        # witness f
        f = GroupElement(D2, (1, np.array([[np.exp(3j * np.pi / 8), 0],
                                           [2, 1]])))
        g = GroupElement(D2, (0.5141027441932217 + 0.8577286100002721j,
                              np.array([[2.0 ** 72, 1], [0, 1]])))
        outcome = _outcome(fixed_point_certificate, (f, g), 2, 0.0)
        assert outcome.startswith("ActionCertificate(window=2, "
                                  "fixed_point_free=False, witness=((1, 0), ")
        assert ref.same_outcome(outcome, _outcome(oracle_certificate, (f, g),
                                                  2, 0.0))

    @pytest.mark.parametrize("search,oracle,args,report", [
        (fixed_point_certificate, oracle_certificate, (2, FP_TOL),
         "ActionCertificate(window=2, fixed_point_free=True, witness=None)"),
        (properness_probe, oracle_probe, (100.0, 2, 3, 0),
         "PropernessReport(horizon=2, ")],
        ids=["certificate", "probe"])
    def test_word_power_at_the_float_range(self, search, oracle, args, report):
        # g^2 has a1 = w with Re(w)^2 beyond the float range but |w^2|
        # within it: Python's power overflows in Re(w)^2, numpy's is
        # finite, and the words f^r g^2 are decided as their rows read
        w = complex(np.sqrt(np.finfo(float).max) * (1 + 1e-15), 1e150)
        f = GroupElement(S22, (2, 3, 5, 0))
        g = GroupElement(S22, (np.sqrt(w), 1.5, 1.7, 0))
        outcome = _outcome(search, (f, g), *args)
        assert outcome.startswith(report)
        assert ref.same_outcome(outcome, _outcome(oracle, (f, g), *args))

    def test_non_finite_candidate_refused(self):
        # every word f^r has scalar part 1; f^-8 has a 0 eigenvalue and no
        # fixed point, and f^8, with e^800 on its diagonal, leaves the
        # float range
        f = GroupElement(D1, (1, np.diag([np.exp(100.0), 2])))
        g = GroupElement(D1, (3, np.eye(2)))
        outcome = _outcome(fixed_point_certificate, (f, g), 8, FP_TOL)
        assert outcome == "OverflowError: result leaves the float range"
        assert ref.same_outcome(outcome, _outcome(oracle_certificate, (f, g),
                                                  8, FP_TOL))
        # a non-finite row is refused only where its scalar part is 1
        row = np.array([3, np.inf, 0, 0, 2], dtype=complex)
        assert _fixed_point_witness(D1, row, FP_TOL) is None
        row[0] = 1
        with pytest.raises(OverflowError, match="leaves the float range"):
            _fixed_point_witness(D1, row, FP_TOL)

    @pytest.mark.parametrize("f,g,certificate,probe", [
        ((-1e-170, 2, 3), (1e170, -0.5, 1), "OverflowError", "OverflowError"),
        ((1e160, 2, 3), (1e-160, 0.5, 1), "OverflowError", "OverflowError"),
        ((2, 1e-170, 1), (3, 1e170, 1), "ActionCertificate", "OverflowError"),
        ((1e-310, 2, 3), (1j, 0.5, 2), "ActionCertificate",
         "PropernessReport")],
        ids=["zero-times-inf", "inf-times-small", "fiber-zero-times-inf",
             "inf-times-unit"])
    def test_unread_word_refused(self, f, g, certificate, probe):
        # f^2 g^2 is about (1, 1, 9), (1, 1, 9) and (36, 1, 1): it fixes
        # (1, 1, 0) or returns samples, but a multiplier of it is the
        # product of a power beyond the float range and one below 1 in
        # modulus, 0 times inf or inf times 1e-320, which reads nan or inf.
        # The certificate reads only the multiplier of xi1, which is 6^2
        # for the third pair.  The powers f^-r of the last pair leave the
        # float range, but every g^s has modulus 1: each word is decided
        pair = (GroupElement(NR, f), GroupElement(NR, g))
        for search, oracle, args, report in (
                (fixed_point_certificate, oracle_certificate, (2, FP_TOL),
                 certificate),
                (properness_probe, oracle_probe, (100.0, 4, 20, 0), probe)):
            outcome = _outcome(search, pair, *args)
            assert outcome.startswith(report)
            if report == "OverflowError":
                assert outcome.endswith("result leaves the float range")
            assert ref.same_outcome(outcome, _outcome(oracle, pair, *args))

    @pytest.mark.parametrize("search,oracle,args", [
        (fixed_point_certificate, oracle_certificate, (2, FP_TOL)),
        (properness_probe, oracle_probe, (100.0, 2, 3, 0))],
        ids=["certificate", "probe"])
    def test_mixed_regimes_rejected(self, search, oracle, args):
        # before any power is built
        pair = (GroupElement(NR, (1e-310, 1, 1)), SINGLE_PAIR[1])
        outcome = _outcome(search, pair, *args)
        assert outcome == "ValueError: cannot compose elements of " \
            "different regimes"
        assert ref.same_outcome(outcome, _outcome(oracle, pair, *args))

    @pytest.mark.parametrize("pair", [DIAG_PAIR, SINGLE_PAIR, DOUBLE_PAIR])
    def test_rounding_matches_scalar(self, pair):
        # the words the searches compose from the `_powers` rows, and their
        # images, agree with the reference compose and apply within twice
        # the error of a composition and an application, 4 law_ops GAMMA
        # times the size of their terms, which the laws give on moduli
        f, g = pair
        regime = f.regime
        r, s = _grid(4)
        a, b = _powers(pair, 4)[r + 4, 0], _powers(pair, 4)[s + 4, 1]
        h = _compose_rows(regime, a, b)
        size = np.abs(_compose_rows(regime, moduli(a), moduli(b)))
        x = np.array([[0.7 + 0.2j, 1.1 - 0.4j, -0.3 + 0.9j],
                      [-2.5j, 0.1 + 0.3j, 4.0],
                      [0.3 - 0.3j, 0.0, 1.7 + 2.2j]])
        y = _images(regime, h[:, None], x)
        images = np.abs(_images(regime, moduli(size[:, None]), moduli(x)))
        bound = 4 * law_ops(regime) * GAMMA
        for k in range(r.size):
            word = ref.compose(element_from_params(regime, a[k]),
                               element_from_params(regime, b[k]))
            assert (np.abs(h[k] - word.params()) <= bound * size[k]).all()
            for n in range(len(x)):
                image = ref.apply(word, PointV(tuple(x[n]))).array()
                assert (np.abs(image - y[k, n]) <= bound * images[k, n]).all()

    def test_word_compose_refuses(self):
        # every power is a float, but f g underflows to 0 in xi1: it is
        # no group element, has no fixed point and returns no sample
        f = GroupElement(NR, (1e-170, 2, 3))
        g = GroupElement(NR, (1e-170, 5, 7))
        for search, oracle, args, report in (
                (fixed_point_certificate, oracle_certificate, (1, FP_TOL),
                 "ActionCertificate(window=1, fixed_point_free=True, "
                 "witness=None)"),
                (properness_probe, oracle_probe, (100.0, 1, 3, 0),
                 "PropernessReport(horizon=1, ")):
            outcome = _outcome(search, (f, g), *args)
            assert outcome.startswith(report)
            assert ref.same_outcome(outcome, _outcome(oracle, (f, g), *args))

    @pytest.mark.parametrize("seed", range(4))
    def test_point_apply_refuses(self, seed):
        # xi1^-2 leaves the float range for the smallest samples of K at
        # this radius (Python's xi1^2 underflows to 0 and its quotient
        # raises ZeroDivisionError), and tau refuses it; word-by-word
        # evaluation raises only when a word meets such a sample before
        # its first return (seed 3), and the probe names the power and
        # the sample
        d2 = ResonanceClass("Double", p=2)
        pair = (GroupElement(d2, (1.5, np.array([[2, 0.3], [0.1, 1]]))),
                GroupElement(d2, (0.5, np.eye(2) * 0.7)))
        args = (pair, 1e300, 3, 6, seed)
        outcome = _outcome(properness_probe, *args)
        assert ref.same_outcome(outcome, _outcome(oracle_probe, *args))
        assert _outcome(oracle_probe, *args).startswith(
            "ZeroDivisionError" if seed == 3 else "PropernessReport")
        if seed == 3:
            assert re.fullmatch(r"OverflowError: properness_probe: xi1\^-2 "
                                r"leaves the float range \(row \d\)", outcome)

    @pytest.mark.parametrize("pair,seed", [(SINGLE_PAIR, 0), (DOUBLE_PAIR, 4)])
    def test_returns_after_the_first_sample(self, pair, seed):
        # words first return at five different samples of the eight, so
        # the samples after the first meet the words that did not return
        # there
        args = (pair, 100.0, 8, 8, seed)
        report = properness_probe(*args)
        assert len({x for _, x in report.violations}) >= 3
        assert repr(report) == _outcome(oracle_probe, *args)

    @pytest.mark.parametrize("seed,report", [
        (0, "PropernessReport"), (16, "PropernessReport"),
        (12, "OverflowError")])
    def test_refused_sample_after_the_first(self, seed, report):
        # the first sample's powers xi1^-2 and xi1^2 are floats, a later
        # one's are not: every word returns before it at seed 0 (at the
        # first sample) and 16 (some at the second), and a word that does
        # not return at the first sample meets it at seed 12
        d2 = ResonanceClass("Double", p=2)
        pair = (GroupElement(d2, (1.5, np.array([[2, 0.3], [0.1, 1]]))),
                GroupElement(d2, (0.5, np.eye(2) * 0.7)))
        xi1 = _samples(1e300, 6, seed)[:, 0]
        with np.errstate(all="ignore"):
            refused = ~np.isfinite(xi1 ** -2) | ~np.isfinite(xi1 ** 2)
        assert not refused[0] and refused[1:].any()
        args = (pair, 1e300, 3, 6, seed)
        outcome = _outcome(properness_probe, *args)
        assert outcome.startswith(report)
        assert ref.same_outcome(outcome, _outcome(oracle_probe, *args))

    def test_every_word_of_a_unit_pair_returns(self):
        report = properness_probe(UNIT_PAIR, horizon=6, samples=3, seed=5)
        assert len(report.violations) == 13 ** 2 - 5 ** 2
        assert report == oracle_probe(UNIT_PAIR, 100.0, 6, 3, 5)

    @pytest.mark.parametrize("search,oracle,args", [
        (fixed_point_certificate, oracle_certificate, (8, FP_TOL)),
        (properness_probe, oracle_probe, (100.0, 8, 3, 0))],
        ids=["certificate", "probe"])
    def test_powers_warn_nothing(self, search, oracle, args):
        # det(M^8) = e^720 overflows in the check of GroupElement, while
        # det(M^-8) = e^-720 is subnormal, not 0: both searches report
        big = np.exp(45.0)
        pair = (GroupElement(D1, (2.0, np.diag([big, big]))),
                GroupElement(D1, (0.5j, np.diag([1.5, 0.7]))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _outcome(search, pair, *args)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert ref.same_outcome(outcome, _outcome(oracle, pair, *args))
        assert not outcome.startswith(("RuntimeWarning", "ValueError"))


def _sample(radius, seed):
    """The one sample point of a one-sample probe."""
    pair = (identity(NR), identity(NR))
    return properness_probe(pair, radius, 1, 1, seed).violations[0][1].xi


class TestScreenBoundaries:
    """Words planted so that images land within a few ulp of a bound of the
    annulus, on both sides, where a screen without its allowance misplaces
    some of them: the word screen by |h_1| for xi1, the squared-modulus
    image screen for xi1 and for (xi2, xi3)."""

    @pytest.mark.parametrize("coord,bound,radius,seed", [
        ("xi1", "inner", 100.0, 3),
        ("xi1", "outer", 100.0, 17),
        ("xi1", "outer", 100.0, 3),
        ("xi1", "inner", 1e6, 4),
        ("fiber", "inner", 100.0, 1),
        ("fiber", "outer", 100.0, 36),
        ("fiber-phase", "inner", 100.0, 6),
        ("fiber-phase", "outer", 100.0, 10),
        ("fiber-phase", "inner", 1e6, 15),
        ("fiber-phase", "outer", 1e6, 13),
        ("fiber-unequal", "inner", 100.0, 13),
        ("fiber-unequal", "outer", 100.0, 21)],
        ids=["word-and-image-inner", "word-outer", "image-outer",
             "word-and-image-inner-1e6", "fiber-inner", "fiber-outer",
             "fiber-word-inner", "fiber-word-outer", "fiber-word-inner-1e6",
             "fiber-word-outer-1e6", "fiber-unequal-inner",
             "fiber-unequal-outer"])
    def test_planted_image_near_bound(self, coord, bound, radius, seed):
        # the words (1, a, a e^{i theta}) meet the fibre screen by |a|; for
        # (1, a/2, 2ia) its bounds by min and max(|h_2|, |h_3|) are loose
        # and the images decide
        xi = _sample(radius, seed)
        u, v = {"fiber": (1, 1), "fiber-unequal": (0.5, 2j)}.get(
            coord, (1, np.exp(0.7j)))
        m = abs(xi[0]) if coord == "xi1" else np.hypot(abs(u) * abs(xi[1]),
                                                       abs(v) * abs(xi[2]))
        a0 = (1 / radius if bound == "inner" else radius) / m
        for k in range(-8, 9):
            a = a0 * (1 + k * 2.0 ** -52)
            f = (a, 1, 1) if coord == "xi1" else (1, u * a, v * a)
            args = ((GroupElement(NR, f), identity(NR)), radius, 1, 1, seed)
            assert _outcome(properness_probe, *args) == \
                _outcome(oracle_probe, *args)

    @pytest.mark.parametrize("radius", [1e160, 1e300, 1.79e308])
    def test_radius_beyond_square_range(self, radius):
        # squares of the bounds, and of some images, over- or underflow:
        # the exact test decides what the squares cannot
        args = (DIAG_PAIR, radius, 8, 5, 1)
        assert ref.same_outcome(_outcome(properness_probe, *args),
                                _outcome(oracle_probe, *args))
