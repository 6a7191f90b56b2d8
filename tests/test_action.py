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
from lvmkit.resonant_group import (GroupElement, PointV, apply, apply_many,
                                   compose, compose_many, element_from_params,
                                   identity)
from lvmkit.action import (
    FP_TOL,
    ActionCertificate,
    _fixed_point_witness,
    _grid,
    _powers,
    fixed_point_certificate,
    orbit,
    properness_probe,
)
from action_oracle import (oracle_certificate, oracle_powers, oracle_probe,
                           oracle_samples)
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
        for window in (0, -3):
            with pytest.raises(ValueError, match="need window >= 1"):
                fixed_point_certificate(UNIT_PAIR, window=window)

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
        expected = [x]
        for r, s in word:
            expected.append(apply(_word_element(pair, r, s), expected[-1]))
        assert orbit(pair, iter(word), x) == expected

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

    @pytest.mark.parametrize("entry", [(1.0, 0), (0, np.float64(2)), (1, "1")])
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

    def test_bool_and_numpy_word_accepted(self):
        x = PointV((1, 2, 3))
        assert orbit(DIAG_PAIR, [(True, False), (np.int64(-1), 0)], x) == \
            orbit(DIAG_PAIR, [(1, 0), (-1, 0)], x)


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

    @pytest.mark.parametrize("kwargs", [
        {"samples": 0}, {"samples": -2},
        {"compact_radius": float("nan")}, {"compact_radius": float("inf")}])
    def test_vacuous_or_undefined_probe_rejected(self, kwargs):
        with pytest.raises(ValueError, match="need a finite compact_radius"):
            properness_probe(DIAG_PAIR, **kwargs)

    def test_no_per_point_work(self, monkeypatch):
        calls = {"apply": 0, "point": 0}
        post_init = PointV.__post_init__

        def counting_apply(f, x):
            calls["apply"] += 1
            return apply(f, x)

        def counting_post_init(point):
            calls["point"] += 1
            post_init(point)

        monkeypatch.setattr(lvmkit.resonant_group, "apply", counting_apply)
        monkeypatch.setattr(lvmkit.action, "apply", counting_apply)
        monkeypatch.setattr(PointV, "__post_init__", counting_post_init)
        report = properness_probe(DIAG_PAIR, horizon=20, samples=20)
        assert report.no_violation_found
        # the 20 sample points are the only points built; word-by-word
        # evaluation applies 1320 words to each of them
        assert calls == {"apply": 0, "point": 20}


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


def _oracle_rows(f, bound):
    table = oracle_powers(f, bound)
    return np.array([table[r] for r in range(-bound, bound + 1)])


class TestPowers:
    """The rows of `_powers` are the powers of the chain of
    `_compose_data`, to the bit, and it raises what that chain raises."""

    @settings(max_examples=100, deadline=None)
    @given(action_pairs(), st.integers(0, 30))
    def test_rows_match_scalar_chain(self, pair, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for f in pair:
                assert _outcome(lambda: _powers(f, bound).tobytes()) == \
                    _outcome(lambda: _oracle_rows(f, bound).tobytes())

    @pytest.mark.parametrize("f,bound,error", [
        (GroupElement(NR, (1e-170, 2, 3)), 3, None),
        (GroupElement(D2, (3e-155 + 4e-155j, np.eye(2))), 3, "OverflowError"),
        (GroupElement(D2, (4e-155 + 4e-155j, np.eye(2))), 0, "OverflowError")],
        ids=["power-underflows", "a1-power-refused", "inverse-refused"])
    def test_refusals_match_scalar_chain(self, f, bound, error):
        # f^2 underflows to 0 and f^-2 overflows: both are rows like any
        # other; Python refuses a1^-2 in the first step of the chain, and
        # (1/a1)^2 in the inverse, which is built at bound 0 too
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcome = _outcome(lambda: _powers(f, bound).tobytes())
            assert outcome == \
                _outcome(lambda: _oracle_rows(f, bound).tobytes())
            if error is None:
                rows = _powers(f, bound)
                assert rows[bound + 2, 0] == 0
                assert np.isinf(rows[bound - 2, 0])
            else:
                assert outcome.startswith(error + ": ")


def _image_ambiguous(pair, radius, horizon, samples, seed):
    """Whether an image of a sample under a word of the band has a modulus
    |xi1| or |(xi2, xi3)| within its error bound of a bound of the
    annulus, or an error bound beyond the float range.  An image entry of
    two computations, each a composition and an application, differs by
    at most 4 law_ops GAMMA times its term size, which the laws give on
    the moduli of the powers and the point."""
    f, g = pair
    if f.regime != g.regime:
        return False
    regime = f.regime
    r, s = _grid(horizon)
    band = np.maximum(abs(r), abs(s)) >= (horizon + 1) // 2
    x = np.array([pt.array() for pt in oracle_samples(radius, samples, seed)])
    with np.errstate(all="ignore"):
        a, b = _oracle_rows(f, horizon), _oracle_rows(g, horizon)
        a, b = a[r[band] + horizon], b[s[band] + horizon]
        y = apply_many(regime, compose_many(regime, a, b)[0][:, None], x)[0]
        size = np.abs(compose_many(regime, moduli(a), moduli(b))[0])
        err = 4 * law_ops(regime) * GAMMA * np.abs(apply_many(
            regime, moduli(size[:, None]), moduli(x))[0])
        m1, m23 = np.abs(y[..., 0]), np.hypot(np.abs(y[..., 1]),
                                              np.abs(y[..., 2]))
        e1 = err[..., 0] + 2 * U * m1
        e23 = err[..., 1] + err[..., 2] + 2 * U * m23
        return any((np.abs(m - bound) <= e).any() or (e > HUGE).any()
                   for m, e in ((m1, e1), (m23, e23))
                   for bound in (1 / radius, radius))


class TestAgainstOracle:
    """The array searches report what word-by-word evaluation reports,
    witness words and points included, and raise what it raises; no word
    refusal is left out.  The probe composes and applies words in blocks,
    whose products may differ from the oracle's in the last bits, so a
    probe with an image within its error bound of a bound of the annulus,
    or with a term beyond the float range, is left out."""

    @settings(max_examples=150, deadline=None)
    @given(action_pairs(), st.integers(1, 8), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1),
           st.one_of(st.floats(1.01, 1e6),
                     st.floats(6, 308).map(lambda e: 10.0 ** e),
                     st.floats(1e308, 1.79e308)))
    def test_probe(self, pair, horizon, samples, seed, radius):
        args = (pair, radius, horizon, samples, seed)
        assume(not _image_ambiguous(*args))
        assert _outcome(properness_probe, *args) == \
            _outcome(oracle_probe, *args)

    @settings(max_examples=150, deadline=None)
    @given(action_pairs(), st.integers(1, 8),
           st.sampled_from([0.0, FP_TOL, 1e-3, 0.5]))
    def test_certificate(self, pair, window, tol):
        args = (pair, window, tol)
        assert _outcome(fixed_point_certificate, *args) == \
            _outcome(oracle_certificate, *args)

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
        assert outcome == _outcome(oracle_certificate, (f, g), 2, 0.0)

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
        assert outcome == _outcome(oracle, (f, g), *args)

    def test_non_finite_candidate_refused(self):
        # every word f^r has scalar part 1; f^-8 has a 0 eigenvalue and no
        # fixed point, and f^8, with e^800 on its diagonal, leaves the
        # float range
        f = GroupElement(D1, (1, np.diag([np.exp(100.0), 2])))
        g = GroupElement(D1, (3, np.eye(2)))
        outcome = _outcome(fixed_point_certificate, (f, g), 8, FP_TOL)
        assert outcome == "OverflowError: result leaves the float range"
        assert outcome == _outcome(oracle_certificate, (f, g), 8, FP_TOL)
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
            assert outcome == _outcome(oracle, pair, *args)

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
        assert outcome == _outcome(oracle, pair, *args)

    @pytest.mark.parametrize("pair", [DIAG_PAIR, SINGLE_PAIR, DOUBLE_PAIR])
    def test_rounding_matches_scalar(self, pair):
        # the words the searches compose from the `_powers` rows, and their
        # images, agree with compose and apply within twice the error of a
        # composition and an application, 4 law_ops GAMMA times the size of
        # their terms, which the laws give on moduli
        f, g = pair
        regime = f.regime
        r, s = _grid(4)
        a, b = _powers(f, 4)[r + 4], _powers(g, 4)[s + 4]
        h = compose_many(regime, a, b)[0]
        size = np.abs(compose_many(regime, moduli(a), moduli(b))[0])
        x = np.array([[0.7 + 0.2j, 1.1 - 0.4j, -0.3 + 0.9j],
                      [-2.5j, 0.1 + 0.3j, 4.0],
                      [0.3 - 0.3j, 0.0, 1.7 + 2.2j]])
        y = apply_many(regime, h[:, None], x)[0]
        images = np.abs(apply_many(regime, moduli(size[:, None]),
                                   moduli(x))[0])
        bound = 4 * law_ops(regime) * GAMMA
        for k in range(r.size):
            word = compose(element_from_params(regime, a[k]),
                           element_from_params(regime, b[k]))
            assert (np.abs(h[k] - word.params()) <= bound * size[k]).all()
            for n in range(len(x)):
                image = apply(word, PointV(tuple(x[n]))).array()
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
            assert outcome == _outcome(oracle, (f, g), *args)

    @pytest.mark.parametrize("seed", range(4))
    def test_point_apply_refuses(self, seed):
        # xi1^-2 underflows for the smallest samples of K at this radius,
        # and tau refuses it; word-by-word evaluation raises only when a
        # word meets such a sample before its first return (seed 3)
        d2 = ResonanceClass("Double", p=2)
        pair = (GroupElement(d2, (1.5, np.array([[2, 0.3], [0.1, 1]]))),
                GroupElement(d2, (0.5, np.eye(2) * 0.7)))
        args = (pair, 1e300, 3, 6, seed)
        assert _outcome(properness_probe, *args) == _outcome(oracle_probe, *args)
        assert _outcome(oracle_probe, *args).startswith(
            "ZeroDivisionError" if seed == 3 else "PropernessReport")

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
            assert outcome == _outcome(oracle, pair, *args)
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
        ("fiber", "outer", 100.0, 0)],
        ids=["word-and-image-inner", "word-outer", "image-outer",
             "word-and-image-inner-1e6", "fiber-inner", "fiber-outer"])
    def test_planted_image_near_bound(self, coord, bound, radius, seed):
        xi = _sample(radius, seed)
        m = abs(xi[0]) if coord == "xi1" else np.hypot(abs(xi[1]), abs(xi[2]))
        a0 = (1 / radius if bound == "inner" else radius) / m
        for k in range(-8, 9):
            a = a0 * (1 + k * 2.0 ** -52)
            f = (a, 1, 1) if coord == "xi1" else (1, a, a)
            args = ((GroupElement(NR, f), identity(NR)), radius, 1, 1, seed)
            assert _outcome(properness_probe, *args) == \
                _outcome(oracle_probe, *args)

    @pytest.mark.parametrize("radius", [1e160, 1e300, 1.79e308])
    def test_radius_beyond_square_range(self, radius):
        # squares of the bounds, and of some images, over- or underflow:
        # the exact test decides what the squares cannot
        args = (DIAG_PAIR, radius, 8, 5, 1)
        assert _outcome(properness_probe, *args) == _outcome(oracle_probe, *args)
