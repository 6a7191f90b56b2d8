import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lvmkit.holonomy import HolonomyPair
from lvmkit.resonance import (
    DEFAULT_BOUND,
    NEAR_SHOWN,
    Resonance,
    ResonanceClass,
    ResonantVectorField,
    UnclassifiableResonancePattern,
    _is_resonance,
    _power_residual,
    _screen_bound,
    _screened,
    bracket,
    check_resonant,
    classify_regime,
    cohomology_dims,
    find_resonances,
    first_obstruction_vanishes,
)
from resonance_oracle import (box_screen, exhaustive_resonances, is_resonance,
                              power_residual)

FLOW_TOLERANCE = 1e-6
SMALL_BOUND = 8

H_SINGLE = HolonomyPair((2, 0.6, 0.72), (1 + 1j, 0.5j, -0.25 - 0.25j))
H_NONRES = HolonomyPair((2, 0.5, 0.3), (3, 0.4j, 0.2))
H_DOUBLE = HolonomyPair((2, 0.5, 0.5), (3, 0.4j, 0.4j))

TRIVIAL = {(1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1))}


def as_set(resonances):
    return {(r.j, r.p) for r in resonances}


def screened_box(h, tol, bound):
    """`_screened` on the box find_resonances searches, as a set."""
    logs = [np.log(np.asarray(v, dtype=complex)) for v in (h.alpha, h.beta)]
    box = np.arange(bound + 1)
    return {(j, tuple(p)) for j, *p in
            _screened(logs, (1, 2, 3), box, box, tol, bound).tolist()}


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
                            "extreme", "alpha1_unit", "beta1_unit",
                            "both1_unit", "proportional", "near_proportional",
                            "roots_of_unity"]),
           st.integers(0, 17) | st.integers(18, 64), st.floats(-12, np.log10(0.5)))
    def test_screen_equals_whole_box(self, seed, moduli, bound, log_tol):
        # the pruned search screens exactly the exponents a scan of the
        # whole box screens, so found and near-resonances agree with it.
        # The classes reach each case of the (p2, p3) window: |alpha_1|,
        # |beta_1| or both exactly 1 (r0 = 0), and beta's log-moduli a
        # multiple of alpha's, or nearly, where it widens to every p3; all
        # six on the unit circle, at random angles or at roots of unity
        # exp(2 pi i k / n), n <= 12, where many p1 share one phase
        rng = np.random.default_rng(seed)
        part = rng.uniform(-0.7, 0.7, size=6)
        ratio = rng.choice([-3, -2, -1, 0.5, 2, 3])
        logs = {"generic": part,
                "unit_alpha": np.r_[0, 0, rng.uniform(-0.7, 0.7, size=4)],
                "unit": np.zeros(6),
                "near_one": rng.choice([-1, 1], size=6) * rng.uniform(0.5, 2, size=6) * 1e-7,
                "extreme": rng.choice([-1, 1], size=6) * rng.uniform(4, 6, size=6),
                "alpha1_unit": part * [0, 1, 1, 1, 1, 1],
                "beta1_unit": part * [1, 1, 1, 0, 1, 1],
                "both1_unit": part * [0, 1, 1, 0, 1, 1],
                "proportional": np.r_[part[:3], ratio * part[:3]],
                "near_proportional": np.r_[part[:3], ratio * part[:3] * (
                    1 + 10 ** rng.uniform(-8, -2, size=3))],
                "roots_of_unity": np.zeros(6)}[moduli]
        vals = np.exp(logs + 2j * np.pi * rng.uniform(size=6))
        if moduli == "roots_of_unity":
            n = rng.integers(1, 13, size=6)
            vals = np.exp(2j * np.pi * (rng.integers(0, 12, size=6) % n) / n)
        if moduli.endswith("1_unit"):  # exactly on the unit circle
            vals[logs == 0] = 1j ** rng.integers(0, 4, size=np.sum(logs == 0))
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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(898)
    @example(7978)
    @example(13183)
    def test_screen_equals_whole_box_at_window_edge(self, seed):
        # |alpha_1| = 1 exactly, so the (p2, p3) window of j = 2, p2 = 0 is
        # |r2 p3 - r1| <= its bound, r = log|alpha|; p3 = 1 lies on its
        # lower edge when r1 - r2 = thr.  alpha_3 is the closest to that
        # with p = (0, 0, 1) screened (alpha_2, alpha_3 real, so Im z = 0);
        # beta_3 = beta_2 puts p inside beta's slab.  Seeds 898, 7978 and 13183
        # need the window's room for rounding: with the screen threshold in
        # place of the slab edges, whose room covers the rounding of its
        # terms, and without its widening step, the window drops p there
        rng = np.random.default_rng(seed)
        tol = 10 ** rng.uniform(-12, -2)
        thr = _screen_bound(tol)
        a1 = 1j ** rng.integers(0, 4)
        a2 = rng.choice([-1, 1]) * np.exp(rng.uniform(0.5, 0.7)) + 0j
        b1, b2 = np.exp(rng.uniform(-0.7, 0.7, size=2) + 2j * np.pi * rng.uniform(size=2))
        a3 = a2 * np.exp(-thr) * (1 + np.arange(-64, 65) * 2.0 ** -53)
        margin = thr - (np.log(a2).real - np.log(a3).real)
        a3 = a3[np.argmin(np.where(margin > 0, margin, np.inf))]
        h = HolonomyPair((a1, a2, a3), (b1, b2, b2))
        bound = int(rng.integers(5, 17))
        assert screened_box(h, tol, bound) == box_screen(h, tol, bound)

    @staticmethod
    def closest_inside(thr, candidates, screened):
        """The candidate whose screened value lies closest below thr."""
        margin = thr - np.array([screened(c) for c in candidates])
        return candidates[np.argmin(np.where(margin > 0, margin, np.inf))]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(6545)
    def test_screen_equals_whole_box_at_fraction_window_edge(self, seed):
        # alpha at powers of i, so no (p2, p3) window: beta's slab picks
        # each (j, p2)'s p3 by the fractional part of p3 r2 / r0.  For
        # p = (0, p2, p3), j = 1, beta's Re z as the screen computes it lies
        # the closest below the threshold that beta_1 allows (beta real and
        # positive, so Im z = 0): p is screened, a rounding step inside the
        # window, whose half-width is the slab's e / |r0| and its margin.
        # Seed 6545 needs that room: at thr / |r0|, the window drops p there
        rng = np.random.default_rng(seed)
        tol = 10 ** rng.uniform(-12, np.log10(0.5))
        thr = _screen_bound(tol)
        bound = int(rng.integers(8, 25))
        p2, p3 = int(rng.integers(0, 4)), int(rng.integers(1, bound + 1))
        k2, k3 = rng.integers(0, 4, size=2)
        alpha = (1j ** int(k2 * p2 + k3 * p3), 1j ** int(k2), 1j ** int(k3))
        b2, b3 = np.exp(rng.uniform(-0.7, 0.7, size=2) / (1 + p3)) + 0j
        lb = np.log([b2, b3])
        b1 = self.closest_inside(
            thr, b2 ** p2 * b3 ** p3 * np.exp(-thr) * (1 + np.arange(-64, 65) * 2.0 ** -53),
            lambda b1: abs(((0 * np.log(b1) + p2 * lb[0]) + p3 * lb[1] - np.log(b1)).real))
        h = HolonomyPair(alpha, (b1, b2, b3))
        assert (1, (0, p2, p3)) in box_screen(h, tol, bound)
        assert screened_box(h, tol, bound) == box_screen(h, tol, bound)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(2661)
    @example(9372)
    def test_screen_equals_whole_box_at_phase_window_edge(self, seed):
        # all six multipliers on the unit circle, so no slab: each cell's p1
        # come from a window of the sorted phases p1 theta1.  For
        # p = (p1, p2, 0), j = 3, alpha's |Re z| + |wrapped Im z| as the
        # screen computes it lies the closest below the threshold that
        # alpha_3 allows: p is screened, within a rounding step of the edge
        # of the window, whose half-width is the threshold and its margin.
        # Seeds 2661 and 9372 need the margin: with none, or with 2^-56 in
        # place of its 2^-48, the window drops p there
        rng = np.random.default_rng(seed)
        tol = 10 ** rng.uniform(-12, np.log10(0.5))
        thr = _screen_bound(tol)
        bound = int(rng.integers(4, 25))
        p1, p2 = int(rng.integers(-bound, bound + 1)), int(rng.integers(0, 4))
        a1, a2, b1, b2 = np.exp(2j * np.pi * rng.uniform(size=4))
        la = np.log([a1, a2])
        sign = rng.choice([-1, 1])

        def screened(a3):
            z = (p1 * la[0] + p2 * la[1]) + 0 * np.log(a3) - np.log(a3)
            return abs(z.real) + abs(np.remainder(z.imag + np.pi, 2 * np.pi) - np.pi)
        a3 = self.closest_inside(thr, a1 ** p1 * a2 ** p2 * np.exp(
            -1j * sign * thr * (1 + np.arange(-64, 65) * 2.0 ** -53)), screened)
        h = HolonomyPair((a1, a2, a3), (b1, b2, b1 ** p1 * b2 ** p2))
        assert screened_box(h, tol, bound) == box_screen(h, tol, bound)

    def test_screen_equals_whole_box_with_wide_phase_window(self):
        # near tol = 1 the phase window is wider than the circle; it then
        # holds each p1 of a cell once
        rng = np.random.default_rng(0)
        for tol in (0.8, 0.999, 1 - 1e-7):
            u = np.exp(2j * np.pi * rng.uniform(size=6))
            h = HolonomyPair(tuple(u[:3]), tuple(u[3:]))
            assert screened_box(h, tol, 6) == box_screen(h, tol, 6)

    @pytest.mark.parametrize("moduli", ["generic", "unit_modulus", "all_unit"])
    @pytest.mark.parametrize("seed", range(4))
    def test_screen_equals_whole_box_at_default_bound(self, seed, moduli):
        # at the bound the CLI searches by default, 64, drawn as the
        # benchmark draws its eigen-data: generic moduli (the (p2, p3)
        # window), alpha_1 and alpha_2 scaled onto the unit circle (the
        # window, or the fractional-part window where a relation is
        # planted) and all six on it (the phases); seeds 1 and 3 plant a
        # Double and a Single relation
        rng = np.random.default_rng([64, seed])
        vals = rng.uniform(0.5, 2, size=6) * np.exp(2j * np.pi * rng.uniform(size=6))
        if moduli == "unit_modulus":
            vals[:2] /= abs(vals[:2])
        elif moduli == "all_unit":
            vals /= abs(vals)
        if seed % 2:
            p, q = int(rng.integers(-3, 4)), 1 + seed // 2
            vals[2], vals[5] = vals[0] ** p * vals[1] ** q, vals[3] ** p * vals[4] ** q
        h = HolonomyPair(tuple(vals[:3]), tuple(vals[3:]))
        tol = 10 ** rng.uniform(-12, -6)
        assert screened_box(h, tol, DEFAULT_BOUND) == box_screen(h, tol, DEFAULT_BOUND)

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
    """Eigen-data of every regime: generic moduli, alpha on the unit circle
    or all six multipliers there, each with no relation or a planted Single
    or Double one."""
    moduli = draw(st.sampled_from(["generic", "unit_alpha", "unit"]))
    kind = draw(st.sampled_from(["generic", "single", "double"]))

    def z(unit):
        log_modulus = 0.0 if unit else draw(st.floats(-0.7, 0.7))
        return np.exp(log_modulus + 2j * np.pi * draw(st.floats(0, 1)))

    alpha = [z(moduli != "generic") for _ in range(3)]
    beta = [z(moduli == "unit") for _ in range(3)]
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
    @given(planted_eigen_data(), st.sampled_from([1e-9, 1e-3, 0.1]),
           st.integers(0, 6))
    def test_inversion(self, h, tol, bound):
        # alpha_j = alpha^p iff 1/alpha_j = (1/alpha)^p, for beta alike.
        # The residuals of the two sides differ by a factor within the
        # residual of 1, so a draw is left out if an exponent found on
        # either side has a residual within a factor of 10 of tol there
        inv = HolonomyPair(tuple(1 / np.asarray(h.alpha)),
                           tuple(1 / np.asarray(h.beta)))
        got = _outcome(find_resonances, inv, tol, bound)
        want = _outcome(find_resonances, h, tol, bound)
        assume(not any(tol / 10 <= is_resonance(pair, r.j, r.p, tol)[1]
                       <= 10 * tol
                       for r in set(got) | set(want) for pair in (h, inv)))
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(planted_eigen_data(), st.integers(2, 6))
    def test_regime_under_swap(self, h, bound):
        def regime(pair):
            return _outcome(lambda: classify_regime(
                find_resonances(pair, bound=bound)))
        assert regime(HolonomyPair(h.beta, h.alpha)) == regime(h)


class TestPowerResidual:
    """The array residual is the scalar one, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 30, 300]),
           st.integers(0, 128))
    def test_array_equals_scalar(self, seed, decades, bound):
        # moduli up to 10^+-decades, half of them at that extreme, a third of
        # the exponents 0, targets of every j, near them (both branches of
        # the residual) or far off
        rng = np.random.default_rng(seed)
        e = rng.uniform(-1, 1, size=(2, 3))
        alpha, beta = 10 ** (np.where(abs(e) > 0.5, np.sign(e), e) * decades) \
            * np.exp(2j * np.pi * rng.uniform(size=(2, 3)))
        h = HolonomyPair(tuple(alpha), tuple(beta))
        p = rng.integers(-bound, bound + 1, size=(40, 3))
        p[rng.uniform(size=(40, 3)) < 1 / 3] = 0
        rows = np.column_stack([rng.integers(1, 4, size=40), p])
        rows[:, 2:] = abs(rows[:, 2:])
        near = 1 + 10 ** rng.uniform(-16, 1, size=40) * np.exp(
            2j * np.pi * rng.uniform(size=40))
        target = alpha[rows[:, 0] - 1] * near
        got = _power_residual(alpha, target, rows[:, 1:])
        want = [power_residual(alpha, t, r) for t, r in zip(target, rows[:, 1:])]
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
        # per-row values, as the chart clauses stack them
        got = _power_residual(np.stack([alpha] * 40), target, rows[:, 1:])
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
        ok, residual = _is_resonance(h, rows, 1e-9)
        want = [is_resonance(h, j, tuple(r), 1e-9) for j, *r in rows.tolist()]
        assert ok.tolist() == [w[0] for w in want]
        assert residual.tobytes() == np.array([w[1] for w in want]).tobytes()


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

    def test_two_resonances_of_unexpected_shape(self):
        # neither has the shape of the Double pair (2, (-p, 0, 1)),
        # (3, (p, 1, 0))
        bad = [Resonance(j, p) for j, p in TRIVIAL] + [
            Resonance(2, (1, 0, 1)), Resonance(3, (1, 2, 0))]
        with pytest.raises(UnclassifiableResonancePattern,
                           match="^two non-trivial resonances of unexpected "
                                 "shape$"):
            classify_regime(bad)

    def test_missing_trivial(self):
        with pytest.raises(UnclassifiableResonancePattern):
            classify_regime([Resonance(1, (1, 0, 0))])

    @pytest.mark.parametrize("index,value", [
        ("p", 1.5), ("p", "a"), ("q", 2.0), ("p", None), ("q", True)])
    def test_non_integer_index_refused(self, index, value):
        # a regime index names a power, which exists for integers only
        message = r"^regime index %s must be an integer, got %s$" % (
            index, re.escape(repr(value)))
        with pytest.raises(ValueError, match=message):
            ResonanceClass("Single", **{"p": 1, "q": 2, index: value})

    def test_numpy_integer_index_accepted(self):
        regime = ResonanceClass("Single", p=np.int64(-2), q=np.int32(3))
        assert regime == ResonanceClass("Single", p=-2, q=3)
        assert type(regime.p) is int and type(regime.q) is int


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
