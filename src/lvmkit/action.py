"""Dynamics of the Z^2-action generated by a commuting pair: windowed
fixed-point certificates, orbits, and a properness falsification probe.

The probe never claims properness: its positive outcome is only "no
violation found" over the sampled window.

Both searches evaluate their word window as numpy arrays.  The powers
of each generator are built once as parameter rows, in the arithmetic of
`compose`, and validated once; the words f^r g^s are composed from them
and, in the probe, applied to every sample point, a block at a time.
The array arithmetic is numpy's, so a word agrees with the scalar
`compose` to rounding; the words the arrays flag (a refusal, a row that
`compose` may refuse in its own rounding, a non-finite row, a candidate
fixed point) are built one by one with `compose`, and decided as
word-by-word evaluation decides them.  The probe skips words whose |h_1|
sends every sample's |xi_1| out of the annulus and places images by
squared moduli clear of its bounds; it places the rest by their moduli.
Its images are numpy's, so an image within rounding of a bound of the
annulus may be placed otherwise than by the scalar `apply`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .resonant_group import (PointV, _compose_data, _element_check, _images,
                             apply, compose, compose_many,
                             element_from_params, identity, inverse, passed,
                             replay)

DEFAULT_WINDOW = 25
FP_TOL = 1e-10
ANNULUS_RADIUS = 1e2
# words per array block (divided by the sample count in the probe), which
# bounds the memory a large window or horizon takes
_BLOCK = 1 << 16
# relative allowance of the screens, far above their few ulp of rounding,
# which is relative for squared moduli in [_TINY, _HUGE]
_SLACK, _TINY, _HUGE = 1e-12, 2.0 ** -960, 2.0 ** 960


@dataclass(frozen=True)
class ActionCertificate:
    window: int
    fixed_point_free: bool
    witness: Optional[tuple] = None  # ((r, s), PointV)

    def __post_init__(self):
        if self.fixed_point_free == (self.witness is not None):
            raise ValueError("witness must be present exactly when a fixed "
                             "point exists")


def _powers(f, bound):
    """The parameter rows (2 bound + 1, k) of f^r, r = -bound ... bound,
    composed as `compose` composes f^(r-1) f and f^-(r-1) f^-1, then
    validated once: `GroupElement` refuses all rows of a regime alike."""
    finv = inverse(f).data
    up, down = [identity(f.regime).data], [identity(f.regime).data]
    for _ in range(bound):
        up.append(_compose_data(f.regime, up[-1], f.data))
        down.append(_compose_data(f.regime, down[-1], finv))
    seq = down[:0:-1] + up
    if f.regime.tag == "Double":
        rows = np.column_stack([[d[0] for d in seq],
                                np.reshape([d[1] for d in seq], (-1, 4))])
    else:
        rows = np.array(seq, dtype=complex)
    replay(_element_check(f.regime, rows))
    return rows


def _word(f, g, fp, gp, r, s):
    """The element f^r g^s from the `_powers` rows fp of f and gp of g."""
    return compose(element_from_params(f.regime, fp[r + len(fp) // 2]),
                   element_from_params(g.regime, gp[s + len(gp) // 2]))


def _grid(bound):
    """The words (r, s) with |r|, |s| <= bound as two integer arrays, in
    the order of a loop over r with an inner loop over s."""
    k = np.arange(-bound, bound + 1)
    return np.repeat(k, k.size), np.tile(k, k.size)


def _word_composer(f, g, fp, gp, bound):
    """A function taking integer arrays (r, s), |r|, |s| <= bound, to the
    parameter rows of the words f^r g^s and the mask of the rows that
    pass the checks of `compose_many` clear of rounding: the rows that
    `compose`, which rounds as Python does, may refuse though the arrays
    take them are left out too.  They are the rows with a power of the
    scalars of g^s within 2^8 of an end of the float range (2^1024 and
    2^-1074), an entry `GroupElement` tests for 0 that may be below
    _TINY, and the Double words `_invertible` leaves out."""
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    regime = f.regime
    fa, ga = np.abs(fp), np.abs(gp)
    lead = 1 if regime.tag == "Double" else 3
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.abs(np.log2(ga[:, :2]) * [regime.p, regime.q])
        edge = ((1024 - 8 < e) & (e < 1074 + 8)).any(axis=1)
        # each tested entry is a product of moduli at least these
        flo = np.log2(fa[:, :lead].min(axis=1))
        glo = np.where(edge, -np.inf, np.log2(ga[:, :lead].min(axis=1)))
        twist = ga[:, 0] ** regime.p

    def words(r, s):
        i, j = r + bound, s + bound
        h, checks = compose_many(regime, fp[i], gp[j])
        ok = passed(checks) & (flo[i] + glo[j] > np.log2(_TINY) + 1)
        if regime.tag == "Double":
            ok &= _invertible(fa[i], ga[j], twist[j], h)
        return h, ok
    return words


def _invertible(a, b, w, h):
    """The Double words h = a b whose 2x2 determinant is nonzero in any
    rounding, from the moduli a, b of the factors' rows and w = |b1|^p:
    above _SLACK times the size of its terms (tau_p(b1)(A) B on moduli),
    every nonzero twisted entry and term size at least _TINY, where
    rounding is relative."""
    with np.errstate(all="ignore"):
        t01, t10 = a[:, 2] / w, a[:, 3] * w
        s00, s01 = a[:, 1] * b[:, 1] + t01 * b[:, 3], \
            a[:, 1] * b[:, 2] + t01 * b[:, 4]
        s10, s11 = t10 * b[:, 1] + a[:, 4] * b[:, 3], \
            t10 * b[:, 2] + a[:, 4] * b[:, 4]
        span = s00 * s11 + s01 * s10
        det = np.abs(h[:, 1] * h[:, 4] - h[:, 2] * h[:, 3])
        terms = np.array([t01, t10, s00, s01, s10, s11])
        tiny = ((0 < terms) & (terms < _TINY)).any(axis=0)
        return (det > _SLACK * span) & (span >= _TINY) & ~tiny


def _near_one(z, tol):
    return np.isfinite(z) and abs(z - 1) <= tol


def _fixed_point_witness(h, tol):
    """An exact fixed point of h in V, or None.

    Solved per regime: the first coordinate forces the scalar part to be
    1; the fiber equations are at most affine in xi3 and are solved in
    closed form.
    """
    tag = h.regime.tag
    if tag == "NonResonant":
        h1, h2, h3 = h.data
        if not _near_one(h1, tol):
            return None
        if _near_one(h2, tol):
            return PointV((1, 1, 0))
        if _near_one(h3, tol):
            return PointV((1, 0, 1))
        return None
    if tag == "Single":
        h1, h2, h3, eps = h.data
        if not _near_one(h1, tol):
            return None
        if _near_one(h2, tol):
            if _near_one(h3, tol):
                return PointV((1, 1, 0)) if abs(eps) <= tol else None
            return PointV((1, 1, eps / (1 - h3)))
        if _near_one(h3, tol):
            return PointV((1, 0, 1))  # xi2 = 0 kills the shear term (q >= 1)
        return None
    h1, mat = h.data
    if not _near_one(h1, tol):
        return None
    # tau_p(xi1)(M) is similar to M for every xi1, so a fixed fiber point
    # exists iff 1 is an eigenvalue of M
    vals, vecs = np.linalg.eig(mat)
    for k in range(2):
        if _near_one(vals[k], tol):
            v = vecs[:, k]
            return PointV((1, v[0], v[1]))
    return None


def fixed_point_certificate(pair, window=DEFAULT_WINDOW, tol=FP_TOL):
    """Search the window |r|, |s| <= W for a fixed point of f^r g^s.

    A fixed point needs the scalar part of the word to be 1, so the
    window's words are composed as arrays and only those whose scalar
    part is within 2 tol of 1, widened by the allowance for the rounding
    of the array product, (or that `compose` may refuse) are built and
    solved one by one, in loop order.
    """
    if window < 1:
        raise ValueError("need window >= 1, got %r" % (window,))
    f, g = pair
    r, s = _grid(window)
    other = (r != 0) | (s != 0)
    r, s = r[other], s[other]
    with np.errstate(over="ignore", invalid="ignore"):
        fp = _powers(f, window)
        gp = _powers(g, window)
        words = _word_composer(f, g, fp, gp, window)
        for c in range(0, r.size, _BLOCK):
            rc, sc = r[c:c + _BLOCK], s[c:c + _BLOCK]
            h, ok = words(rc, sc)
            near = np.abs(h[:, 0] - 1) <= 2 * tol + _SLACK * np.abs(h[:, 0])
            for k in np.flatnonzero(near | ~ok):
                word = int(rc[k]), int(sc[k])
                w = _fixed_point_witness(_word(f, g, fp, gp, *word), tol)
                if w is not None:
                    return ActionCertificate(window, False, (word, w))
    return ActionCertificate(window, True)


def orbit(pair, word, x):
    """Successive images of x under the words f^r g^s, (r, s) integers,
    named by the word; the returned list starts with x itself."""
    f, g = pair
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    word = list(word)
    for entry in word:
        try:
            ok_entry = len(entry) == 2 and all(
                isinstance(k, (int, np.integer)) for k in entry)
        except TypeError:  # no sequence
            ok_entry = False
        if not ok_entry:
            raise ValueError("word entry %r is not an integer pair" % (entry,))
    out = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        fp = _powers(f, max((abs(r) for r, _ in word), default=0))
        gp = _powers(g, max((abs(s) for _, s in word), default=0))
        for r, s in word:
            x = apply(_word(f, g, fp, gp, r, s), x)
            out.append(x)
    return out


@dataclass(frozen=True)
class PropernessReport:
    horizon: int
    compact_radius: float
    samples: int
    seed: int
    violations: tuple  # of ((r, s), PointV returning to the annulus)

    @property
    def no_violation_found(self):
        return not self.violations


def _in_annulus(y, radius):
    """Which images (..., 3) lie in the annulus 1/radius <= |xi1|,
    |(xi2, xi3)| <= radius.  Non-finite images fail, and so do images
    outside V (xi1 = 0 or xi2 = xi3 = 0).  Squared moduli decide where
    they clear the squared bounds, clipped to [_TINY, _HUGE], by the
    allowance; their moduli, as `abs` takes them, decide the rest."""
    inner = 1 / radius
    lo, hi = inner * inner, radius * radius
    out_lo = lo * (1 - _SLACK) if lo * (1 - _SLACK) >= _TINY else 0.0
    out_hi = hi * (1 + _SLACK) if hi * (1 + _SLACK) <= _HUGE else np.inf
    in_lo, in_hi = max(lo * (1 + _SLACK), _TINY), min(hi * (1 - _SLACK), _HUGE)
    q = y.real * y.real + y.imag * y.imag
    s1, s23 = q[..., 0], q[..., 1] + q[..., 2]
    inside = (in_lo <= s1) & (s1 <= in_hi) & (in_lo <= s23) & (s23 <= in_hi)
    # nan squares fail here, as their moduli (nan or inf) fail exactly
    rest = ~inside & (out_lo <= s1) & (s1 <= out_hi) \
        & (out_lo <= s23) & (s23 <= out_hi)
    m1 = np.hypot(y[rest, 0].real, y[rest, 0].imag)
    m23 = np.hypot(np.hypot(y[rest, 1].real, y[rest, 1].imag),
                   np.hypot(y[rest, 2].real, y[rest, 2].imag))
    inside[rest] = (inner <= m1) & (m1 <= radius) & (inner <= m23) \
        & (m23 <= radius)
    return inside


def properness_probe(pair, compact_radius=ANNULUS_RADIUS, horizon=20,
                     samples=20, seed=0):
    """Look for words moving the compact annulus K back onto itself.

    Words f^r g^s with max(|r|, |s|) in [horizon/2, horizon] are applied
    to seeded sample points of K; any image landing in K again is
    reported as a falsification candidate.  Finding none proves nothing.
    Each word is reported once, with the first sample it returns.
    """
    if not 1 < compact_radius < np.inf or horizon < 1 or samples < 1:
        raise ValueError(
            "need a finite compact_radius > 1, horizon >= 1 and samples >= 1,"
            " got %r, %r and %r" % (compact_radius, horizon, samples))
    f, g = pair
    rng = np.random.default_rng(seed)
    x = np.empty((samples, 3), dtype=complex)
    for n in range(samples):
        m1 = 10 ** rng.uniform(-np.log10(compact_radius),
                               np.log10(compact_radius))
        m23 = 10 ** rng.uniform(-np.log10(compact_radius),
                                np.log10(compact_radius))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v *= m23 / np.linalg.norm(v)
        x[n] = m1 * np.exp(2j * np.pi * rng.uniform()), v[0], v[1]
    pts = [PointV(tuple(xi)) for xi in x]
    r, s = _grid(horizon)
    band = np.maximum(abs(r), abs(s)) >= (horizon + 1) // 2
    r, s = r[band], s[band]
    block = max(1, _BLOCK // samples)
    m = np.abs(x[:, 0])
    violations = []
    with np.errstate(over="ignore", invalid="ignore"):
        # images have |xi1| = |h_1| |x_1| to a few ulp: a word whose |h_1|
        # (normal, so accurate) sends every |x_1| beyond a bound by the
        # allowance returns no sample
        low = (1 / compact_radius) * (1 - _SLACK) / m.max()
        high = compact_radius * (1 + _SLACK) / m.min()
        fp = _powers(f, horizon)
        gp = _powers(g, horizon)
        words = _word_composer(f, g, fp, gp, horizon)
        for c in range(0, r.size, block):
            rc, sc = r[c:c + block], s[c:c + block]
            h, ok = words(rc, sc)
            a = np.abs(h[:, 0])
            live = ~((a >= _TINY) & ((a < low) | (a > high)))
            y, powers = _images(f.regime, h[live, None], x)
            # the samples whose powers apply refuses
            suspect = np.flatnonzero(~passed(powers))
            inside = _in_annulus(y, compact_radius)
            first = np.full(rc.size, samples)
            first[live] = np.where(inside.any(axis=1), inside.argmax(axis=1),
                                   samples)
            # replay through compose and apply the words they may refuse:
            # those compose may refuse, and those that meet a point whose
            # powers apply may refuse before their first return
            late = first > (suspect[0] if suspect.size else samples)
            for k in np.flatnonzero(~ok | late):
                word = _word(f, g, fp, gp, int(rc[k]), int(sc[k]))
                for n in suspect[suspect < first[k]]:
                    apply(word, pts[n])
            hit = first < samples
            violations += [((i, j), pts[n]) for i, j, n in zip(
                rc[hit].tolist(), sc[hit].tolist(), first[hit].tolist())]
    return PropernessReport(horizon, compact_radius, samples, seed,
                            tuple(violations))
