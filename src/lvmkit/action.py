"""Dynamics of the Z^2-action generated by a commuting pair: windowed
fixed-point certificates, orbits, and a properness falsification probe.

The probe never claims properness: its positive outcome is only "no
violation found" over the sampled window.

Both searches build the powers of each generator once as parameter
rows, not validated, and compose the words f^r g^s from them by
`compose_many`.  Each word is decided as its row reads, so a word whose
entries round to 0 or leave the float range has no fixed point and no
return; a word is refused only where a diagonal multiplier of it may be
any number (`_unread`).  The arrays screen, and each candidate is
decided alone: the certificate composes and solves each word whose
scalar part is near 1 as one row, and the probe applies blocks of words
to all sample points at once.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .resonant_group import (PointV, _compose_data, _finite_check, _images,
                             _inverse_data, _overflow, apply, compose,
                             compose_many, element_from_params, identity,
                             passed, replay)

DEFAULT_WINDOW = 25
FP_TOL = 1e-10
ANNULUS_RADIUS = 1e2
# word-samples per array block of the probe, which bounds the memory a
# large horizon or sample count takes
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
    chained as `compose` and `inverse` take f^(r-1) f, f^-1, f^-(r-1) f^-1.
    They are not validated: a row may hold 0, inf or nan, and only
    Python's refusal of a power of a1 in this arithmetic raises."""
    finv = _inverse_data(f.regime, f.data)
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
    return rows


def _grid(bound):
    """The words (r, s) with |r|, |s| <= bound as two integer arrays, in
    the order of a loop over r with an inner loop over s."""
    k = np.arange(-bound, bound + 1)
    return np.repeat(k, k.size), np.tile(k, k.size)


def _unread(a, b):
    """Where the product a b of scalar coordinates of two powers may be any
    number, 1 included: one left the float range (inf or nan) and the
    other has modulus below 1 (0 included)."""
    return ~np.isfinite(a) & (np.abs(b) < 1) | (np.abs(a) < 1) & ~np.isfinite(b)


def _near_one(z, tol):
    return abs(z - 1) <= tol


def _fixed_point_witness(regime, h, tol):
    """An exact fixed point in V of the word with the parameter row h
    (`GroupElement.params`), or None.  A row whose scalar part is within
    tol of 1 but which is not finite is refused as `compose_many` refuses
    it.

    Solved per regime: the first coordinate forces the scalar part to be
    1; the fiber equations are at most affine in xi3 and are solved in
    closed form.
    """
    h1, *rest = (complex(z) for z in h)
    if not _near_one(h1, tol):
        return None
    replay(_finite_check(h))
    if regime.tag == "NonResonant":
        h2, h3 = rest
        if _near_one(h2, tol):
            return PointV((1, 1, 0))
        if _near_one(h3, tol):
            return PointV((1, 0, 1))
        return None
    if regime.tag == "Single":
        h2, h3, eps = rest
        if _near_one(h2, tol):
            if _near_one(h3, tol):
                return PointV((1, 1, 0)) if abs(eps) <= tol else None
            return PointV((1, 1, eps / (1 - h3)))
        if _near_one(h3, tol):
            return PointV((1, 0, 1))  # xi2 = 0 kills the shear term (q >= 1)
        return None
    # tau_p(xi1)(M) is similar to M for every xi1, so a fixed fiber point
    # exists iff 1 is an eigenvalue of M
    vals, vecs = np.linalg.eig(np.reshape(rest, (2, 2)))
    for k in range(2):
        if _near_one(vals[k], tol):
            v = vecs[:, k]
            return PointV((1, v[0], v[1]))
    return None


def _regime(pair):
    """The regime of a pair, whose generators must share it."""
    f, g = pair
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    return f.regime


def fixed_point_certificate(pair, window=DEFAULT_WINDOW, tol=FP_TOL):
    """Search the window |r|, |s| <= W for a fixed point of f^r g^s.

    A fixed point needs the scalar part of the word to be 1, so only the
    words whose scalar part is within 2 tol of 1, widened by the allowance
    for rounding, are composed, each alone, and solved, in loop order; a
    word whose scalar part cannot be read (`_unread`) is refused there.
    """
    if window < 1:
        raise ValueError("need window >= 1, got %r" % (window,))
    regime = _regime(pair)
    f, g = pair
    with np.errstate(all="ignore"):
        fp, gp = _powers(f, window), _powers(g, window)
        h1 = np.multiply.outer(fp[:, 0], gp[:, 0])
        unread = _unread(fp[:, 0, None], gp[None, :, 0])
        near = unread | (np.abs(h1 - 1) <= 2 * tol + _SLACK * np.abs(h1))
        near[window, window] = False
        for i, j in np.argwhere(near).tolist():
            h = compose_many(regime, fp[i, None], gp[j, None])[0][0]
            if unread[i, j]:
                _overflow(h)
            w = _fixed_point_witness(regime, h, tol)
            if w is not None:
                return ActionCertificate(window, False,
                                         ((i - window, j - window), w))
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
    rb = max((abs(r) for r, _ in word), default=0)
    sb = max((abs(s) for _, s in word), default=0)
    with np.errstate(over="ignore", invalid="ignore"):
        fp, gp = _powers(f, rb), _powers(g, sb)
        for r, s in word:
            x = apply(compose(element_from_params(f.regime, fp[r + rb]),
                              element_from_params(g.regime, gp[s + sb])), x)
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
    Each word is reported once, with the first sample it returns.  In
    loop order, a word whose diagonal multipliers cannot be read
    (`_unread`) raises OverflowError, and a word that meets a sample whose
    powers the Double regime's tau refuses, before its first return,
    raises that refusal.
    """
    if not 1 < compact_radius < np.inf or horizon < 1 or samples < 1:
        raise ValueError(
            "need a finite compact_radius > 1, horizon >= 1 and samples >= 1,"
            " got %r, %r and %r" % (compact_radius, horizon, samples))
    regime = _regime(pair)
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
    diagonal = 1 if regime.tag == "Double" else 3
    violations = []
    with np.errstate(over="ignore", invalid="ignore"):
        # images have |xi1| = |h_1| |x_1| to a few ulp: a word whose |h_1|
        # (normal, so accurate) sends every |x_1| beyond a bound by the
        # allowance returns no sample
        low = (1 / compact_radius) * (1 - _SLACK) / m.max()
        high = compact_radius * (1 + _SLACK) / m.min()
        fp, gp = _powers(f, horizon), _powers(g, horizon)
        for c in range(0, r.size, block):
            rc, sc = r[c:c + block], s[c:c + block]
            fr, gs = fp[rc + horizon], gp[sc + horizon]
            unread = _unread(fr[:, :diagonal], gs[:, :diagonal]).any(axis=1)
            h = compose_many(regime, fr, gs)[0]
            a = np.abs(h[:, 0])
            live = ~((a >= _TINY) & ((a < low) | (a > high)))
            y, powers = _images(regime, h[live, None], x)
            inside = _in_annulus(y, compact_radius)
            first = np.full(rc.size, samples)
            first[live] = np.where(inside.any(axis=1), inside.argmax(axis=1),
                                   samples)
            # in loop order, a word that cannot be read raises, and so does
            # a word that meets a sample whose powers apply refuses, before
            # its first return, with that sample's refusal
            suspect = np.flatnonzero(~passed(powers))
            refused = unread | (first > suspect[0] if suspect.size else False)
            if refused.any():
                k = np.argmax(refused)
                if unread[k]:
                    _overflow(h[k])
                replay(*powers)
            hit = first < samples
            violations += [((i, j), pts[n]) for i, j, n in zip(
                rc[hit].tolist(), sc[hit].tolist(), first[hit].tolist())]
    return PropernessReport(horizon, compact_radius, samples, seed,
                            tuple(violations))
