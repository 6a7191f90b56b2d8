"""Dynamics of the Z^2-action generated by a commuting pair: windowed
fixed-point certificates, orbits, and a properness falsification probe.

The probe never claims properness: its positive outcome is only "no
violation found" over the sampled window.

Both searches screen on the diagonal columns of the chain of
`power_many` (`_power_stages`), not validated, and take the Single
shears or Double blocks only for the words they keep, composing f^r g^s
by `_compose_rows`, the unchecked arithmetic of `compose_many`.  Each
word is decided as its row reads, so a word whose entries round to 0 or
leave the float range has no fixed point and no return; a word is
refused only where a diagonal multiplier of it may be any number
(`_unread`, formed only where a power is not finite).  The certificate
composes and solves each word whose scalar part is near 1 as one row.
The probe skips words that send every sample out of the annulus in |xi1|
or in a NonResonant fibre, and applies the rest to its first sample and
those that do not return there to the others.  It draws its samples in
one batch, as `PointV`s only if one returns.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .resonance import _is_integer
from .resonant_group import (PointV, _check, _compose_rows, _factor_powers,
                             _images, _overflow, _power_stages, _regime,
                             _to_point, apply, compose, element_from_params,
                             power_many)

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


def _powers(elements, bound):
    """The parameter rows (2 bound + 1, len(elements), k) of e^r, r =
    -bound ... bound, of each element e, by one `power_many` call.  They
    are not validated: a row may hold 0, inf or nan, and only a refused
    power of an element or its inverse raises, the first element's first."""
    rows = np.array([e.params() for e in elements])
    return power_many(elements[0].regime, rows,
                      np.arange(-bound, bound + 1)[:, None])


def _grid(bound):
    """The words (r, s) with |r|, |s| <= bound as two integer arrays, in
    the order of a loop over r with an inner loop over s."""
    k = np.arange(-bound, bound + 1)
    return np.repeat(k, k.size), np.tile(k, k.size)


def _unread(a, b):
    """Where a product a b of scalar coordinates of two powers, over the
    last axis, may be any number, 1 included: one is inf or nan and the
    other has modulus below 1 (0 included); nowhere if both are finite."""
    if np.isfinite(a).all() and np.isfinite(b).all():
        return np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1], bool)
    return (~np.isfinite(a) & (np.abs(b) < 1)
            | (np.abs(a) < 1) & ~np.isfinite(b)).any(axis=-1)


def _near_one(z, tol):
    # numpy's modulus: Python's complex abs of a nan may raise a stale
    # OverflowError left by an earlier overflow
    return np.abs(z - 1) <= tol


def _fixed_point_witness(regime, h, tol):
    """An exact fixed point in V of the word with the parameter row h
    (`GroupElement.params`), or None.  A row whose scalar part is within
    tol of 1 but which is not finite is refused with OverflowError.

    Solved per regime: the first coordinate forces the scalar part to be
    1; the fiber equations are at most affine in xi3 and are solved in
    closed form.
    """
    h1, *rest = (complex(z) for z in h)
    if not _near_one(h1, tol):
        return None
    if not np.isfinite(h).all():
        _overflow()
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


def _at_least(n, least):
    """Whether n is an integer by `_is_integer` of at least least."""
    return _is_integer(n) and n >= least


def fixed_point_certificate(pair, window=DEFAULT_WINDOW, tol=FP_TOL):
    """Search the window |r|, |s| <= W for a fixed point of f^r g^s.

    A fixed point needs the scalar part of the word to be 1, so only the
    words whose scalar part is within 2 tol of 1, widened by the allowance
    for rounding, are composed, each alone, and solved, in loop order; a
    word whose scalar part cannot be read (`_unread`) is refused there.
    """
    if not _at_least(window, 1):
        raise ValueError("need window >= 1, an integer, got %r" % (window,))
    regime = _regime(*pair)
    with np.errstate(all="ignore"):
        (fp, gp), full = _power_stages(regime, [[e.params()] for e in pair],
                                       np.arange(-window, window + 1))
        h1 = np.multiply.outer(fp[:, 0], gp[:, 0])
        unread = _unread(fp[:, None, :1], gp[None, :, :1])
        near = unread | (np.abs(h1 - 1) <= 2 * tol + _SLACK * np.abs(h1))
        near[window, window] = False
        words = np.argwhere(near).tolist()
        if words:  # only now the Single shears and Double blocks
            fp, gp = full()
        for i, j in words:
            h = _compose_rows(regime, fp[i, None], gp[j, None])[0]
            if unread[i, j]:
                _overflow()
            w = _fixed_point_witness(regime, h, tol)
            if w is not None:
                return ActionCertificate(window, False,
                                         ((i - window, j - window), w))
    return ActionCertificate(window, True)


def orbit(pair, word, x):
    """Successive images of x under the words f^r g^s, (r, s) integers,
    named by the word; the returned list starts with x itself."""
    f, g = pair
    x = _to_point(x)
    word = list(word)
    for entry in word:
        try:
            ok_entry = len(entry) == 2 and all(map(_is_integer, entry))
        except TypeError:  # no sequence
            ok_entry = False
        if not ok_entry:
            raise ValueError("word entry %r is not an integer pair" % (entry,))
    out = [x]
    n = max((max(map(abs, entry)) for entry in word), default=0)
    with np.errstate(over="ignore", invalid="ignore"):
        fp, gp = (_powers([e], n)[:, 0] for e in pair)
        for r, s in word:
            x = apply(compose(element_from_params(f.regime, fp[r + n]),
                              element_from_params(g.regime, gp[s + n])), x)
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


def _samples(radius, samples, seed):
    """The seeded sample points (samples, 3) of the annulus, in one batch."""
    rng = np.random.default_rng(seed)
    m1, m23 = radius ** rng.uniform(-1, 1, size=(2, samples))
    v = rng.normal(size=(samples, 2)) + 1j * rng.normal(size=(samples, 2))
    v = v / np.linalg.norm(v, axis=1)[:, None] * m23[:, None]
    xi1 = m1 * np.exp(2j * np.pi * rng.uniform(size=samples))
    return np.column_stack([xi1, v])


def _leaves(small, big, m, radius):
    """Which multipliers with moduli in [small, big] (normal, so accurate)
    send every modulus m beyond a bound of the annulus by the allowance."""
    low = (1 / radius) * (1 - _SLACK) / m.max()
    high = radius * (1 + _SLACK) / m.min()
    return (big >= _TINY) & (big < low) | (small > high)


def properness_probe(pair, compact_radius=ANNULUS_RADIUS, horizon=20,
                     samples=20, seed=0):
    """Look for words moving the compact annulus K back onto itself.

    Words f^r g^s with max(|r|, |s|) in [horizon/2, horizon] are applied
    to seeded sample points of K; any image landing in K again is
    reported as a falsification candidate.  Finding none proves nothing.
    Each word is reported once, with the first sample it returns.  Words
    whose |h_1|, or NonResonant fibre multipliers, send every sample
    beyond a bound of K are skipped; the first sample meets every other
    word, the others only those that do not return there.  In loop order,
    a word whose diagonal multipliers cannot be read (`_unread`) raises
    OverflowError, and a word that meets a sample whose powers the Double
    regime's tau refuses, before its first return, raises that refusal.
    """
    if not (1 < compact_radius < np.inf and _at_least(horizon, 1)
            and _at_least(samples, 1) and _at_least(seed, 0)):
        raise ValueError("need a finite compact_radius > 1, integers horizon "
                         ">= 1, samples >= 1 and seed >= 0, got %r, %r, %r and"
                         " %r" % (compact_radius, horizon, samples, seed))
    regime = _regime(*pair)
    x = _samples(compact_radius, samples, seed)
    r, s = _grid(horizon)
    band = np.maximum(abs(r), abs(s)) >= (horizon + 1) // 2
    r, s = r[band], s[band]
    block = max(1, _BLOCK // samples)
    m1, m23 = np.abs(x[:, 0]), np.hypot(np.abs(x[:, 1]), np.abs(x[:, 2]))
    diagonal = 1 if regime.tag == "Double" else 3
    screened = 3 if regime.tag == "NonResonant" else 1  # h_1 (, h_2, h_3)
    words, returns = [], []
    with np.errstate(all="ignore"):
        fp, gp = _powers(pair, horizon).swapaxes(0, 1)
        unread = _unread(fp[:, None, :diagonal],
                         gp[None, :, :diagonal]).ravel()[band]
        # the samples whose powers xi1^-p, xi1^p the Double regime's tau
        # takes are floats
        fine = np.isfinite(_factor_powers(regime, x)).all(axis=0) \
            if regime.tag == "Double" else np.ones(samples, bool)
        limit = np.argmin(fine) if not fine.all() else samples
        for c in range(0, r.size, block):
            rc, sc = r[c:c + block], s[c:c + block]
            # to a few ulp, images have |xi1| = |h_1| |x_1| and NonResonant
            # fibre moduli within min, max(|h_2|, |h_3|) times |x_23|
            h = fp[rc + horizon, :screened] * gp[sc + horizon, :screened]
            a = np.abs(h[:, 0])
            dead = _leaves(a, a, m1, compact_radius)
            if regime.tag == "NonResonant":
                a2, a3 = np.abs(h[:, 1]), np.abs(h[:, 2])
                dead |= _leaves(np.minimum(a2, a3), np.maximum(a2, a3), m23,
                                compact_radius)
            live = np.flatnonzero(~dead)
            h = h[live] if screened == fp.shape[-1] else _compose_rows(
                regime, fp[rc[live] + horizon], gp[sc[live] + horizon])
            back = _in_annulus(_images(regime, h[:, None], x[:1]),
                               compact_radius)[:, 0]
            first = np.full(rc.size, samples)
            first[live[back]] = 0
            later = live[~back]
            if later.size and samples > 1:
                inside = _in_annulus(_images(regime, h[~back, None], x[1:]),
                                     compact_radius)
                first[later] = np.where(inside.any(axis=1),
                                        1 + inside.argmax(axis=1), samples)
            # in loop order, a word that cannot be read raises, and so does
            # a word that meets a sample not `fine` before its first return
            refused = unread[c:c + block] | (first > limit)
            if refused.any():
                k = np.argmax(refused)
                if unread[c + k]:
                    _overflow()
                _check("properness_probe", regime, fine, x, "xi%d")
            hit = first < samples
            words += zip(rc[hit].tolist(), sc[hit].tolist())
            returns += first[hit].tolist()
    pts = {k: PointV(x[k].tolist()) for k in set(returns)}
    return PropernessReport(horizon, compact_radius, samples, seed, tuple(
        zip(words, map(pts.__getitem__, returns))))
