"""Reference searches over word windows, one word and one point at a time,
used as a test oracle.

This is the direct reading of the definitions in the arithmetic the
searches share: every power f^r is the chain of `_compose_data` from
`_inverse_data`, not validated; every word f^r g^s is composed alone, as
one row of `compose_many`; every image is the `apply_many` of one word
and one point.  Each word is decided as its row reads.  The only
refusals are those of a word with a scalar coordinate that cannot be
read (a power beyond the float range times one below 1 in modulus), of
`_fixed_point_witness` and of a sample's power.  It is slow and has none
of the screens and blocks of `lvmkit.action`, which the tests compare
against it.
"""

import cmath

import numpy as np

from lvmkit.action import (ActionCertificate, PropernessReport,
                           _fixed_point_witness)
from lvmkit.resonant_group import (PointV, _compose_data, _inverse_data,
                                   apply_many, compose_many, identity, replay)


def oracle_powers(f, bound):
    """The parameter rows of f^r for r in [-bound, bound], keyed by r, by
    iterated `_compose_data`."""
    data = {0: identity(f.regime).data}
    finv = _inverse_data(f.regime, f.data)
    for r in range(1, bound + 1):
        data[r] = _compose_data(f.regime, data[r - 1], f.data)
        data[-r] = _compose_data(f.regime, data[-(r - 1)], finv)
    return {r: np.concatenate([np.ravel(d) for d in v], dtype=complex)
            for r, v in data.items()}


def _unread(a, b, coords):
    """Whether a scalar coordinate of the word with factor rows a, b cannot
    be read: one factor's entry is not finite and the other's has modulus
    below 1, so their product may be any number."""
    return any(not cmath.isfinite(a[k]) and abs(b[k]) < 1
               or abs(a[k]) < 1 and not cmath.isfinite(b[k])
               for k in range(coords))


def _overflow():
    raise OverflowError("result leaves the float range")


def _words(pair, bound):
    """The words (r, s), |r|, |s| <= bound, in loop order, each with its
    factor rows and its row composed alone."""
    f, g = pair
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    fp, gp = oracle_powers(f, bound), oracle_powers(g, bound)
    for r in range(-bound, bound + 1):
        for s in range(-bound, bound + 1):
            h = compose_many(f.regime, fp[r][None], gp[s][None])[0]
            yield (r, s), fp[r], gp[s], h[0]


def oracle_certificate(pair, window, tol):
    """Search the window |r|, |s| <= window for a fixed point of f^r g^s."""
    with np.errstate(all="ignore"):
        for word, a, b, h in _words(pair, window):
            if word == (0, 0):
                continue
            if _unread(a, b, 1):
                _overflow()
            w = _fixed_point_witness(pair[0].regime, h, tol)
            if w is not None:
                return ActionCertificate(window, False, (word, w))
    return ActionCertificate(window, True)


def _in_annulus(xi, radius):
    inner = 1 / radius
    m1 = abs(xi[0])
    m23 = np.hypot(abs(xi[1]), abs(xi[2]))
    return inner <= m1 <= radius and inner <= m23 <= radius


def oracle_samples(compact_radius, samples, seed):
    """The seeded sample points of the annulus that the probe starts from."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(samples):
        m1 = 10 ** rng.uniform(-np.log10(compact_radius),
                               np.log10(compact_radius))
        m23 = 10 ** rng.uniform(-np.log10(compact_radius),
                                np.log10(compact_radius))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v *= m23 / np.linalg.norm(v)
        pts.append(PointV((m1 * np.exp(2j * np.pi * rng.uniform()),
                           v[0], v[1])))
    return pts


def oracle_probe(pair, compact_radius, horizon, samples, seed):
    """Apply every word of the band horizon/2 <= max(|r|, |s|) <= horizon
    to seeded sample points of the annulus, and report for each word the
    first sample whose image lands in the annulus again.  A word is
    refused where one of its diagonal multipliers cannot be read, an image
    where `apply_many` refuses a power of its point."""
    pts = oracle_samples(compact_radius, samples, seed)
    lo = (horizon + 1) // 2
    diagonal = 1 if pair[0].regime.tag == "Double" else 3
    violations = []
    with np.errstate(all="ignore"):
        for word, a, b, h in _words(pair, horizon):
            if max(map(abs, word)) < lo:
                continue
            if _unread(a, b, diagonal):
                _overflow()
            for x in pts:
                y, checks = apply_many(pair[0].regime, h, x.array())
                replay(*checks[1:-2])  # the powers of the point alone
                if np.isfinite(y).all() and _in_annulus(y, compact_radius):
                    violations.append((word, x))
                    break
    return PropernessReport(horizon, compact_radius, samples, seed,
                            tuple(violations))
