"""Reference searches over word windows, one word and one point at a time,
used as a test oracle.

This is the direct reading of the definitions: every power f^r is the
chain of `law_reference.chain_powers` in Python's complex arithmetic,
not validated and independent of the searches' `power_many`; every word
f^r g^s is composed alone, as one row of `compose_many` unchecked
(`_compose_rows`); every image is that of `apply_many` of one word and
one point unchecked (`_images`).  Each word is decided as its row reads.
The only refusals are those of a word with a scalar coordinate that
cannot be read (a power beyond the float range times one below 1 in
modulus), of `_fixed_point_witness` and of a sample's power xi1^-p or
xi1^p of the Double regime's tau, as Python's power refuses it.  It is
slow and has none of the screens and blocks of `lvmkit.action`, which
the tests compare against it; where the two arithmetics of the powers
differ, the tests compare within a margin derived from the products
they take.
"""

import cmath

import numpy as np

import law_reference as ref
from lvmkit.action import (ActionCertificate, PropernessReport,
                           _fixed_point_witness)
from lvmkit.resonant_group import PointV, _compose_rows, _images


def oracle_powers(f, bound):
    """The parameter rows of f^r for r in [-bound, bound], keyed by r, by
    the reference chain of `law_reference`."""
    return ref.chain_powers(f, bound)


def _unread(a, b, coords):
    """Whether a scalar coordinate of the word with factor rows a, b cannot
    be read: one factor's entry is not finite and the other's has modulus
    below 1, so their product may be any number."""
    return any(not cmath.isfinite(a[k]) and abs(b[k]) < 1
               or abs(a[k]) < 1 and not cmath.isfinite(b[k])
               for k in range(coords))


def _overflow():
    raise OverflowError("result leaves the float range")


def _tau_powers(regime, x):
    """Refuse a point x whose powers xi1^-p and xi1^p, which the Double
    regime's tau takes, Python's power refuses or returns not finite."""
    if regime.tag == "Double":
        for n in (-regime.p, regime.p):
            if not cmath.isfinite(x.xi[0] ** n):
                _overflow()


def _words(pair, bound):
    """The words (r, s), |r|, |s| <= bound, in loop order, each with its
    factor rows and its row composed alone."""
    f, g = pair
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    fp, gp = oracle_powers(f, bound), oracle_powers(g, bound)
    for r in range(-bound, bound + 1):
        for s in range(-bound, bound + 1):
            h = _compose_rows(f.regime, fp[r][None], gp[s][None])
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
    """The seeded sample points of the annulus that the probe starts from,
    drawn as the probe draws them, in one batch: the moduli of xi1 and of
    (xi2, xi3) of every sample, then the real and the imaginary parts of
    every direction of (xi2, xi3), then every phase of xi1."""
    rng = np.random.default_rng(seed)
    m1, m23 = compact_radius ** rng.uniform(-1, 1, size=(2, samples))
    v = rng.normal(size=(samples, 2)) + 1j * rng.normal(size=(samples, 2))
    v = v / np.linalg.norm(v, axis=1)[:, None] * m23[:, None]
    xi1 = m1 * np.exp(2j * np.pi * rng.uniform(size=samples))
    return [PointV((xi1[n], v[n, 0], v[n, 1])) for n in range(samples)]


def oracle_probe(pair, compact_radius, horizon, samples, seed):
    """Apply every word of the band horizon/2 <= max(|r|, |s|) <= horizon
    to seeded sample points of the annulus, and report for each word the
    first sample whose image lands in the annulus again.  A word is
    refused where one of its diagonal multipliers cannot be read, an image
    where a power of its point that tau takes is no float (`_tau_powers`)."""
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
                _tau_powers(pair[0].regime, x)
                y = _images(pair[0].regime, h, x.array())
                if np.isfinite(y).all() and _in_annulus(y, compact_radius):
                    violations.append((word, x))
                    break
    return PropernessReport(horizon, compact_radius, samples, seed,
                            tuple(violations))
