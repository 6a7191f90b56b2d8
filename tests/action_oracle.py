"""Reference searches over word windows, one word and one point at a time,
used as a test oracle.

This is the direct reading of the definitions: every power f^r, every
word f^r g^s and every image is built with the scalar `compose` and
`apply`, one `GroupElement` at a time.
It is slow and independent of the array evaluation in `lvmkit.action`,
which the tests compare against it.
"""

import numpy as np

from lvmkit.action import (ActionCertificate, PropernessReport,
                           _fixed_point_witness)
from lvmkit.resonant_group import PointV, apply, compose, identity, inverse


def oracle_powers(f, bound):
    """f^r for r in [-bound, bound], by iterated composition."""
    out = {0: identity(f.regime)}
    finv = inverse(f)
    for r in range(1, bound + 1):
        out[r] = compose(out[r - 1], f)
        out[-r] = compose(out[-(r - 1)], finv)
    return out


def oracle_certificate(pair, window, tol):
    """Search the window |r|, |s| <= window for a fixed point of f^r g^s."""
    f, g = pair
    fp = oracle_powers(f, window)
    gp = oracle_powers(g, window)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(-window, window + 1):
            for s in range(-window, window + 1):
                if r == 0 and s == 0:
                    continue
                w = _fixed_point_witness(compose(fp[r], gp[s]), tol)
                if w is not None:
                    return ActionCertificate(window, False, ((r, s), w))
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
    first sample whose image lands in the annulus again."""
    f, g = pair
    pts = oracle_samples(compact_radius, samples, seed)
    fp = oracle_powers(f, horizon)
    gp = oracle_powers(g, horizon)
    lo = (horizon + 1) // 2
    violations = []
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(-horizon, horizon + 1):
            for s in range(-horizon, horizon + 1):
                if not lo <= max(abs(r), abs(s)) <= horizon:
                    continue
                h = compose(fp[r], gp[s])
                for x in pts:
                    try:
                        y = apply(h, x)
                    except ValueError:
                        continue
                    if np.all(np.isfinite(y.array())) and \
                            _in_annulus(y.array(), compact_radius):
                        violations.append(((r, s), x))
                        break
    return PropernessReport(horizon, compact_radius, samples, seed,
                            tuple(violations))
