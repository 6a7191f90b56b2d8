"""Reference searches for multiplicative relations, used as test oracles.

`power_residual` is the scalar power residual, one exponent at a time in
Python complex arithmetic, and `is_resonance` decides one exponent with
it; `lvmkit.resonance._power_residual`, over stacked exponents, must equal
it bit for bit.  `exhaustive_resonances` and `no_clash_window` try every
exponent of the window, one at a time, with it.  They are slow and
independent of the screens in
`lvmkit.resonance.find_resonances` and
`lvmkit.family_gluing._no_clash_window`, which the tests compare against
them.  `box_screen` and `window_screen` apply the log screen to the whole
box or window at once; the slab search `lvmkit.resonance._screened`
must pass exactly the exponents they pass.
"""

import numpy as np

from lvmkit.resonance import DEFAULT_BOUND, DEFAULT_TOL, Resonance, _log_screen


def power_residual(values, target, p):
    """|target * values^{-p} - 1| computed through logs to avoid overflow."""
    z = -np.log(complex(target))
    for v, e in zip(values, p):
        z += e * np.log(complex(v))
    # the residual of target = values^p is |exp(-z) - 1|
    if z.real < -60:  # exp would overflow; certainly not a resonance
        return np.inf
    return abs(np.expm1(-z) + 0j) if abs(z) < 1e-3 else abs(np.exp(-z) - 1)


def is_resonance(h, j, p, tol):
    """Whether (j, p) is a resonance of h, and the larger residual."""
    ra = power_residual(h.alpha, h.alpha[j - 1], p)
    rb = power_residual(h.beta, h.beta[j - 1], p)
    return max(ra, rb) <= tol, max(ra, rb)


def exhaustive_resonances(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND):
    """Try every exponent in the box."""
    found = []
    for j in (1, 2, 3):
        for p1 in range(-bound, bound + 1):
            for p2 in range(0, bound + 1):
                for p3 in range(0, bound + 1):
                    ok, _ = is_resonance(h, j, (p1, p2, p3), tol)
                    if ok:
                        found.append(Resonance(j, (p1, p2, p3)))
    return sorted(found, key=lambda r: (r.j, r.p))


def no_clash_window(a1, a2, a3, bound, tol, excluded=None):
    """True iff a3 != a1^r a2^s for every (r, s) in the window, s >= 1."""
    for r in range(-bound, bound + 1):
        for s in range(1, bound + 1):
            if excluded is not None and (r, s) == excluded:
                continue
            if power_residual((a1, a2), a3, (r, s)) <= tol:
                return False
    return True


def box_screen(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND):
    """The (j, p) of the whole box that pass the log screen for alpha and
    for beta, as a set."""
    p1s = np.arange(-bound, bound + 1)
    p2s = np.arange(0, bound + 1)
    p3s = np.arange(0, bound + 1)
    # vectorized log-residual over the whole box, one component at a time
    log_alpha = np.log(np.asarray(h.alpha, dtype=complex))
    log_beta = np.log(np.asarray(h.beta, dtype=complex))
    grid = (p1s[:, None, None] * 1.0, p2s[None, :, None] * 1.0,
            p3s[None, None, :] * 1.0)
    za = grid[0] * log_alpha[0] + grid[1] * log_alpha[1] + grid[2] * log_alpha[2]
    zb = grid[0] * log_beta[0] + grid[1] * log_beta[1] + grid[2] * log_beta[2]
    candidates = set()
    for j in (1, 2, 3):
        da = za - log_alpha[j - 1]
        db = zb - log_beta[j - 1]
        hits = np.argwhere(_log_screen(da, tol) & _log_screen(db, tol))
        for i1, i2, i3 in hits:
            candidates.add((j, (int(p1s[i1]), int(p2s[i2]), int(p3s[i3]))))
    return candidates


def window_screen(a1, a2, a3, bound, tol):
    """The words (r, s) of the window |r| <= bound, 1 <= s <= bound whose
    log-residual r log a1 + s log a2 - log a3 passes the log screen, as a
    set."""
    r = np.arange(-bound, bound + 1)[:, None]
    s = np.arange(1, bound + 1)[None, :]
    z = r * np.log(complex(a1)) + s * np.log(complex(a2)) - np.log(complex(a3))
    return {(int(r[i, 0]), int(s[0, k]))
            for i, k in np.argwhere(_log_screen(z, tol))}
