"""Reference searches for multiplicative relations, used as test oracles.

`exhaustive_resonances` and `no_clash_window` try every exponent of the
window, one at a time, with the scalar residual `_power_residual`.  They
are slow and independent of the screens in
`lvmkit.resonance.find_resonances` and
`lvmkit.family_gluing._no_clash_window`, which the tests compare against
them.  `box_screen` and `window_screen` apply the log screen to the whole
box or window at once; the slab search `lvmkit.resonance._screened`
must pass exactly the exponents they pass.
"""

import numpy as np

from lvmkit.resonance import (DEFAULT_BOUND, DEFAULT_TOL, Resonance,
                              _is_resonance, _log_screen, _power_residual)


def exhaustive_resonances(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND):
    """Try every exponent in the box."""
    found = []
    for j in (1, 2, 3):
        for p1 in range(-bound, bound + 1):
            for p2 in range(0, bound + 1):
                for p3 in range(0, bound + 1):
                    ok, _ = _is_resonance(h, j, (p1, p2, p3), tol)
                    if ok:
                        found.append(Resonance(j, (p1, p2, p3)))
    return sorted(found, key=lambda r: (r.j, r.p))


def no_clash_window(a1, a2, a3, bound, tol, excluded=None):
    """True iff a3 != a1^r a2^s for every (r, s) in the window, s >= 1."""
    for r in range(-bound, bound + 1):
        for s in range(1, bound + 1):
            if excluded is not None and (r, s) == excluded:
                continue
            if _power_residual((a1, a2), a3, (r, s)) <= tol:
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
