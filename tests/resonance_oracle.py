"""Reference searches for multiplicative relations, one exponent at a
time, used as a test oracle.

Every exponent of the window is tried with the scalar residual
`_power_residual`.  The searches are slow and independent of the screens
in `lvmkit.resonance.find_resonances` and
`lvmkit.family_gluing._no_clash_window`, which the tests compare against
them.
"""

from lvmkit.resonance import (DEFAULT_BOUND, DEFAULT_TOL, Resonance,
                              _is_resonance, _power_residual)


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
