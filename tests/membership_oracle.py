"""Chart membership as two clause pipelines, used as a test oracle.

`check_condition` runs one pipeline for T and T_pq points and another for
S_p points, each ending in its own eigen-admissibility, no-extra-resonance
and sharp clauses; its no-extra-resonance clause screens the whole window
at once with `window_screen`.  `lvmkit.family_gluing.check_condition`
must return the same report, or raise the same exception, on every point.
"""

import numpy as np

from lvmkit.family_gluing import (MEMBERSHIP_TOL, MembershipReport,
                                  _eigen_admissible, _paired_eigendata,
                                  _shape_checks)
from lvmkit.rep_variety import variety_residual
from lvmkit.resonance import DEFAULT_BOUND, ResonanceClass
from lvmkit.resonant_group import GroupElement
from resonance_oracle import power_residual, window_screen


def charts_ok(space, amat, bmat):
    """Rows that pass the shape checks of `FamilyPoint`."""
    return np.logical_and.reduce(
        [c[0] for c in _shape_checks(space, amat, bmat)])


def no_clash_screened(a1, a2, a3, bound, tol, excluded=None):
    """True iff no word of the window passes `window_screen` and then the
    scalar residual, the excluded word aside."""
    for word in sorted(window_screen(a1, a2, a3, bound, tol)):
        if word != excluded and power_residual((a1, a2), a3, word) <= tol:
            return False
    return True


def check_condition(point, config=None, sharp=False, tol=MEMBERSHIP_TOL,
                    bound=DEFAULT_BOUND):
    """Clause-by-clause membership verdicts for the point's chart."""
    a1, a2, a3, b1, b2, b3 = point.diagonals()
    clauses = []
    if point.space in ("T", "T_pq"):
        eps = point.amat[2, 1]
        delta = point.bmat[2, 1]
        scale = 1 + max(abs(v) for v in point.diagonals())
        clauses.append(("modulus-ordering", abs(a2) > abs(a3)))
        if point.space == "T":
            condition = "C"
            r = eps * (b3 - b2) - delta * (a3 - a2)
            excluded = None
        else:
            condition = "K_pq"
            p, q = point.p, point.q
            r = (eps * (b3 - b1 ** p * b2 ** q)
                 - delta * (a3 - a1 ** p * a2 ** q))
            excluded = (p, q)
        clauses.append(("shear-compatibility", abs(r) <= tol * scale))
        clauses.append(("eigen-admissibility",
                        _eigen_admissible(point.diagonals(), config, tol)))
        clauses.append(("no-extra-resonance",
                        no_clash_screened(a1, a2, a3, bound, tol, excluded)))
        if sharp:
            if point.space == "T":
                raise ValueError("the plain condition C has no sharp variant")
            condition = "K_pq^S"
            clauses.append(("resonant-alpha",
                            power_residual((a1, a2), a3, (p, q)) <= tol))
            clauses.append(("resonant-beta",
                            power_residual((b1, b2), b3, (p, q)) <= tol))
        return MembershipReport(condition, tuple(clauses), bound, tol)
    # S_p candidate
    condition = "C_p"
    p = point.p
    cls = ResonanceClass("Double", p=p)
    pair = (GroupElement(cls, (a1, point.blocks()[0])),
            GroupElement(cls, (b1, point.blocks()[1])))
    res = variety_residual(pair, cls)
    scale = 1 + max(np.max(np.abs(point.amat)), np.max(np.abs(point.bmat)))
    for name, value in res.equations:
        clauses.append((name, abs(value) <= tol * scale))
    data = tuple(complex(d[0]) for d in _paired_eigendata(
        point.amat[None], point.bmat[None], p))
    clauses.append(("eigen-admissibility", _eigen_admissible(data, config, tol)))
    clauses.append(("no-extra-resonance",
                    no_clash_screened(data[0], data[1], data[2], bound, tol,
                                      excluded=(p, 1))))
    if sharp:
        condition = "C_p^S"
        clauses.append(("resonant-alpha",
                        power_residual(data[:2], data[2], (p, 1)) <= tol))
        clauses.append(("resonant-beta",
                        power_residual(data[3:5], data[5], (p, 1)) <= tol))
    return MembershipReport(condition, tuple(clauses), bound, tol)
