"""Holonomy eigen-data of a certified (2, 6, 4) configuration.

The deck transformations of the universal cover of the associated
threefold act through six complex multipliers, packaged here as a pair of
triples (alpha, beta).  They are computed by a bilinear pairing of the
configuration tail against the inverse of the 2x2 difference matrix Omega
followed by exp(2*i*pi * .).
"""

from dataclasses import dataclass

import numpy as np

from .resonant_group import _inverse2, _invertible

TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class HolonomyPair:
    """Eigen-data (alpha_1..3, beta_1..3), of a configuration or
    hand-picked."""
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        a = tuple(complex(x) for x in self.alpha)
        b = tuple(complex(x) for x in self.beta)
        if len(a) != 3 or len(b) != 3:
            raise ValueError("alpha and beta must each have three entries")
        if any(x == 0 for x in a + b):
            raise ValueError("eigen-data entries must be nonzero")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def flat(self):
        """Interchange order: alpha1..3 then beta1..3 as [re, im] pairs."""
        return [[z.real, z.imag] for z in self.alpha + self.beta]


def pair_from_flat(values):
    """Inverse of HolonomyPair.flat for synthetic eigen-data."""
    zs = [complex(re, im) for re, im in values]
    if len(zs) != 6:
        raise ValueError("expected six [re, im] pairs")
    if not np.all(np.isfinite(zs)):
        raise ValueError("eigen-data entries must be finite")
    return HolonomyPair(tuple(zs[:3]), tuple(zs[3:]))


def omega_matrix(config):
    """Matrix with rows Lambda_2 - Lambda_1 and Lambda_3 - Lambda_1.

    The caller is expected to have certified the configuration (type
    (2, 6, 4)); certification is not repeated here because the pairing is
    invariant under affine maps that certification itself is not.
    """
    v = [np.asarray(w, dtype=complex) for w in config.vectors]
    if len(v) != 6 or config.m != 2:
        raise ValueError("expected six vectors in C^2")
    omega = np.array([v[1] - v[0], v[2] - v[0]])
    if not _invertible(omega[None])[0]:
        # certification is exact, but the differences are rounded: vectors
        # of widely different scales can make them parallel
        raise ValueError("difference matrix Omega rounds to singular")
    return omega


def pairings(config):
    """(Omega, u, w): the complex bilinear pairings u_j = d_j^T Omega^{-1} e_1
    and w_j = d_j^T Omega^{-1} e_2 of the tail differences
    d_j = Lambda_{j+3} - Lambda_1, j = 1, 2, 3."""
    omega = omega_matrix(config)
    v = [np.asarray(w, dtype=complex) for w in config.vectors]
    inv = _inverse2(omega[None])[0]
    d = [v[j + 3] - v[0] for j in range(3)]
    return (omega, np.array([x @ inv[:, 0] for x in d]),
            np.array([x @ inv[:, 1] for x in d]))


def holonomy_pair(config):
    return _pair_from_pairings(*pairings(config)[1:])


def _pair_from_pairings(u, w):
    """The validated `HolonomyPair` of the pairings (u, w)."""
    with np.errstate(all="ignore"):
        alpha, beta = ([np.exp(TWO_PI_I * x) for x in z] for z in (u, w))
    if not all(np.isfinite(alpha + beta)) or 0 in alpha + beta:
        raise ValueError("holonomy multipliers leave the float range")
    pair = HolonomyPair(tuple(alpha), tuple(beta))
    violations = validate_holonomy(pair)
    if violations:
        raise ValueError("eigen-data violates structural constraints: %s"
                         % "; ".join(violations))
    return pair


def validate_holonomy(h):
    """Return the list of violated structural constraints (empty = OK).

    Multipliers count as on the unit circle, and as equal, within 1e-12
    of their modulus."""
    def same(x, y):
        return abs(x - y) <= 1e-12 * max(abs(x), abs(y))
    violations = []
    for j in range(3):
        if abs(abs(h.alpha[j]) - 1) < 1e-12 and abs(abs(h.beta[j]) - 1) < 1e-12:
            violations.append(
                "component %d has both multipliers on the unit circle" % (j + 1))
    for j in (1, 2):
        if same(h.alpha[0], h.alpha[j]) and same(h.beta[0], h.beta[j]):
            violations.append(
                "components 1 and %d have identical multiplier pairs" % (j + 1))
    return violations
