"""Developing maps for (G, V)-structures near the canonical one.

The cover is C x (C^2 \\ {0}) with coordinate w = (w1, xi2, xi3); the
canonical developing map is Dev0(w) = (e^{2 i pi w1}, xi2, xi3).  Each
regime carries an explicit deformation of Dev0 driven by the third
holonomy generator C, and the deck action of Z^3 on the cover is:

* generator 3: w1 -> w1 + 1, (xi2, xi3) fixed;
* generators 1, 2: w1 -> w1 + s_i together with the fiber part of the
  projected generator (the i-th output of the psi_* projection) acting on
  (xi2, xi3), with xi1 read as e^{2 i pi w1}.

This convention is the single source of truth used by every equivariance
check in the package: Dev(deck_i(w)) = rho(e_i) . Dev(w) with rho the
*input* rank-3 representation.  The check evaluates each side once for
all sample points and generators, stacked generator by generator
(``deck_transform_many``, ``dev_eval_many``), in numpy's arithmetic, and
refuses a point from the rows it computed, as one generator at a time.
"""

from dataclasses import dataclass

import numpy as np

from .holonomy import TWO_PI_I
from .rep_variety import (StructureSpec, _principal_c, psi_case,
                          psi_nonresonant, psi_resonant)
from .resonant_group import (_expm2, _points_ok, _power, _to_point,
                             apply_many, group_log, identity, replay)

# cover points per array block, which bounds the memory a large sample
# count takes
_BLOCK = 4096


@dataclass(frozen=True)
class DevMap:
    regime: object
    case: str  # "canonical-form" | "affine" | "generic" | "degenerate"
    params: tuple


@dataclass(frozen=True)
class DevStructure:
    """Everything needed to evaluate and verify one structure: the input
    triple, the projected pair, the deck shifts and the developing map."""
    spec: StructureSpec
    output_pair: tuple
    shifts: tuple
    dev: DevMap
    tail: tuple = None


def build_structure(spec):
    regime = spec.regime
    if regime.tag == "NonResonant":
        pair, tail, shifts = psi_nonresonant(spec)
        c = tuple(_principal_c(g) for g in spec.generators[2].data)
        dev = DevMap(regime, "canonical-form", c)
        return DevStructure(spec, pair, shifts, dev, tail)
    pair, shifts = psi_resonant(spec)
    case = psi_case(spec)
    if case == "affine":
        x = group_log(spec.generators[2])
        dev = DevMap(regime, "affine", (x,))
    else:
        gamma, c1, c4, c3 = spec.generators[2].data
        dev = DevMap(regime, case, (gamma, c1, c4, c3))
    return DevStructure(spec, pair, shifts, dev, None)


def dev_eval(d, w):
    w = np.array([complex(c) for c in w])
    return _to_point(dev_eval_many(d, w[None])[0])


def dev_eval_many(d, w):
    """The developing map at the cover points w (N, 3): points (N, 3) of V."""
    w1, xi2, xi3 = w.T
    if not ((xi2 != 0) | (xi3 != 0)).all():
        raise ValueError("(xi2, xi3) must not both vanish")
    if d.case == "affine":
        x1, k = d.params[0].data
        regime = d.regime
        a1 = np.exp(w1 * x1)
        n = _expm2(w1[:, None, None] * np.asarray(k))
        lp = np.zeros((len(a1), 2, 2), dtype=complex)  # diag(1, a1^p)
        lp[:, 0, 0] = 1
        lp[:, 1, 1] = _power(a1, regime.p, "developing map", "a1")
        h = np.concatenate([a1[:, None], (lp @ n).reshape(-1, 4)], axis=1)
        return apply_many(regime, h, np.stack(
            [np.exp(TWO_PI_I * w1), xi2, xi3], axis=1))
    if d.case == "canonical-form":
        t = TWO_PI_I * w1
        y = np.stack([np.exp(t * (1 + d.params[0])),
                      np.exp(t * d.params[1]) * xi2,
                      np.exp(t * d.params[2]) * xi3], axis=1)
    else:
        gamma, c1, c4, c3 = d.params
        p, q = d.regime.p, d.regime.q
        lg, lc1, lc4 = np.log(gamma), np.log(c1), np.log(c4)
        xq = _power(xi2, q, "developing map", "xi2")
        if d.case == "generic":
            kappa = c3 / (gamma ** p * c1 ** q - c4)
            third = (np.exp(w1 * lc4) * xi3 + kappa * np.exp(p * (TWO_PI_I + lg)
                     * w1) * np.exp(q * w1 * lc1) * xq)
        else:  # degenerate: c4 = gamma^p c1^q
            shear = c3 / c4 * w1 * np.exp(TWO_PI_I * p * w1) * xq
            third = np.exp(w1 * lc4) * (xi3 + shear)
        y = np.stack([np.exp((TWO_PI_I + lg) * w1),
                      np.exp(w1 * lc1) * xi2, third], axis=1)
    replay((_points_ok(y), _to_point, y))
    return y


def deck_transform(structure, index, w):
    """Image of w under the deck generator with the given index (1..3)."""
    w = np.array([[complex(c) for c in w]])
    return tuple(map(complex, deck_transform_many(structure, (index,), w)[0, 0]))


def deck_transform_many(structure, indices, w):
    """Images (G, N, 3) of the cover points w (N, 3) under the deck
    generators with the given indices (1..3), stacked in their order."""
    if not set(indices) <= {1, 2, 3}:
        raise ValueError("generator index must be 1, 2 or 3")
    regime = structure.spec.regime
    out = np.repeat(w[None], len(indices), axis=0)
    out[:, :, 0] += [[structure.shifts[i - 1] if i < 3 else 1] for i in indices]
    moving = [k for k, i in enumerate(indices) if i < 3]
    if moving:
        h = np.stack([structure.output_pair[indices[k] - 1].params()
                      for k in moving])[:, None]
        x = np.stack([np.exp(TWO_PI_I * w[:, 0]), w[:, 1], w[:, 2]], axis=1)
        out[moving, :, 1:] = apply_many(regime, h, x)[..., 1:]
    return out


def equivariance_residual(structure, index, w):
    """Relative size of Dev(deck_index(w)) - rho(e_index) . Dev(w)."""
    w = np.array([complex(c) for c in w])[None]
    return float(_residuals(structure, (index,), w, dev_eval_many(
        structure.dev, w))[0, 0])


def _residuals(structure, indices, w, base):
    """equivariance_residual (G, N) at the cover points w (N, 3), whose
    images under the developing map are base, of the generators with the
    given indices, each stage run once over all of them stacked."""
    lhs = dev_eval_many(structure.dev, deck_transform_many(
        structure, indices, w).reshape(-1, 3)).reshape(len(indices), -1, 3)
    gens = np.stack([structure.spec.generators[index - 1].params()
                     for index in indices])[:, None]
    rhs = apply_many(structure.spec.regime, gens, base)
    return np.max(np.abs(lhs - rhs), axis=2) / (1 + np.max(np.abs(rhs), axis=2))


def sample_cover_points(rng, samples):
    """Seeded cover points (N, 3): w1 uniform in the square |Re|, |Im| <= 1
    and (xi2, xi3) of a uniform modulus in [0.5, 2] and a normal direction.
    The arrays are drawn for all points at once; a draw whose direction
    is shorter than 1e-6 is dropped and drawn again in the next batch."""
    w = np.empty((0, 3), dtype=complex)
    while len(w) < samples:
        n = samples - len(w)
        corner = rng.uniform(-1, 1, size=(n, 2))
        vec = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        modulus = rng.uniform(0.5, 2, size=(n, 1))
        norm = np.linalg.norm(vec, axis=1, keepdims=True)
        keep = norm[:, 0] >= 1e-6
        w = np.concatenate([w, np.column_stack(
            [corner[:, 0] + 1j * corner[:, 1], vec / norm * modulus])[keep]])
    return w


@dataclass(frozen=True)
class StructureReport:
    passed: bool
    max_residual: float
    mean_residual: float
    per_generator: tuple
    complete: bool
    seed: int
    samples: int


def check_structure(spec, samples=100, tol=1e-9, seed=0):
    """Sampled equivariance verification of the structure carried by spec.

    Deterministic for a fixed seed.  The structure is flagged complete
    (uniformizable) exactly when the third generator is the identity.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    structure = build_structure(spec)
    rng = np.random.default_rng(seed)
    res = []
    for start in range(0, samples, _BLOCK):
        w = sample_cover_points(rng, min(_BLOCK, samples - start))
        base = dev_eval_many(structure.dev, w)
        try:
            res.append(_residuals(structure, (1, 2, 3), w, base))
        except (ValueError, ArithmeticError):  # refuse in generator order
            res.append(np.concatenate([_residuals(structure, (index,), w, base)
                                       for index in (1, 2, 3)]))
    per_gen = [(index, float(r.max()), float(np.mean(r)))
               for index, r in zip((1, 2, 3), np.concatenate(res, axis=1))]
    max_res = max(m for _, m, _ in per_gen)
    mean_res = float(np.mean([a for _, _, a in per_gen]))
    complete = np.max(np.abs(spec.generators[2].params()
                             - identity(spec.regime).params())) < 1e-12
    return StructureReport(max_res <= tol, max_res, mean_res,
                           tuple(per_gen), bool(complete), seed, samples)
