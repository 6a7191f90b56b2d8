"""The developing-map check one generator at a time, used as a test oracle.

`lvmkit.developing.check_structure` runs each stage (deck transform,
developing map, group action) once over all three generators stacked.
This is the loop it replaced: for each generator in turn, its deck
transform, the developing map at the images and the generator's action
on the base images, each its own array call.  Both compute in numpy's
array arithmetic, so the reports must agree to the bit, and a structure
that one of them refuses must raise the same error in both: the first
refusal in this loop's order, up to the row a law's message names (the
library applies a generator to a (1, N) stack, this loop to N rows).
"""

import numpy as np

from lvmkit import cli, developing
from lvmkit.developing import (StructureReport, dev_eval_many,
                               sample_cover_points)
from lvmkit.holonomy import TWO_PI_I
from lvmkit.rep_variety import StructureSpec
from lvmkit.resonance import ResonanceClass
from lvmkit.resonant_group import GroupElement, apply_many, identity


def deck_transform_many(structure, index, w):
    """Images (N, 3) of the cover points w (N, 3) under one deck
    generator."""
    w1, xi2, xi3 = w.T
    if index == 3:
        return np.stack([w1 + 1, xi2, xi3], axis=1)
    if index not in (1, 2):
        raise ValueError("generator index must be 1, 2 or 3")
    gen = structure.output_pair[index - 1]
    s = structure.shifts[index - 1]
    y = apply_many(gen.regime, gen.params()[None],
                   np.stack([np.exp(TWO_PI_I * w1), xi2, xi3], axis=1))
    return np.stack([w1 + s, y[:, 1], y[:, 2]], axis=1)


def residuals(structure, index, w, base):
    """The equivariance residuals (N,) of one generator at the cover
    points w (N, 3), whose images under the developing map are base."""
    lhs = dev_eval_many(structure.dev, deck_transform_many(structure, index, w))
    gen = structure.spec.generators[index - 1]
    rhs = apply_many(gen.regime, gen.params()[None], base)
    return np.max(np.abs(lhs - rhs), axis=1) / (1 + np.max(np.abs(rhs), axis=1))


def check_structure(spec, samples=100, tol=1e-9, seed=0):
    """`check_structure` by `residuals`, one generator after another.  The
    structure is built by `developing.build_structure`, looked up when
    called, so that a test may replace it."""
    structure = developing.build_structure(spec)
    rng = np.random.default_rng(seed)
    res = []
    for start in range(0, samples, developing._BLOCK):
        w = sample_cover_points(rng, min(developing._BLOCK, samples - start))
        base = dev_eval_many(structure.dev, w)
        res.append([residuals(structure, index, w, base)
                    for index in (1, 2, 3)])
    per_gen = []
    for index, r in zip((1, 2, 3), np.concatenate(res, axis=1)):
        per_gen.append((index, float(r.max()), float(np.mean(r))))
    max_res = max(m for _, m, _ in per_gen)
    mean_res = float(np.mean([a for _, _, a in per_gen]))
    complete = np.max(np.abs(spec.generators[2].params()
                             - identity(spec.regime).params())) < 1e-12
    return StructureReport(max_res <= tol, max_res, mean_res,
                           tuple(per_gen), bool(complete), seed, samples)


def verify_specs(fault):
    """The structures of `cli._suite_developing`."""
    pair = cli.holonomy_pair(cli._E1)
    nr = ResonanceClass("NonResonant")
    s12 = ResonanceClass("Single", p=1, q=2)
    d1 = ResonanceClass("Double", p=1)

    def single(x1, x2, x3, shift=0.0):
        return GroupElement(s12, (x1, x2, x3, 0.4 * (x3 - x1 * x2 ** 2) + shift))
    return (
        StructureSpec((GroupElement(nr, pair.alpha), GroupElement(nr, pair.beta),
                       GroupElement(nr, (1 + 1e-3, 1 - 2e-3, 1 + 1e-3j))),
                      base_config=cli._E1),
        StructureSpec((single(2, 0.6, 0.5), single(1 + 1j, 0.5j, -0.3 + 0.2j),
                       single(1.01, 1.02, 0.97, 1e-9 if fault else 0.0))),
        StructureSpec((GroupElement(d1, (2 + 0.5j, np.diag([1.3, 0.7 - 0.2j]))),
                       GroupElement(d1, (0.8, np.diag([0.5j, 1.1]))),
                       GroupElement(d1, (1.02, np.diag([0.99, 1.03]))))),
    )
