"""
Random search over strength variance
====================================

A simpler knob than rewiring: draw K candidate initializations of a layer
and keep the one with the smallest (or largest) strength variance. The
selection shifts the variance distribution without touching the weight
distribution's shape, useful as a baseline for how much of the rewiring
effect comes from variance alone.
"""

import numpy as np

from strength_init import initializers
from strength_init.initializers import InitSpec
from strength_init.rewiring import variance_search
from strength_init.rng import derive_stream
from strength_init.strength import strengths

spec = InitSpec("kaiming-normal", 800, 500)
K = 20
reps = 30

plain, vmin, vmax = [], [], []
for rep in range(reps):
    plain.append(strengths(initializers.init(spec, derive_stream(1, 0, rep)), "input").var())
    vmin.append(strengths(variance_search(spec, K, "min", derive_stream(2, 0, rep)), "input").var())
    vmax.append(strengths(variance_search(spec, K, "max", derive_stream(3, 0, rep)), "input").var())

print(f"input-side strength variance over {reps} repetitions (K = {K}):")
print(f"  unselected baseline: {np.mean(plain):8.4f} ± {np.std(plain):.4f}")
print(f"  min-variance search: {np.mean(vmin):8.4f} ± {np.std(vmin):.4f}")
print(f"  max-variance search: {np.mean(vmax):8.4f} ± {np.std(vmax):.4f}")
