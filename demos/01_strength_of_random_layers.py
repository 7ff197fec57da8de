"""
Strength distributions of randomly initialized layers
======================================================

A neuron's strength is the sum of its incident weights. Even when weights
are drawn from a tightly bounded distribution, strengths are sums of
n independent draws, so their spread grows with the layer and outlier
"hub" neurons appear in the tails. This script measures that, then shows
how preferential-attachment rewiring collapses the same weights' strength
distribution toward zero without changing a single weight value.
"""

import numpy as np

from strength_init import initializers, rewiring
from strength_init.initializers import InitSpec
from strength_init.rewiring import RewireConfig
from strength_init.rng import derive_stream
from strength_init.strength import strength_stats, strengths

n = 1024
print(f"layer size {n}x{n}, one seed per method\n")
print(f"{'method':18s} {'weight var':>12s} {'strength var':>13s} {'max|s| base':>12s} {'max|s| rewired':>15s}")

for method in ("kaiming-uniform", "kaiming-normal", "truncated-normal", "orthogonal"):
    stream = derive_stream(42, 0, 0)
    w = initializers.init(InitSpec(method, n, n), stream)
    base = strength_stats(w, "input")
    rewired = rewiring.pa_rewire(w, RewireConfig(rng=stream, passes="bidirectional"))
    after = strength_stats(rewired, "input")
    print(
        f"{method:18s} {w.var():12.6f} {base.variance:13.4f} "
        f"{base.max_abs:12.4f} {after.max_abs:15.4f}"
    )

print("\nthe weights themselves are untouched: same multiset before/after")
stream = derive_stream(42, 0, 0)
w = initializers.init(InitSpec("kaiming-uniform", n, n), stream)
r = rewiring.pa_rewire(w, RewireConfig(rng=stream))
print("multiset preserved:", np.array_equal(np.sort(w, axis=None), np.sort(r, axis=None)))
print("strength var ratio (rewired/base):",
      strengths(r, "input").var() / strengths(w, "input").var())
