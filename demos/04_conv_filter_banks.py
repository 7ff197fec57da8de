"""
Rewiring convolutional filter banks
===================================

A (w, h, z, o) filter bank is a bipartite layer too: the w*h*z filter
positions are the input neurons and the o filters the output neurons.
Reshaping to 2-D makes every matrix operation (strength analysis and
rewiring) apply unchanged, and the reshape is a bijection on entries.
"""

import numpy as np

from strength_init import initializers
from strength_init.initializers import InitSpec
from strength_init.matrix_io import conv_from_2d, conv_to_2d
from strength_init.rewiring import RewireConfig, pa_rewire_conv
from strength_init.rng import derive_stream
from strength_init.strength import strength_stats

w, h, z, o = 3, 3, 16, 32
stream = derive_stream(11, 0, 0)
flat = initializers.init(InitSpec("kaiming-normal", w * h * z, o), stream)
bank = conv_from_2d(flat, (w, h, z))
print(f"filter bank {bank.shape} -> matrix {conv_to_2d(bank).shape}")

base = strength_stats(conv_to_2d(bank), "input")
rewired = pa_rewire_conv(bank, RewireConfig(rng=stream))
after = strength_stats(conv_to_2d(rewired), "input")

print(f"strength variance: {base.variance:.4f} -> {after.variance:.4f}")
print(f"max |strength|:    {base.max_abs:.4f} -> {after.max_abs:.4f}")
print("filter-value multiset preserved:",
      np.array_equal(np.sort(bank, axis=None), np.sort(rewired, axis=None)))
print("shape preserved:", rewired.shape == bank.shape)
