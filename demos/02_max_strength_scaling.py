"""
Hub growth with layer size
==========================

Initializers scale their sampling interval with layer size, yet the
maximum absolute strength keeps growing as layers get wider: the tails of
a sum of n random variables widen with n. Rewiring suppresses the maximum
at every size. This reproduces the size sweep as a small table (writes
max_strength_scaling.csv next to this script).
"""

from pathlib import Path

from strength_init import derive_stream, max_strength_scaling
from strength_init.rewiring import sweep_rows_to_csv

rows = max_strength_scaling(
    "kaiming-uniform",
    sizes=[64, 128, 256, 512, 1024],
    trials=30,
    rng=derive_stream(7, 0, 0),
)

print(f"{'size':>6s} {'base mean':>10s} {'base std':>9s} {'rewired mean':>13s} {'rewired std':>12s}")
for r in rows:
    print(f"{r.size:6d} {r.base_mean:10.4f} {r.base_std:9.4f} {r.rewired_mean:13.4f} {r.rewired_std:12.4f}")

out = Path("max_strength_scaling.csv")
out.write_text(sweep_rows_to_csv(rows))
print(f"\nwrote {out.resolve()}")
