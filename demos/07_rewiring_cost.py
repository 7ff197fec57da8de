"""
Cost of rewiring
================

One rewiring pass sorts each column and runs a weighted draw per output
neuron, so a square n-by-n layer costs O(n^2 log n): quasi-quadratic,
paid once at initialization. The probe times real layers and fits the
log-log slope.
"""

from strength_init.rewiring import fit_loglog_slope, rewire_cost_probe

table = rewire_cost_probe([128, 256, 512, 1024], reps=3)
print(f"{'n':>6s} {'seconds':>10s}")
for n, t in table:
    print(f"{n:6d} {t:10.4f}")
print(f"\nlog-log slope: {fit_loglog_slope(table):.2f} (n^2 log n predicts a bit above 2)")
