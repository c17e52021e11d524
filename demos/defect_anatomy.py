"""Where the privacy defect comes from: leakage vs overlap excess.

Usage: python demos/defect_anatomy.py

For two inputs h apart, the defect decomposes into (a) support leakage, the
mass one input places on outputs the other cannot emit at all, and (b)
overlap excess, the positive part of the mass beyond e^eps times the
reference on shared outputs.  This script prints the split per separation,
then the Gaussian overlap terms one by one and how many of them are positive
as the radius grows.
"""

import math

from sparseldp import Kernel, separation_breakdown, window_weights

EPS = 1.0

print("Laplace lam=0.5, radius t=3 (s=7): per-separation split at eps=1")
print(f"{'h':>3} {'delta_h':>9} {'leakage':>9} {'overlap':>9}")
lap = Kernel.laplace(0.5)
for h in range(0, 8):
    b = separation_breakdown(lap, EPS, 3, h)
    print(f"{h:>3} {b.total:>9.4f} {b.support_leakage:>9.4f} {b.overlap_excess:>9.4f}")
print("h=7 exceeds twice the radius: the windows are disjoint and everything leaks.")

print("\nGaussian sigma=2, radius t=3: same split")
gau = Kernel.gaussian(2.0)
for h in range(0, 8):
    b = separation_breakdown(gau, EPS, 3, h)
    print(f"{h:>3} {b.total:>9.4f} {b.support_leakage:>9.4f} {b.overlap_excess:>9.4f}")

# The overlap excess at separation h sums the positive terms
# W(|k|) - e^eps W(|k - h|) over the shared offsets k = h - t..t.
h, t = 3, 3
w = window_weights(gau, t)  # unnormalized weights at offsets -t..t
print(f"\nGaussian overlap terms at h={h}, t={t} (unnormalized)")
print(f"{'k':>3} {'term':>10} {'positive':>9}")
for k in range(h - t, t + 1):
    term = w[k + t] - math.exp(EPS) * w[k - h + t]
    print(f"{k:>3} {term:>10.5f} {str(term > 0):>9}")

print(f"\nPositive overlap terms at h={h} as the radius grows")
print(f"{'t':>3} {'positive':>9} {'overlap':>9}")
for t in (2, 3, 4, 6, 10, 20):
    w = window_weights(gau, t)
    positive = int((w[h:] - math.exp(EPS) * w[: w.size - h] > 0).sum())
    print(f"{t:>3} {positive:>9} {separation_breakdown(gau, EPS, t, h).overlap_excess:>9.4f}")
print("A term is positive exactly when k < h/2 - sigma^2 eps / h, a cut that does")
print("not depend on the radius.  Each larger radius adds shared offsets below the")
print("cut, so the count of positive terms grows with it and the overlap excess")
print("settles at a positive level: the Gaussian family cannot push its defect")
print("arbitrarily low by enlarging the support.")
