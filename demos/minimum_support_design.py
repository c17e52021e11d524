"""Solving the design problem: smallest support meeting a defect target.

Usage: python demos/minimum_support_design.py

Distortion grows with the support size, so among all sizes meeting the
privacy target the smallest one is distortion-optimal.  The search scans
odd sizes with the exact defect; `sufficient_support`, the sizes the tail
bound certifies (from a least size up, for either family), gives fast
conservative starting points, and the clean-regime report shows why the
Laplace size is conservative.
"""

from sparseldp import (
    Kernel,
    clean_bound,
    min_feasible_support,
    sufficient_support,
)

print("Laplace lam=0.5, eps=1, range=3: minimum support per target")
print(f"{'delta':>7} {'s*':>5} {'achieved':>9} {'r1':>8} {'r2':>8}")
for delta in (0.7, 0.5, 0.35, 0.3, 0.26, 0.1):
    res = min_feasible_support(Kernel.laplace(0.5), 1.0, delta, 3)
    if res.feasible:
        print(
            f"{delta:>7} {res.s_chosen:>5} {res.achieved_delta_star:>9.4f}"
            f" {res.moments.r1:>8.4f} {res.moments.r2:>8.4f}"
        )
    else:
        print(f"{delta:>7}  infeasible up to s={res.s_scanned_max}")
print("tighter targets cost support size, and support size costs distortion;")
print("with lam*range > eps the overlap excess never vanishes, so targets below")
print("its large-s plateau (about 0.245 here) are unreachable at any size.")

# conservative closed form vs exact scan, in the regime where only leakage matters
lam, eps, rng_h, delta = 1.0 / 3.0, 1.0, 3, 0.05
s_formula, _ = sufficient_support(Kernel.laplace(lam), eps, delta, rng_h)
s_exact = min_feasible_support(Kernel.laplace(lam), eps, delta, rng_h).s_chosen
print(f"\nlam=eps/range, delta={delta}: sufficient-size formula gives s={s_formula},")
print(f"the exact scan needs only s={s_exact}; the formula is a safe overestimate.")
for s in (s_exact, s_formula):
    rep = clean_bound(Kernel.laplace(lam), s, eps, rng_h)
    print(f"  s={s}: exact leakage {rep.exact_leakage_delta:.4f}, tail bound {rep.upper_bound:.3f}")
print("the formula sizes the tail bound range * W(t - range + 1), about eight times")
print("the exact leakage here, so it reaches delta only at a larger size.")

# Gaussian: certified window vs exact scan, plus a genuinely infeasible target
window = sufficient_support(Kernel.gaussian(1.0), 4.0, 0.4, 2)
res = min_feasible_support(Kernel.gaussian(1.0), 4.0, 0.4, 2)
print(f"\nGaussian sigma=1, eps=4, range=2, delta=0.4: certified window {window},")
print(f"exact minimum s={res.s_chosen} (delta*={res.achieved_delta_star:.4f})")

res = min_feasible_support(Kernel.gaussian(2.0), 1.0, 0.30, 3, s_max=15)
print(f"\nGaussian sigma=2, eps=1, range=3, delta=0.30, scan to s=15: feasible={res.feasible}")
print("the defect plateaus near 0.319 here, so no support size rescues this target;")
print("loosen delta, raise eps, or retune sigma instead of growing s.")
