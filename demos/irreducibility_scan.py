"""Degree-by-degree irreducibility of the generalized conformal module.

For generic central charge the special conformal operators generate each
graded slice from the one below; at critical values the comparison map
degenerates and an explicit proper submodule appears.  The scan also exhibits
the engine's counterexample to the stated sharp classification at mu = 0:
the classical special conformal weight b = n-1 is reducible although it lies
outside -N.

Run:  python demos/irreducibility_scan.py
"""

from fractions import Fraction

from oconf import (
    ConformalModule,
    classify_b,
    critical_b_set,
    detect_submodule,
    parse_weight,
    surjectivity_scan,
    verify_submodule_closure,
    zero_weight,
)

mu = parse_weight("1,0", "D")
print("=" * 72)
print(f"D-series, n=2, mu = ({mu})")
cs = critical_b_set(mu)
print("excluded central charges: " + "  u  ".join(c.describe() for c in cs.components))
for b in [Fraction(1, 3), Fraction(5, 3), Fraction(1), Fraction(3)]:
    cls = classify_b(mu, b)
    r = surjectivity_scan(mu, b, 3)
    ranks = ", ".join(f"deg {rec.k}: {rec.rank}/{rec.dim}" for rec in r.records)
    print(f"  b = {str(b):>4}: {cls.describe():<34} scan: {ranks} -> {r.verdict}")

print()
print("=" * 72)
print("mu = 0 (both series, n = 2): the sharp classification, mechanically")
print("=" * 72)
for series in ["D", "B"]:
    mu0 = zero_weight(series, 2)
    for b in [Fraction(2), Fraction(0), Fraction(-1)]:
        w = detect_submodule(ConformalModule(mu0, b), 3)
        if w is None:
            print(f"  {series} b = {str(b):>4}: generated submodule exhausts every slice (depth 3)")
        else:
            dims = ", ".join(f"{r}/{d}" for r, d in w.dims.values())
            print(f"  {series} b = {str(b):>4}: PROPER submodule, graded dims {dims}")

print()
print("the counterexample: b = 1 = n-1 is NOT in -N, yet:")
w = detect_submodule(ConformalModule(zero_weight("D", 2), Fraction(1)), 3)
dims = ", ".join(f"deg {k}: {r}/{d}" for k, (r, d) in w.dims.items())
print(f"  U(J)(1 (x) v0) is proper: {dims}")
closure = verify_submodule_closure(w)
print(f"  closed under all 15 generators of o(6): {closure['ok']}")
print("  (the line C*eta at degree 2 is unreachable: J_i(x_j) = 2 x_i x_j - d_ij eta")
print("   spans only x1x3 - x2x4 among the partner products)")
print()
print("the same happens at b = 3/2 and b = 1/2 in the odd series (degrees 2 and 4).")
