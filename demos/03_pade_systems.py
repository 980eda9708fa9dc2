"""Constructing explicit Pade systems and watching their guarantees hold.

The sigma coefficients of prod_j (alpha_j - w)^l annihilate the weighted
power sums with k < l; stacking those identities yields polynomials B_0,
B_j whose combination with the series F(alpha_j t) vanishes to order
(m+1)l + mu.  The (m+1) x (m+1) determinant over mu collapses to a single
monomial b t^e, which is what makes some mu usable for every linear form.
"""

from eulerpade import (
    pade_construct,
    pade_determinant,
    pade_order_check,
    select_mu,
    sigma_annihilation_check,
    sigma_coeffs,
)

print("== sigma coefficients and their annihilation property ==")
sv = sigma_coeffs([2, 1], [1, -2])
print(f"(1-w)^2 (-2-w) expands to sigma = {[str(c) for c in sv.coeffs]}")
for j, l_j in ((1, 2), (2, 1)):
    for k in range(l_j + 1):
        val = sigma_annihilation_check(sv, j, k)
        marker = "= 0" if not val else f"= {val}  (sharp: k = l_j)"
        print(f"  sum_i sigma_i i^{k} beta_{j}^i {marker}")

print("\n== a small system for m = 2 points ==")
system = pade_construct(2, 2, 1, [1, -1])
for i, poly in enumerate(system.B):
    print(f"B_{i}: coeffs (ascending) {[str(c) for c in poly.coeffs]}")
order = pade_order_check(system, system.order_target + 8)
print(f"remainder order: {order} (guaranteed >= {system.order_target})")
print(f"cleared remainder coefficients vanish on the band "
      f"{system.m * system.l + system.mu} <= n < {system.order_target}")

print("\n== the determinant collapses to one monomial ==")
for m, l, alphas in [(1, 1, [1]), (2, 1, [1, -1]), (2, 2, [2, 3])]:
    exponent, b, equal = pade_determinant(m, l, alphas)
    print(f"m={m} l={l} alpha={alphas}: det = ({b}) t^{exponent}, "
          f"leading minor == closed form: {equal}")

print("\n== picking mu for a concrete linear form ==")
mu, w = select_mu(2, [3, -1, 2], [1, -1])
print(f"lambda = (3, -1, 2) at alpha = (1, -1), l = 2: mu = {mu}, W = {w}")
print("W != 0 is exactly what the nonzero determinant guarantees.")
