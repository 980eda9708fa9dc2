"""Exact arithmetic in Q(sqrt(5)) and the places that see its elements.

Walks through: building field elements, conjugation/norm/trace, testing
integrality, enumerating the places above small primes, exact valuations
(including the half-integer one at a ramified place), and the product
formula holding to float roundoff.
"""

from fractions import Fraction

from eulerpade import (
    QuadraticField,
    arch_abs_normalized,
    normalized_abs_log,
    places_above,
    product_formula_defect,
    valuation,
)

K = QuadraticField(5)
phi = K(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt(5))/2
psi = phi.conjugate()

print("== the golden ratio and its conjugate ==")
print(f"phi = {phi}, psi = {psi}")
print(f"phi * psi = {phi * psi}   (the norm, an exact -1)")
print(f"trace(phi) = {phi.trace()}, norm(phi) = {phi.norm()}")
print(f"phi integral? {phi.is_algebraic_integer()}")
print(f"phi/3 integral? {(phi / 3).is_algebraic_integer()}")

print("\n== how small primes behave in Q(sqrt(5)) ==")
for p in (2, 3, 5, 11, 19):
    places = places_above(K, p)
    kinds = ", ".join(f"{v.splitting} (e={v.e}, f={v.f})" for v in places)
    print(f"p = {p:>2}: {kinds}")

print("\n== exact valuations, w_v(p) = 1 ==")
(ram5,) = places_above(K, 5)
print(f"w(sqrt(5)) at the ramified place over 5: {valuation(ram5, K.sqrt_gen())}")
v1, v2 = places_above(K, 11)
elem = K(48, -1)  # 48 - sqrt(5); 48^2 = 5 mod 121
print(f"w(48 - sqrt(5)) at split_1 / split_2 over 11: "
      f"{valuation(v1, elem)} / {valuation(v2, elem)}")
print(f"log-absolute-value coefficient of sqrt(5) at 5: "
      f"{normalized_abs_log(ram5, K.sqrt_gen())}  (||sqrt5|| = 5^(-1/2))")

print("\n== Archimedean side and the product formula ==")
for label, val in arch_abs_normalized(K, phi):
    print(f"||phi|| at {label}: {val:.6f}")
for x in (phi, K.sqrt_gen(), K(7, 3)):
    print(f"product-formula defect for {x}: {product_formula_defect(K, x):.2e}")
