"""Compute the winding number of a single prime geodesic five different ways.

Run with: python3 demos/one_geodesic.py
"""

from modwind import (
    Mat2,
    e2_period,
    matrix_to_word,
    psi,
    psi_cf,
    psi_cocycle,
    winding_index,
    word_to_matrix,
)

# the class named by the cyclic word (3, 7); its matrix is the product
# (3 1; 1 0)(7 1; 1 0)
word = (3, 7)
gamma = word_to_matrix(word)
print(f"word {word} -> matrix {gamma}")
print(f"recovered word: {matrix_to_word(gamma).entries}")

# exact integer routes
print(f"\npsi via Dedekind sums         : {psi(gamma)}")
print(f"psi via the T/S cocycle       : {psi_cocycle(gamma)}")
print(f"psi via the alternating sum   : {psi_cf(word)}")

# numerical routes: both track the discriminant form along one period of
# the geodesic axis and land on the same integer
res = winding_index(gamma)
print(f"\nwinding index                 : {res.index}")
print(f"  residual {res.residual:.2e} after {res.steps} steps")
period = e2_period(gamma)
print(f"Eisenstein period             : {period:+.9f}")

# orientation reversal flips the sign; the reversed word names the other
# orientation of the same unoriented geodesic
reverse = word_to_matrix(word[::-1])
print(f"\npsi of the reversed word {word[::-1]}: {psi(reverse)}")

# an inert class (doubled odd block) winds zero times
inert = Mat2(2, 1, 1, 1)
print(f"inert class {matrix_to_word(inert).entries} has psi = {psi(inert)}")
