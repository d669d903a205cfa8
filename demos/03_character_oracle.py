"""The character oracle: multiplicities with no LR machinery at all.

Run:  python3 demos/03_character_oracle.py
"""

from branchkit import (
    GLLabel,
    branch_decompose,
    decompose_character,
    dim_irrep,
    duality_dim_check,
    irreducible_character,
    oracle_decomposition,
    restrict_character,
)
from branchkit.branching import RepLabel
from branchkit.characters import Sp, poly_eval_ones

print("Characters are exact Laurent polynomials on a maximal torus.")
chi = irreducible_character(Sp(2), (1, 1))
print("χ of the 5-dimensional Sp(4) module V(1,1):")
for e, c in sorted(chi.items(), reverse=True):
    print(f"   {c} · x^{e}")
print("value at x = (1,1):", poly_eval_ones(chi), "= its dimension")
print()

print("A branching multiplicity is: build χ of the big module, restrict")
print("the torus, decompose greedily into the subgroup's characters.")
print("V(1,0) ⊗ V(1,0) over Sp(4):")
std = irreducible_character(Sp(2), (1, 0))
outer = {}
for e1, c1 in std.items():  # the big group's torus is two copies side by side
    for e2, c2 in std.items():
        outer[e1 + e2] = outer.get(e1 + e2, 0) + c1 * c2
restricted = restrict_character(outer, "sp-diag", (2,))
for w, m in sorted(decompose_character(restricted, Sp(2)).items(), reverse=True):
    print(f"   {m} · V{w}")
print()

print("The verification grids' oracle reaches the same answers from the big")
print("group's dominant weights alone, never expanding a whole character.")
print("S²C^6 under O(6), by characters alone:")
print("  ", oracle_decomposition("o-in-gl", (6,), GLLabel((2,), ())))
print("and by the closed formula:")
print("  ", branch_decompose("o-in-gl", GLLabel((2,), ()), (6,)))
print()

print("Dimensions come from the Weyl product formula:")
print("   dim E^(2,1) over O(9)  =", dim_irrep(RepLabel("O", 9, (2, 1))))
print("   dim V^(2,1) over Sp(6) =", dim_irrep(RepLabel("Sp", 3, (2, 1))))
print()

print("Graded-dimension identities tie the whole setup together, e.g. the")
print("degree-6 slice of polynomials on C^5 ⊗ C^2 against the orthogonal")
print("duality identity:", duality_dim_check("o_duality", 6, n=5, k=2))
