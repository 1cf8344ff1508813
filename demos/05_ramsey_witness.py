"""
Constructing Ramsey witnesses by level-splitting recursion
==========================================================
"""

from ramsey_ba import (
    ClassKind,
    OUT,
    construct_witness,
    dual_ramsey_oracle,
    make_algebra,
    min_witness,
    reduct,
    signature_json,
)

a = make_algebra([0, OUT], 1)
b = make_algebra([0, 0, OUT], 1)

# The level-free base is the minimal witness of the level-free class: the
# ascent over atom counts that min_witness runs, at chain length 0.
base = dual_ramsey_oracle(reduct(a), reduct(b), 2, 8)
print("level-free base witness:", signature_json(base))

# The recursion lifts the base witness to the lowest occupied level and
# solves the remainder above it with an inflated color count; the result is
# re-verified by the arrow search before being returned.
witness, cert = construct_witness(ClassKind.BU, a, b, 2, 8)
print("constructed witness:", signature_json(witness))
print("verified:", cert.verdict, "after", cert.stats.nodes, "search nodes")

# Exhaustive ascent finds the smallest witness in the class for comparison.
found = min_witness(ClassKind.BU, a, b, 2, 8)
print("minimal witness:", signature_json(found[0]), "with", found[1], "atoms")

# A two-level instance takes one more recursion step.
a2 = make_algebra([0, OUT], 2)
b2 = make_algebra([0, 1, OUT], 2)
witness2, cert2 = construct_witness(ClassKind.BJ, a2, b2, 2, 8)
print("two-level witness:", signature_json(witness2), "->", cert2.verdict)
