"""
Arrow relations with machine-checkable certificates
===================================================
"""

from ramsey_ba import (
    OUT,
    arrows,
    enumerate_embeddings,
    make_algebra,
    recheck_bad_coloring,
    signature_json,
)
from ramsey_ba.serialize import format_io

a = make_algebra([0, OUT], 1)
c = make_algebra([0, 0, OUT], 1)

# c -> (c)^a_2 fails: the only copy of C in itself carries three copies of
# A, and a 2-coloring can split them.
cert = arrows(c, c, a, 2)
print("verdict:", cert.verdict)
print(
    "search stats:", cert.stats.nodes, "nodes,",
    cert.stats.a_copies, "copies of A,", cert.stats.b_copies, "copies of B",
)
# The coloring keeps one color per ordered copy, in enumeration order.
copies = enumerate_embeddings(a, c, "ordered")
for embedding, color in zip(copies, cert.bad_coloring.colors):
    print("  copy", embedding.block_of, "-> color", color)
print("independent recheck:", recheck_bad_coloring(c, c, a, 2, cert.bad_coloring))

# A bigger host turns the verdict around.
host = make_algebra([0, 0, 0, 0, 0, OUT], 1)
cert = arrows(host, c, a, 2)
print("host", signature_json(host), "verdict:", cert.verdict)

# Certificates serialize to canonical JSON for the command line.
print(format_io(arrows(c, c, a, 2)))
