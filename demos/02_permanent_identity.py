"""The permanent / cycle-cover identity, exactly, on small graphs.

For a loop-free graph the permanent of the adjacency matrix expands as a
sum over 2-factors F (partitions of the vertices into single edges and
cycles of length >= 3), each weighted by 2^c(F) where c(F) counts the
genuine cycles -- one factor of two per orientation.  Both sides are
computed independently (Glynn's formula vs. backtracking enumeration) and
must agree to the last digit.
"""

import ndlham as nh

graphs = [
    ("K4", nh.complete(4)),
    ("K6", nh.complete(6)),
    ("C6", nh.cycle(6)),
    ("Petersen", nh.petersen()),
    ("Paley(13)", nh.paley(13)),
    ("random 4-regular n=12", nh.random_regular(12, 4, seed=2)),
]

print(f"{'graph':>24}  {'per(A)':>10}  {'sum 2^c(F)':>10}  {'f(G)':>7}  {'h(G)':>7}")
for name, g in graphs:
    per = nh.permanent_exact(nh.adjacency_matrix_of(g))
    hist = nh.factor_histogram(g)
    weighted = hist.weighted_total
    h = nh.hamilton_count_exact(g)
    assert per == weighted
    print(f"{name:>24}  {per:>10}  {weighted:>10}  {hist.total:>7}  {h:>7}")

print("\n2-factor histogram of C6 by component count s:")
for s, c in sorted(nh.factor_histogram(nh.cycle(6)).counts.items()):
    print(f"  s={s}: {c}")
