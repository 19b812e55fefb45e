"""Enumerate every prime geodesic up to length 14 and compare the counting
statistics against their closed-form predictions.

Run with: python3 demos/census_statistics.py
"""

import math

from modwind import (
    EnumerationConfig,
    cauchy_compare,
    density_table,
    enumerate_geodesics,
    equidistribution,
    li,
    twisted_sum,
    winding_histogram,
)

T = 14.0

print(f"enumerating oriented primitive classes with length <= {T} ...")
records = enumerate_geodesics(EnumerationConfig(max_length=T))
print(f"  {len(records)} classes, largest trace {int(records.counts()[0][-1])}")

# prime geodesic theorem: the length sum tracks e^T and the raw count
# tracks li(e^T)
_, _, count, length = records.counts()
length_sum = float(count @ length)
print(f"\nsum of lengths / e^T      = {length_sum / math.exp(T):.4f}")
print(f"class count / li(e^T)     = {len(records) / li(math.exp(T)):.4f}")

# winding density: the histogram of psi peaks at 0 and falls off like a
# Cauchy kernel in n
hist = winding_histogram(records, T)
print("\n   n   empirical   predicted")
for n, emp, pred in density_table(hist, range(-3, 4)):
    print(f"  {n:+d}   {emp:9.5f}   {pred:9.5f}")

# Cauchy limit law for the winding-to-length ratio
report = cauchy_compare(records, T)
print(f"\nKS distance of (3/pi) psi/length from Cauchy: {report.ks_statistic:.4f}")

# the winding number equidistributes in every residue class
for q in (2, 3, 5):
    table = equidistribution(records, T, q)
    worst = max(abs(v - 1.0 / q) for v in table.values())
    print(f"equidistribution mod {q}: worst deviation from 1/{q} is {worst:.4f}")

# twisting the length sum by a character of small weight barely dents the
# main term; weight 12 is the trivial character again
for r in (0.0, 0.25, 12.0):
    rep = twisted_sum(records, T, r)
    main = f"{abs(rep.sum) / rep.main_term:.4f} of main term" if rep.main_term else "no main term"
    print(f"twisted sum at r = {r:5.2f}: |sum| = {abs(rep.sum):.6g} ({main})")
