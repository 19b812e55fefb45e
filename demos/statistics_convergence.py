"""How fast the paper's statistics approach their limits: one census at the
largest T, read in windows T = 12, 13, ... and at the largest T itself.

Each row gives the classes of length <= T, the KS distance of cauchy_compare,
the relative error of the empirical winding density against
limiting_density at n = 0 and +-1, the signed relative error of the twisted
length sums (real part) against their main term at r = 0, 0.1, 0.25 and 0.4,
and the largest deviation of psi mod 3 from equidistribution (1/3).  It adds
no statistic: every column is read from the library's.

The KS has a floor of about P(psi = 0) / 2, about 1/(6T): a continuous law
cannot come closer to a sample with that atom at 0.

Run with: python3 demos/statistics_convergence.py [largest T, default 14]
(at 17.98, just below the census's bound, it takes about 2 s and 300 MB on a 2-core x86-64 host).
"""

import math
import sys

from modwind import (
    EnumerationConfig,
    cauchy_compare,
    density_table,
    enumerate_geodesics,
    equidistribution,
    twisted_sums,
    winding_histogram,
)

TWISTS = (0.0, 0.1, 0.25, 0.4)

largest = float(sys.argv[1]) if len(sys.argv) > 1 else 14.0
windows = [float(T) for T in range(12, math.floor(largest) + 1)]
if largest not in windows:
    windows.append(largest)
census = enumerate_geodesics(EnumerationConfig(max_length=largest))

header = ["T", "classes", "KS", "dens n=0", "dens n=-1", "dens n=+1"]
header += [f"twist r={r:g}" for r in TWISTS] + ["mod 3"]
print(" ".join(f"{h:>12}" for h in header))
for T in windows:
    hist = winding_histogram(census, T)
    density = [f"{emp / pred - 1:+.1%}" for _, emp, pred in density_table(hist, (0, -1, 1))]
    twists = [f"{rep.sum.real / rep.main_term - 1:+.3%}" for rep in twisted_sums(census, T, TWISTS)]
    mod3 = max(abs(v - 1.0 / 3) for v in equidistribution(census, T, 3).values())
    cells = [f"{T:g}", f"{hist.total:,}", f"{cauchy_compare(census, T).ks_statistic:.4f}"]
    print(" ".join(f"{c:>12}" for c in cells + density + twists + [f"{mod3:.1e}"]))
