"""Both numerical routes on words with large cusp entries: the rows behind
README's large-entry paragraph.

Each row gives the word, the route, its result or the class of the error it
raised, its error (for the index the residual, the distance of its turns from
the nearest integer; for the period its distance from psi_cf), the index's
steps, and the time in ms as the best of three in-process calls, all on the
word's product.  The last column, `==` or `!=`, says whether the route gives
the same result (or error class) on the conjugate of the product by CONJUGATOR:
both routes read the class, not the matrix that stands for it.

Run with: python3 demos/cusp_frontier.py
"""

import time

from modwind import S, T, ModwindError, e2_period, psi_cf, winding_index, word_to_matrix

WORDS = [
    (1, 7500),
    (1, 8000),
    (1, 20000),
    (1, 22024),
    (1, 30000),
    (1, 3, 1, 8000),
    (2, 5000, 3, 9000),
    (1, 10**5),
    (1, 10**6),
    (1, 10**7),
    (1, 10**8),
    (1, 10**9),
    (1, 10**11),
    (1, 10**12),
    (7, 20000, 3, 15000, 9, 19000),
    (2, 10**9, 3, 10**9 - 1),
]
CONJUGATOR = T.power(3) @ S @ T.power(-2)


def best_of_three(route, gamma):
    """(result or the error raised, the fewest ms of three calls)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        try:
            result = route(gamma)
        except ModwindError as error:
            result = error
        best = min(best, time.perf_counter() - start)
    return result, 1e3 * best


def entry(n):
    """n, or 1eK for a power of ten from 10^5 on."""
    k = len(str(n)) - 1
    return f"1e{k}" if k >= 5 and n == 10**k else str(n)


def same(route, gamma, result):
    """`==` when the route gives result (or its error class) on the conjugate of gamma."""
    try:
        other = route(CONJUGATOR @ gamma @ CONJUGATOR.inverse())
    except ModwindError as error:
        other = error
    if isinstance(result, ModwindError):
        result, other = type(result), type(other)
    return "==" if other == result else "!="


def row(word, route, gamma):
    result, ms = best_of_three(route, gamma)
    if isinstance(result, ModwindError):
        shown, distance, steps = type(result).__name__, "", ""
    elif route is winding_index:
        shown, distance, steps = str(result.index), f"{result.residual:.1e}", str(result.steps)
    else:
        shown, distance, steps = f"{result:.9f}", f"{abs(result - psi_cf(word)):.1e}", ""
    name = "-".join(map(entry, word))
    cells = f"{name:>24} {route.__name__:>13} {shown:>22} {distance:>8} {steps:>6} {ms:9.2f}"
    return f"{cells} {same(route, gamma, result):>4}"


print(f"{'word':>24} {'route':>13} {'result':>22} {'error':>8} {'steps':>6} {'ms':>9} {'conj':>4}")
for word in WORDS:
    gamma = word_to_matrix(word)
    for route in (winding_index, e2_period):
        print(row(word, route, gamma))
