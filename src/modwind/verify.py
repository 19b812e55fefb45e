"""Seeded self-verification suites for every library-level invariant.

Each suite draws its own deterministic sample from a shared seed, checks one
mathematical identity, and reports pass/fail counts with a short note per
failure.  run_all bundles them into a JSON-friendly report; the command line
wrapper turns any failure into a nonzero exit.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter
from typing import List

from .errors import CapExceeded, DomainError
from .geodesics import (
    Census,
    EnumerationConfig,
    canonical_form,
    enumerate_geodesics,
    is_primitive,
    matrix_to_word,
    trace_cap_for_length,
    word_to_matrix,
)
from .matrices import (
    IDENTITY,
    Mat2,
    _integer,
    dedekind_sum,
    dedekind_sum_direct,
    omega,
    short_real,
    sign0,
)
from .rademacher import (
    chi_r,
    phi_closed,
    phi_word,
    psi,
    psi_cf,
    s_symbol,
    word_factor_matrix,
)
from .winding import e2_period, winding_index

__all__ = ["SuiteResult", "run_all", "VERIFY_MAX_TRACE_CAP"]

# word_census checks every class of the census with the exact symbols, at
# about 10 us a class (8.5-11.4 us, median 10.4, in 15 timings at T = 15.0663,
# 249,076 classes, on a shared 2-core x86-64 host, Python 3.11, numpy 2.4), so
# run_all refuses a census past this trace cap (at T below 15.0674) before any
# suite runs.
VERIFY_MAX_TRACE_CAP = 1869


@dataclass(slots=True)
class SuiteResult:
    suite: str
    passed: int
    failed: int
    details: List[str] = field(default_factory=list)

    def check(self, ok: bool, note: str, *args) -> None:
        """Count one check; a failure keeps its note, note.format(*args) if args are
        given, among the first 20: most checks pass, so a note is formatted only
        when one fails."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.details) < 20:
                self.details.append(note.format(*args) if args else note)


def _random_element(rng: random.Random, max_factors: int = 8) -> Mat2:
    """Random SL(2,Z) element as a short word in T and S, possibly negated."""
    g = IDENTITY
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            g = g @ word_factor_matrix(("T", rng.randint(-5, 5)))
        else:
            g = g @ word_factor_matrix(("S", rng.randint(-3, 3)))
    if rng.random() < 0.5:
        g = -g
    return g


def _random_hyperbolic(rng: random.Random) -> Mat2:
    """Random hyperbolic element: conjugated word product, either sign."""
    n = 2 * rng.randint(1, 3)
    word = tuple(rng.randint(1, 9) for _ in range(n))
    g = word_to_matrix(word)
    tau = _random_element(rng, 6)
    g = tau @ g @ tau.inverse()
    if rng.random() < 0.5:
        g = -g
    return g


def suite_dedekind_reciprocity(rng: random.Random) -> SuiteResult:
    """s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12, exact rationals."""
    res = SuiteResult("dedekind_reciprocity", 0, 0)
    for _ in range(1000):
        k = rng.randint(2, 3000)
        h = rng.randint(1, k - 1)
        while gcd(h, k) != 1:
            h = rng.randint(1, k - 1)
        lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
        rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12
        res.check(lhs == rhs, "reciprocity failed at (h,k)=({},{})", h, k)
    # recursion against the direct defining sum on small moduli
    for _ in range(200):
        k = rng.randint(1, 300)
        h = rng.randint(-2 * k, 2 * k)
        res.check(
            dedekind_sum(h, k) == dedekind_sum_direct(h % k if k > 1 else 0, k),
            "recursion vs direct failed at (h,k)=({},{})", h, k,
        )
    return res


def suite_omega_cocycle(rng: random.Random) -> SuiteResult:
    """omega(g,h) + omega(gh,l) = omega(g,hl) + omega(h,l), exact integers."""
    res = SuiteResult("omega_cocycle", 0, 0)
    res.check(omega(-IDENTITY, -IDENTITY) == 1, "omega(-I,-I) != 1")
    for _ in range(1000):
        g = _random_element(rng)
        h = _random_element(rng)
        l = _random_element(rng)
        lhs = omega(g, h) + omega(g @ h, l)
        rhs = omega(g, h @ l) + omega(h, l)
        res.check(lhs == rhs, "cocycle failed at {}, {}, {}", g, h, l)
        res.check(omega(IDENTITY, g) == 0, "omega(I, g) != 0 for {}", g)
        res.check(omega(g, g.inverse()) in (0, 1), "omega(g, g^-1) out of range for {}", g)
    return res


def suite_multiplier_law(rng: random.Random) -> SuiteResult:
    """chi_r(g h) = chi_r(g) chi_r(h) exp(2 pi i r omega(g,h)) to 1e-9."""
    res = SuiteResult("multiplier_law", 0, 0)
    for _ in range(1000):
        g = _random_element(rng)
        h = _random_element(rng)
        w = omega(g, h)
        for r in (0.3, 1.0, 2.5):
            lhs = chi_r(g @ h, r)
            rhs = chi_r(g, r) * chi_r(h, r) * cmath.exp(2j * math.pi * r * w)
            res.check(abs(lhs - rhs) <= 1e-9, "law failed at r={}, {}, {}", r, g, h)
    return res


def suite_s_cocycle(rng: random.Random) -> SuiteResult:
    """S(g h) - S(g) - S(h) = 12 omega(g, h), exact integers."""
    res = SuiteResult("s_cocycle", 0, 0)
    for _ in range(1000):
        g = _random_element(rng)
        h = _random_element(rng)
        res.check(
            s_symbol(g @ h) - s_symbol(g) - s_symbol(h) == 12 * omega(g, h),
            "S cocycle failed at {}, {}", g, h,
        )
    return res


def suite_psi_conjugacy(rng: random.Random) -> SuiteResult:
    """psi is a class function on hyperbolic elements; sign rules."""
    res = SuiteResult("psi_conjugacy", 0, 0)
    for _ in range(1000):
        g = _random_hyperbolic(rng)
        tau = _random_element(rng, 8)
        res.check(psi(tau @ g @ tau.inverse()) == psi(g), "conjugacy failed at {}, {}", g, tau)
        res.check(psi(g.inverse()) == -psi(g), "psi(g^-1) != -psi(g) at {}", g)
        res.check(psi(-g) == psi(g), "psi(-g) != psi(g) at {}", g)
    return res


def suite_psi_homogeneity(rng: random.Random) -> SuiteResult:
    """psi(g^n) = n psi(g) for hyperbolic g, n in -3..3."""
    res = SuiteResult("psi_homogeneity", 0, 0)
    for _ in range(200):
        g = _random_hyperbolic(rng)
        base = psi(g)
        for n in (-3, -2, -1, 1, 2, 3):
            res.check(psi(g.power(n)) == n * base, "homogeneity failed at {}, n={}", g, n)
    return res


def suite_phi_power_recursion(rng: random.Random) -> SuiteResult:
    """phi(g^n) = n phi(g) - 3 sum_k sign(c_g c_{g^k} c_{g^{k+1}}), exact."""
    res = SuiteResult("phi_power_recursion", 0, 0)
    for _ in range(200):
        g = _random_element(rng)
        base = phi_closed(g)
        powers = [IDENTITY]
        for _ in range(7):
            powers.append(powers[-1] @ g)
        for n in range(1, 7):
            defect = sum(
                sign0(g.c * powers[k].c * powers[k + 1].c) for k in range(1, n)
            )
            res.check(
                phi_closed(powers[n]) == n * base - 3 * defect,
                "power recursion failed at {}, n={}", g, n,
            )
    return res


def suite_phi_limit(rng: random.Random) -> SuiteResult:
    """|phi(g^n)/n - psi(g)| <= 6/n for hyperbolic g, n up to 64."""
    res = SuiteResult("phi_limit", 0, 0)
    for _ in range(100):
        g = _random_hyperbolic(rng)
        target = psi(g)
        for n in (1, 2, 4, 8, 16, 32, 64):
            val = phi_closed(g.power(n))
            res.check(
                abs(Fraction(val, n) - target) <= Fraction(6, n),
                "limit envelope failed at {}, n={}", g, n,
            )
    return res


def suite_phi_word(rng: random.Random) -> SuiteResult:
    """phi by cocycle folding over T/S words equals the closed form."""
    res = SuiteResult("phi_word_vs_closed", 0, 0)
    for _ in range(10000):
        length = rng.randint(0, 12)
        factors = []
        g = IDENTITY
        for _ in range(length):
            if rng.random() < 0.6:
                f = ("T", rng.randint(-6, 6))
            else:
                f = ("S", rng.randint(-3, 3))
            factors.append(f)
            g = g @ word_factor_matrix(f)
        res.check(phi_word(factors) == phi_closed(g), "word/closed mismatch at {}", factors)
    return res


def suite_word_census(census: Census) -> SuiteResult:
    """Structural invariants of the full census, read once, a trace at a time:
    a word's reversal has its trace, as the reversed product is the transpose
    (each A_a is symmetric)."""
    res = SuiteResult("word_census", 0, 0)
    res.check(len(census) > 0, "empty census")
    for trace, group in groupby(census.rows(), key=itemgetter(1)):
        rows = list(group)
        psi_of = {entries: psi_val for entries, _, _, psi_val in rows}
        for entries, _, _, psi_val in rows:
            m = word_to_matrix(entries)
            res.check(psi_cf(entries) == psi(m) == psi_val, "psi mismatch at {}", entries)
            res.check(m.trace == trace, "trace mismatch at {}", entries)
            rev = canonical_form(entries[::-1]).entries
            res.check(rev in psi_of, "reversal missing for {}", entries)
            res.check(psi_of.get(rev) == -psi_val, "reversal psi not negated at {}", entries)
            n = len(entries)
            if n // 2 % 2 == 1 and entries == entries[: n // 2] * 2:
                res.check(psi_val == 0, "inert class with psi != 0: {}", entries)
    return res


def _sample_size(size) -> int:
    """size as an int; refuses a non-integer or negative one."""
    size = _integer(size, "sample sizes")
    if size < 0:
        raise DomainError(f"sample size {size} is negative")
    return size


def stratified_sample(census: Census, size: int, seed: int) -> List[int]:
    """Sorted row indices of a deterministic sample, forcing in words with a
    large partial quotient (entry >= 50): strata of equal row blocks, which the
    (trace, word) order of the census spreads over the trace range."""
    size = _sample_size(size)
    rng = random.Random(seed)
    n = len(census)
    if n <= size:
        return list(range(n))
    big_entry = census.rows_with_entry_at_least(50).tolist()
    chosen = set(rng.sample(big_entry, min(len(big_entry), max(10, size // 10))))
    strata = 5
    # none when the forced rows already fill the sample
    per = max(0, (size - len(chosen)) // strata + 1)
    for s in range(strata):
        block = range(n * s // strata, n * (s + 1) // strata)
        for i in rng.sample(block, min(per, len(block))):
            chosen.add(i)
            if len(chosen) >= size:
                break
    if len(chosen) < size:
        # a stratum's draws can repeat forced rows
        chosen.update(rng.sample(sorted(set(range(n)) - chosen), size - len(chosen)))
    return sorted(chosen)[:size]


def suite_winding_sample(census: Census, sample: int, seed: int) -> SuiteResult:
    """winding index = psi = E2 period on a stratified sample of classes."""
    res = SuiteResult("winding_sample", 0, 0)
    for entries, _, _, psi_val in census.rows(stratified_sample(census, sample, seed)):
        m = word_to_matrix(entries)
        wi = winding_index(m)
        res.check(wi.index == psi_val, "index {} != psi {} at {}", wi.index, psi_val, entries)
        period = e2_period(m)
        res.check(
            abs(period - psi_val) <= 1e-6,
            "period {} != psi {} at {}", period, psi_val, entries,
        )
    return res


def suite_roundtrip(rng: random.Random) -> SuiteResult:
    """matrix_to_word recovers the class of conjugated word products."""
    res = SuiteResult("word_roundtrip", 0, 0)
    for _ in range(300):
        n = 2 * rng.randint(1, 3)
        entries = tuple(rng.randint(1, 9) for _ in range(n))
        if not is_primitive(entries):
            continue
        tau = _random_element(rng, 6)
        g = tau @ word_to_matrix(entries) @ tau.inverse()
        word = matrix_to_word(g)
        res.check(is_primitive(word), "roundtrip word imprimitive for {}", g)
        res.check(psi_cf(word) == psi(g), "roundtrip psi mismatch for {}", g)
    return res


def run_all(
    max_length: float = 12.0, sample: int = 500, seed: int = 0
) -> List[SuiteResult]:
    """Every suite's result, the census's at lengths <= max_length last.

    The census's guard refuses a bad length, and run_all a bad sample size or
    a trace cap past VERIFY_MAX_TRACE_CAP, before any suite runs.
    """
    config = EnumerationConfig(max_length=max_length)
    sample = _sample_size(sample)
    cap = trace_cap_for_length(max_length)
    if cap > VERIFY_MAX_TRACE_CAP:
        raise CapExceeded(
            f"verify at length {short_real(max_length)} would check the classes of trace up to {cap:,} "
            f"(at most {VERIFY_MAX_TRACE_CAP:,})"
        )
    suites = (
        suite_dedekind_reciprocity, suite_omega_cocycle, suite_multiplier_law, suite_s_cocycle,
        suite_psi_conjugacy, suite_psi_homogeneity, suite_phi_power_recursion, suite_phi_limit,
        suite_phi_word, suite_roundtrip,
    )
    rng = random.Random(seed)
    results = [suite(random.Random(rng.random())) for suite in suites]
    census = enumerate_geodesics(config)
    results.append(suite_word_census(census))
    results.append(suite_winding_sample(census, sample, seed))
    return results
