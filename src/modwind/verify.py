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
from math import gcd
from typing import Dict, List, Sequence

from .errors import CapExceeded
from .geodesics import (
    EnumerationConfig,
    GeodesicRecord,
    enumerate_geodesics,
    estimated_census_size,
    is_primitive,
    matrix_to_word,
    word_to_matrix,
)
from .matrices import (
    IDENTITY,
    Mat2,
    dedekind_sum,
    dedekind_sum_direct,
    omega,
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

__all__ = ["SuiteResult", "run_all", "ALL_SUITES", "VERIFY_MAX_CLASSES"]

# word_census checks every class of the census with the exact symbols, at
# about 150 us a class, so run_all refuses a census estimated above this
# (T of about 15) before any suite runs.
VERIFY_MAX_CLASSES = 250_000


@dataclass
class SuiteResult:
    suite: str
    passed: int
    failed: int
    details: List[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.details) < 20:
                self.details.append(note)

    def as_dict(self) -> Dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "details": self.details,
        }


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


def _random_hyperbolic(rng: random.Random, allow_negative: bool = True) -> Mat2:
    """Random hyperbolic element: conjugated word product, either sign."""
    n = 2 * rng.randint(1, 3)
    word = tuple(rng.randint(1, 9) for _ in range(n))
    g = word_to_matrix(word)
    tau = _random_element(rng, 6)
    g = tau @ g @ tau.inverse()
    if allow_negative and rng.random() < 0.5:
        g = -g
    return g


def suite_dedekind_reciprocity(rng: random.Random, count: int = 1000) -> SuiteResult:
    """s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12, exact rationals."""
    res = SuiteResult("dedekind_reciprocity", 0, 0)
    for _ in range(count):
        k = rng.randint(2, 3000)
        h = rng.randint(1, k - 1)
        while gcd(h, k) != 1:
            h = rng.randint(1, k - 1)
        lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
        rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12
        res.check(lhs == rhs, f"reciprocity failed at (h,k)=({h},{k})")
    # recursion against the direct defining sum on small moduli
    for _ in range(200):
        k = rng.randint(1, 300)
        h = rng.randint(-2 * k, 2 * k)
        res.check(
            dedekind_sum(h, k) == dedekind_sum_direct(h % k if k > 1 else 0, k),
            f"recursion vs direct failed at (h,k)=({h},{k})",
        )
    return res


def suite_omega_cocycle(rng: random.Random, count: int = 1000) -> SuiteResult:
    """omega(g,h) + omega(gh,l) = omega(g,hl) + omega(h,l), exact integers."""
    res = SuiteResult("omega_cocycle", 0, 0)
    res.check(omega(-IDENTITY, -IDENTITY) == 1, "omega(-I,-I) != 1")
    for _ in range(count):
        g = _random_element(rng)
        h = _random_element(rng)
        l = _random_element(rng)
        lhs = omega(g, h) + omega(g @ h, l)
        rhs = omega(g, h @ l) + omega(h, l)
        res.check(lhs == rhs, f"cocycle failed at {g}, {h}, {l}")
        res.check(omega(IDENTITY, g) == 0, f"omega(I, g) != 0 for {g}")
        res.check(omega(g, g.inverse()) in (0, 1), f"omega(g, g^-1) out of range for {g}")
    return res


def suite_multiplier_law(rng: random.Random, count: int = 1000) -> SuiteResult:
    """chi_r(g h) = chi_r(g) chi_r(h) exp(2 pi i r omega(g,h)) to 1e-9."""
    res = SuiteResult("multiplier_law", 0, 0)
    for _ in range(count):
        g = _random_element(rng)
        h = _random_element(rng)
        w = omega(g, h)
        for r in (0.3, 1.0, 2.5):
            lhs = chi_r(g @ h, r).value
            rhs = chi_r(g, r).value * chi_r(h, r).value * cmath.exp(2j * math.pi * r * w)
            res.check(abs(lhs - rhs) <= 1e-9, f"law failed at r={r}, {g}, {h}")
    return res


def suite_s_cocycle(rng: random.Random, count: int = 1000) -> SuiteResult:
    """S(g h) - S(g) - S(h) = 12 omega(g, h), exact integers."""
    res = SuiteResult("s_cocycle", 0, 0)
    for _ in range(count):
        g = _random_element(rng)
        h = _random_element(rng)
        res.check(
            s_symbol(g @ h) - s_symbol(g) - s_symbol(h) == 12 * omega(g, h),
            f"S cocycle failed at {g}, {h}",
        )
    return res


def suite_psi_conjugacy(rng: random.Random, count: int = 1000) -> SuiteResult:
    """psi is a class function on hyperbolic elements; sign rules."""
    res = SuiteResult("psi_conjugacy", 0, 0)
    for _ in range(count):
        g = _random_hyperbolic(rng)
        tau = _random_element(rng, 8)
        res.check(psi(tau @ g @ tau.inverse()) == psi(g), f"conjugacy failed at {g}, {tau}")
        res.check(psi(g.inverse()) == -psi(g), f"psi(g^-1) != -psi(g) at {g}")
        res.check(psi(-g) == psi(g), f"psi(-g) != psi(g) at {g}")
    return res


def suite_psi_homogeneity(rng: random.Random, count: int = 200) -> SuiteResult:
    """psi(g^n) = n psi(g) for hyperbolic g, n in -3..3."""
    res = SuiteResult("psi_homogeneity", 0, 0)
    for _ in range(count):
        g = _random_hyperbolic(rng)
        base = psi(g)
        for n in (-3, -2, -1, 1, 2, 3):
            res.check(psi(g.power(n)) == n * base, f"homogeneity failed at {g}, n={n}")
    return res


def suite_phi_power_recursion(rng: random.Random, count: int = 200) -> SuiteResult:
    """phi(g^n) = n phi(g) - 3 sum_k sign(c_g c_{g^k} c_{g^{k+1}}), exact."""
    res = SuiteResult("phi_power_recursion", 0, 0)
    for _ in range(count):
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
                f"power recursion failed at {g}, n={n}",
            )
    return res


def suite_phi_limit(rng: random.Random, count: int = 100) -> SuiteResult:
    """|phi(g^n)/n - psi(g)| <= 6/n for hyperbolic g, n up to 64."""
    res = SuiteResult("phi_limit", 0, 0)
    for _ in range(count):
        g = _random_hyperbolic(rng)
        target = psi(g)
        for n in (1, 2, 4, 8, 16, 32, 64):
            val = phi_closed(g.power(n))
            res.check(
                abs(Fraction(val, n) - target) <= Fraction(6, n),
                f"limit envelope failed at {g}, n={n}",
            )
    return res


def suite_phi_word(rng: random.Random, count: int = 10000) -> SuiteResult:
    """phi by cocycle folding over T/S words equals the closed form."""
    res = SuiteResult("phi_word_vs_closed", 0, 0)
    for _ in range(count):
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
        res.check(phi_word(factors) == phi_closed(g), f"word/closed mismatch at {factors}")
    return res


def suite_word_census(max_length: float) -> SuiteResult:
    """Structural invariants of the full census up to max_length."""
    res = SuiteResult("word_census", 0, 0)
    records = enumerate_geodesics(EnumerationConfig(max_length=max_length))
    by_word = {rec.word.entries: rec for rec in records}
    res.check(len(records) > 0, "empty census")
    for rec in records:
        m = word_to_matrix(rec.word)
        res.check(psi_cf(rec.word) == psi(m) == rec.psi, f"psi mismatch at {rec.word.entries}")
        res.check(m.trace == rec.trace, f"trace mismatch at {rec.word.entries}")
        rev = rec.word.reversed()
        res.check(rev.entries in by_word, f"reversal missing for {rec.word.entries}")
        res.check(
            by_word[rev.entries].psi == -rec.psi,
            f"reversal psi not negated at {rec.word.entries}",
        )
        n = len(rec.word.entries)
        half = rec.word.entries[: n // 2]
        if n // 2 % 2 == 1 and rec.word.entries == half * 2:
            res.check(rec.psi == 0, f"inert class with psi != 0: {rec.word.entries}")
    return res


def stratified_sample(
    records: Sequence[GeodesicRecord], size: int, seed: int
) -> List[GeodesicRecord]:
    """Deterministic sample spread over the trace range, forcing in words
    with a large partial quotient (entry >= 50)."""
    rng = random.Random(seed)
    pool = sorted(records, key=lambda r: (r.trace, r.word.entries))
    if len(pool) <= size:
        return pool
    big_entry = [r for r in pool if max(r.word.entries) >= 50]
    forced = rng.sample(big_entry, min(len(big_entry), max(10, size // 10)))
    chosen = {r.word.entries: r for r in forced}
    strata = 5
    per = (size - len(chosen)) // strata + 1
    n = len(pool)
    for s in range(strata):
        block = pool[n * s // strata : n * (s + 1) // strata]
        for r in rng.sample(block, min(per, len(block))):
            chosen.setdefault(r.word.entries, r)
            if len(chosen) >= size:
                break
    return sorted(chosen.values(), key=lambda r: (r.trace, r.word.entries))[:size]


def suite_winding_sample(max_length: float, sample: int, seed: int) -> SuiteResult:
    """winding index = psi = E2 period on a stratified sample of classes."""
    res = SuiteResult("winding_sample", 0, 0)
    records = enumerate_geodesics(EnumerationConfig(max_length=max_length))
    picked = stratified_sample(records, sample, seed)
    for rec in picked:
        m = word_to_matrix(rec.word)
        wi = winding_index(m)
        res.check(
            wi.index == rec.psi and wi.residual < 1e-3,
            f"index {wi.index} != psi {rec.psi} at {rec.word.entries}",
        )
        period = e2_period(m)
        res.check(
            abs(period - rec.psi) <= 1e-6,
            f"period {period} != psi {rec.psi} at {rec.word.entries}",
        )
    return res


def suite_roundtrip(rng: random.Random, count: int = 300) -> SuiteResult:
    """matrix_to_word recovers the class of conjugated word products."""
    res = SuiteResult("word_roundtrip", 0, 0)
    for _ in range(count):
        n = 2 * rng.randint(1, 3)
        entries = tuple(rng.randint(1, 9) for _ in range(n))
        if not is_primitive(entries):
            continue
        tau = _random_element(rng, 6)
        g = tau @ word_to_matrix(entries) @ tau.inverse()
        if g.trace < 0:
            g = -g
        word = matrix_to_word(g)
        res.check(is_primitive(word), f"roundtrip word imprimitive for {g}")
        res.check(psi_cf(word) == psi(g), f"roundtrip psi mismatch for {g}")
    return res


ALL_SUITES = [
    "dedekind_reciprocity",
    "omega_cocycle",
    "multiplier_law",
    "s_cocycle",
    "psi_conjugacy",
    "psi_homogeneity",
    "phi_power_recursion",
    "phi_limit",
    "phi_word_vs_closed",
    "word_roundtrip",
    "word_census",
    "winding_sample",
]


def run_all(
    max_length: float = 12.0, sample: int = 500, seed: int = 0
) -> List[SuiteResult]:
    size = estimated_census_size(max_length)
    if size > VERIFY_MAX_CLASSES:
        raise CapExceeded(
            f"verify at length {max_length} would check about {size:.3g} classes "
            f"(at most {VERIFY_MAX_CLASSES})"
        )
    rng = random.Random(seed)
    results = [
        suite_dedekind_reciprocity(random.Random(rng.random())),
        suite_omega_cocycle(random.Random(rng.random())),
        suite_multiplier_law(random.Random(rng.random())),
        suite_s_cocycle(random.Random(rng.random())),
        suite_psi_conjugacy(random.Random(rng.random())),
        suite_psi_homogeneity(random.Random(rng.random())),
        suite_phi_power_recursion(random.Random(rng.random())),
        suite_phi_limit(random.Random(rng.random())),
        suite_phi_word(random.Random(rng.random())),
        suite_roundtrip(random.Random(rng.random())),
        suite_word_census(max_length),
        suite_winding_sample(max_length, sample, seed),
    ]
    return results
