import hashlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwind import geodesics, verify
from modwind.errors import CapExceeded, DomainError, NotHyperbolic, NotPrimitive
from modwind.geodesics import (
    Census,
    CyclicWord,
    GeodesicRecord,
    MAX_LENGTH_BOUND,
    MAX_TRACE_CAP,
    EnumerationConfig,
    canonical_form,
    enumerate_by_trace,
    enumerate_geodesics,
    is_primitive,
    li,
    _reduced_cycle,
    matrix_to_word,
    trace_cap_for_length,
    word_to_matrix,
)
from modwind.matrices import Mat2, S, geodesic_length
from modwind.rademacher import psi, psi_cf, word_factor_matrix
from modwind.stats import (
    cauchy_compare,
    density_table,
    equidistribution,
    twisted_sum,
    twisted_sums,
    winding_histogram,
)


def _min_even_rotation(entries):
    """Reference least even rotation: the minimum over every even rotation."""
    return min(entries[k:] + entries[:k] for k in range(0, len(entries), 2))


def reference_is_primitive(entries):
    """Reference primitivity: no even block that divides the length repeats to the word."""
    n = len(entries)
    for block in range(2, n, 2):
        if n % block == 0 and entries == entries[:block] * (n // block):
            return False
    return True


def _reference_first_entry(a1, cap):
    """Canonical primitive words starting with a1, trace <= cap, by a pruned DFS.

    Partial products of positive A-factors have non-negative entries that are
    monotone in every digit and non-decreasing under extension, so a branch is
    pruned as soon as the trace of its minimal even completion exceeds the cap.
    Canonical words satisfy entries[0] <= entries[i] for every even i, which
    prunes even positions below a1.
    """
    out = []
    # stack frames: (entries, p, q, r, s, next_digit)
    stack = [([a1], a1, 1, 1, 0, 1)]
    while stack:
        entries, p, q, r, s, a = stack.pop()
        depth = len(entries)
        if depth % 2 == 0 and a < a1:
            a = a1
        np_, nq, nr, ns = p * a + q, p, r * a + s, r
        if (depth + 1) % 2 == 0:
            if np_ + ns > cap:
                continue  # larger a only increases the trace
            stack.append((entries, p, q, r, s, a + 1))
            tup = tuple(entries + [a])
            if tup == _min_even_rotation(tup) and reference_is_primitive(tup):
                out.append((tup, np_ + ns))
            stack.append((entries + [a], np_, nq, nr, ns, 1))
        else:
            # minimal even completion of the child is child * A_1
            if np_ + nq + nr > cap:
                continue
            stack.append((entries, p, q, r, s, a + 1))
            stack.append((entries + [a], np_, nq, nr, ns, 1))
    return out


_BRUTE_FORCE_TRACE_LIMIT = 50


def brute_force_classes(trace_max):
    """Independent oracle: scan SL(2,Z) matrices with entries bounded by trace_max^2,
    keep 2 < trace <= trace_max, reduce each through matrix_to_word, deduplicate.
    """
    if trace_max > _BRUTE_FORCE_TRACE_LIMIT:
        raise CapExceeded(f"trace_max {trace_max} > {_BRUTE_FORCE_TRACE_LIMIT}")
    bound = trace_max * trace_max
    words = set()
    c_vals = np.concatenate(
        [np.arange(-bound, 0, dtype=np.int64), np.arange(1, bound + 1, dtype=np.int64)]
    )
    for t in range(3, trace_max + 1):
        a_lo, a_hi = max(-bound, t - bound), min(bound, t + bound)
        a_vals = np.arange(a_lo, a_hi + 1, dtype=np.int64)
        n_vals = a_vals * (t - a_vals) - 1  # b*c must equal a*d - 1
        n_grid = n_vals[:, None]
        with np.errstate(all="ignore"):
            b_grid = n_grid // c_vals[None, :]
        mask = (b_grid * c_vals[None, :] == n_grid) & (np.abs(b_grid) <= bound)
        ai, ci = np.nonzero(mask)
        for i, j in zip(ai.tolist(), ci.tolist()):
            a = int(a_vals[i])
            c = int(c_vals[j])
            b = int(b_grid[i, j])
            try:
                words.add(matrix_to_word(Mat2(a, b, c, t - a)))
            except NotPrimitive:
                continue
    return sorted(words, key=lambda w: (word_to_matrix(w).trace, w.entries))


def isqrt_checked(D):
    """isqrt(D) for a D that is not a perfect square, as every t^2 - 4 with t > 2 is."""
    root = math.isqrt(D)
    assert root * root != D, f"{D} is a perfect square"
    return root


def floor_quadratic(P, Q, sqrt_floor):
    """floor((P + sqrt(D)) / Q) for non-square D with isqrt(D) = sqrt_floor."""
    if Q > 0:
        return (P + sqrt_floor) // Q
    # floor(-x) = -ceil(x); ceil is floor + 1 since sqrt(D) is irrational
    return -((P + sqrt_floor) // (-Q) + 1)


def reference_matrix_to_word(gamma):
    """The cycle-detection walk matrix_to_word replaced: it keys every state on
    (p, q, r, s, step parity) and cuts the first repeat out of the path."""
    t = gamma.trace
    if t <= 2:
        raise NotHyperbolic(f"trace {t} (need trace > 2)")
    D = t * t - 4
    sqrt_floor = isqrt_checked(D)
    p, q, r, s = gamma.entries()
    seen, path, digits = {}, [], []
    step = 0
    while True:
        state = (p, q, r, s)
        key = state + (step % 2,)
        if key in seen:
            start = seen[key]
            if start % 2 == 1:
                # rotate the entry point one step forward, to even distance from gamma
                cycle = tuple(digits[start + 1 :]) + (digits[start],)
                cycle_state = path[start + 1]
            else:
                cycle = tuple(digits[start:])
                cycle_state = path[start]
            break
        seen[key] = step
        path.append(state)
        a = floor_quadratic(p - s, 2 * r, sqrt_floor)
        p, q, r, s = r * a + s, r, p * a + q - a * (r * a + s), p - a * r
        digits.append(a)
        step += 1
        if step > 100000:
            raise RuntimeError(f"continued-fraction walk did not cycle for {gamma}")
    for a in cycle:
        if a < 1:
            raise RuntimeError(f"non-positive digit {a} in cycle for {gamma}")
    if word_to_matrix(cycle).entries() != cycle_state or not reference_is_primitive(cycle):
        raise NotPrimitive(f"{gamma} is a proper power")
    return CyclicWord(_min_even_rotation(cycle))


def outcome(to_word, gamma):
    """The word to_word returns for gamma, or the type of the error it raises."""
    try:
        return to_word(gamma).entries
    except Exception as exc:
        return type(exc)


def reference_census(cap):
    """Rows (word, trace, psi, length) of every class of trace <= cap, sorted
    (trace, word): the depth-first enumerator the Lyndon walk replaced."""
    found = [item for a1 in range(1, cap - 1) for item in _reference_first_entry(a1, cap)]
    found.sort(key=lambda item: (item[1], item[0]))
    return [
        (entries, trace, sum(entries[0::2]) - sum(entries[1::2]), geodesic_length(trace))
        for entries, trace in found
    ]


def rows(census):
    return [(r.word.entries, r.trace, r.psi, r.length) for r in census]


def reference_lyndon_walk(cap):
    """(word, trace, psi) of every class of trace <= cap in lexicographic order
    of the word: the recursive FKM walk the level expansion replaced.

    A prenecklace of n pairs with period p has the children that append the
    pair p places back (period p again) or any larger pair (period n + 1);
    every child except the repeat is a class.  Appending (a, b) to the
    product (p q; r s) gives (ub + p, u; vb + r, v) with u = pa + q and
    v = ra + s.
    """
    out = []
    word = []

    def visit(p, q, r, s, period, w, a0, b0):
        n = len(word) >> 1
        a = a0
        while True:
            u = p * a + q
            v = r * a + s
            b_max = (cap - p - v) // u
            if b_max < 1:
                return
            for b in range(b0 if a == a0 else 1, b_max + 1):
                P = u * b + p
                R = v * b + r
                ww = w + a - b
                word.extend((a, b))
                if n and a == a0 and b == b0:
                    child_period = period
                else:
                    child_period = n + 1
                    out.append((tuple(word), P + v, ww))
                if 2 * P + u + R + v <= cap:
                    k = 2 * (n + 1 - child_period)
                    visit(P, u, R, v, child_period, ww, word[k], word[k + 1])
                del word[-2:]
            a += 1

    visit(1, 0, 0, 1, 1, 0, 1, 1)
    return out


class TestCanonicalForm:
    def test_length_two_words_are_rigid(self):
        # the only even rotation of a length-2 word is the identity, so
        # (7,3) and (3,7) name different oriented classes
        assert canonical_form((7, 3)).entries == (7, 3)
        assert canonical_form((3, 7)).entries == (3, 7)

    def test_even_rotation_minimum(self):
        assert canonical_form((2, 1, 1, 3)).entries == (1, 3, 2, 1)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 4)))
            c = canonical_form(w)
            assert canonical_form(c.entries).entries == c.entries

    def test_fixed_point(self):
        assert canonical_form((1, 1)).entries == (1, 1)

    def test_rejects_bad_words(self):
        with pytest.raises(DomainError, match="^word length 3 is not a positive even number$"):
            canonical_form((1, 2, 3))
        with pytest.raises(DomainError, match="^entry -2 < 1$"):
            canonical_form((1, -2))
        # the checked constructor refuses each bad word with its own message
        for word, message in (
            ((1, 2, 3), "word length 3 is not"),
            ((), "word length 0 is not"),
            ((1, 0), "entry 0 < 1"),
            ((2, 1, 1, 3), "not in canonical rotation"),  # not the minimal even rotation
            ((1.5, 1), "integers"),
        ):
            with pytest.raises(DomainError, match=message):
                CyclicWord(word)

    def test_non_integral_entries_refused(self):
        # 2.0 is refused although it equals an int: an entry must be one
        for word in ((2.5, 1), (1, 2.0), (1, 2, 3, "4")):
            with pytest.raises(DomainError, match="integers"):
                canonical_form(word)
            with pytest.raises(DomainError, match="integers"):
                is_primitive(word)

    def test_numpy_integers_accepted(self):
        assert canonical_form(np.array([2, 1, 1, 3])) == CyclicWord((1, 3, 2, 1))
        with pytest.raises(DomainError, match="entry 0 < 1"):
            canonical_form(np.array([1, 0]))

    def test_refuses_before_it_rotates(self, monkeypatch):
        rotations = []

        def spy(entries):
            rotations.append(entries)
            return rotate(entries)

        rotate = geodesics._least_even_rotation
        monkeypatch.setattr(geodesics, "_least_even_rotation", spy)
        bad = (((1, 2, 3), "word length 3"), ((3, 1, 0, 2), "entry 0 < 1"), ((3, 1, 0.5, 2), "integers"))
        for word, message in bad:
            with pytest.raises(DomainError, match=message):
                canonical_form(word)
        assert rotations == []
        assert canonical_form((2, 1, 1, 3)).entries == (1, 3, 2, 1)
        assert rotations == [(2, 1, 1, 3)]


class TestLyndonPass:
    """The linear pass against the quadratic references."""

    @staticmethod
    def check(w):
        assert canonical_form(w).entries == _min_even_rotation(w)
        assert is_primitive(w) == reference_is_primitive(w)

    def test_every_small_word(self):
        for pairs in range(1, 6):
            for w in itertools.product((1, 2, 3), repeat=2 * pairs):
                self.check(w)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(
        st.lists(st.integers(1, 2**66), min_size=1, max_size=6),
        st.integers(1, 4),
        st.integers(0, 24),
    )
    def test_matches_reference_property(self, block, power, shift):
        # powers of a block, doubled when odd, rotated by any offset
        w = tuple(block) * (1 + len(block) % 2) * power
        shift %= len(w)
        self.check(w[shift:] + w[:shift])

    def test_linear_time(self):
        w = (2,) + (1,) * 199_999
        start = time.perf_counter()
        assert canonical_form(w).entries == (1,) * 199_998 + (2, 1)
        assert is_primitive(w)
        assert time.perf_counter() - start < 1.0


class TestIsPrimitive:
    def test_even_block_square(self):
        assert not is_primitive((1, 2, 1, 2))
        assert not is_primitive((3, 7, 3, 7, 3, 7))

    def test_doubled_odd_block_allowed(self):
        assert is_primitive((1, 1))
        assert is_primitive((2, 5, 3, 2, 5, 3))

    def test_length_two(self):
        assert is_primitive((3, 7))


class TestWordToMatrix:
    def test_examples(self):
        assert word_to_matrix((1, 1)) == Mat2(2, 1, 1, 1)
        assert word_to_matrix((3, 7)) == Mat2(22, 3, 7, 1)
        assert word_to_matrix((1, 2)) == Mat2(3, 1, 2, 1)

    def test_accepts_cyclic_word(self):
        assert word_to_matrix(canonical_form((3, 7))) == Mat2(22, 3, 7, 1)

    def test_rejects_odd(self):
        with pytest.raises(DomainError, match="^word length 1 is not a positive even number$"):
            word_to_matrix((3,))

    def test_rejects_non_integral(self):
        # refused before a product is built or an entry is formatted
        for word in ((1.5, 1), (2.5, 0.4)):
            with pytest.raises(DomainError, match="integers"):
                word_to_matrix(word)


class TestMatrixToWord:
    def test_examples(self):
        assert matrix_to_word(Mat2(2, 1, 1, 1)).entries == (1, 1)
        assert matrix_to_word(Mat2(22, 3, 7, 1)).entries == (3, 7)

    def test_parabolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            matrix_to_word(Mat2(1, 1, 0, 1))

    def test_proper_power_rejected(self):
        g = word_to_matrix((1, 2))
        with pytest.raises(NotPrimitive):
            matrix_to_word(g @ g)
        with pytest.raises(NotPrimitive):
            matrix_to_word(g.power(3))

    def test_errors_on_huge_entries(self, monkeypatch):
        # str() of an int of more than 4,300 digits raises ValueError; every
        # message must still format
        start = time.perf_counter()
        with pytest.raises(NotPrimitive, match="bit int"):
            matrix_to_word(word_to_matrix((2**8000, 3)).power(2))
        with pytest.raises(NotHyperbolic, match="bit int"):
            matrix_to_word(-word_to_matrix((2**16000, 3)))
        assert time.perf_counter() - start < 1.0
        monkeypatch.setattr(geodesics, "_WALK_STEPS", 50)
        with pytest.raises(CapExceeded, match="bit int"):
            matrix_to_word(word_to_matrix((2**16000,) + (1,) * 101))

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            n = 2 * rng.randint(1, 3)
            w = tuple(rng.randint(1, 9) for _ in range(n))
            if not is_primitive(w):
                continue
            g = word_to_matrix(w)
            tau = Mat2(1, rng.randint(-9, 9), 0, 1) @ Mat2(0, -1, 1, 0) @ Mat2(
                1, rng.randint(-9, 9), 0, 1
            )
            conj = tau @ g @ tau.inverse()
            assert matrix_to_word(conj).entries == canonical_form(w).entries

    def test_mirror_classes_distinct(self):
        assert matrix_to_word(word_to_matrix((1, 2))).entries == (1, 2)
        assert matrix_to_word(word_to_matrix((2, 1))).entries == (2, 1)

    def test_matches_reference_on_seeded_inputs(self):
        # conjugates of either sign, every fifth a proper power and every
        # seventh shifted past 2^64 by a conjugation with a huge T power
        rng = random.Random(1)
        big = Mat2(1, 2**70 + 3, 0, 1)
        outcomes = set()
        for i in range(20000):
            g = verify._random_hyperbolic(rng)
            if i % 5 == 0:
                g = g.power(rng.randint(2, 3))
            if i % 7 == 0:
                g = big @ g @ big.inverse()
            expect = outcome(reference_matrix_to_word, g)
            assert outcome(matrix_to_word, g) == expect, g
            outcomes.add(expect if isinstance(expect, type) else tuple)
        assert outcomes == {tuple, NotHyperbolic, NotPrimitive}

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.lists(st.integers(1, 2**66), min_size=1, max_size=5),
        st.integers(1, 3),
        st.integers(-2**66, 2**66),
        st.integers(-2**66, 2**66),
    )
    def test_matches_reference_property(self, block, power, m, n):
        # an odd block is doubled, which is primitive; power > 1 is not
        w = tuple(block) * (1 + len(block) % 2) * power
        tau = Mat2(1, m, 0, 1) @ Mat2(0, -1, 1, 0) @ Mat2(1, n, 0, 1)
        g = tau @ word_to_matrix(w) @ tau.inverse()
        assert outcome(matrix_to_word, g) == outcome(reference_matrix_to_word, g)

    def test_cycle_is_primitive(self):
        # the walk returns after the least even multiple of its states' period,
        # so its cycle is no power of a shorter even block, and only the product
        # check refuses: every word of 2 to 6 digits in 1..4, squared and cubed
        short = [w for n in (2, 4) for w in itertools.product(range(1, 5), repeat=n)]
        powers = [w * k for w in short for k in (2, 3)]
        for w in short + list(itertools.product(range(1, 5), repeat=6)) + powers:
            g = word_to_matrix(w)
            _, _, cycle, _ = _reduced_cycle(g.trace, g.a - g.d, 2 * g.c)
            assert geodesics._least_even_rotation(tuple(cycle))[1] == len(cycle), w
            if is_primitive(w):
                assert matrix_to_word(g) == canonical_form(w)
            else:
                with pytest.raises(NotPrimitive):
                    matrix_to_word(g)

    def test_huge_entries(self):
        g = Mat2(10**400, 10**400 - 1, 1, 1)
        assert matrix_to_word(g) == reference_matrix_to_word(g)
        for w in ((1, 100000), (3, 2, 3, 2, 3, 2, 2, 2, 3, 3, 1, 3)):
            assert matrix_to_word(word_to_matrix(w)).entries == canonical_form(w).entries


class TestUncheckedWordsAreCanonical:
    """Every CyclicWord the module builds without checking it again equals the
    one that the checked constructor builds from its entries."""

    @staticmethod
    def check(word):
        assert type(word) is CyclicWord
        assert all(type(a) is int for a in word.entries)
        assert word == CyclicWord(word.entries)

    def test_census_rows_iteration_and_indexing(self):
        census = enumerate_by_trace(trace_cap_for_length(12.0))
        assert len(census) == 14904
        for entries, _, _, _ in census.rows():
            assert all(type(a) is int for a in entries)
            assert CyclicWord(entries).entries == entries
        for rec in census:
            self.check(rec.word)

    def test_matrix_to_word_on_conjugates(self):
        rng = random.Random(17)
        words = [(1, 8000), (2, 5000, 3, 9000)]
        while len(words) < 300:
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 4)))
            if is_primitive(w):
                words.append(w)
        for w in words:
            tau = verify._random_element(rng, 12)
            g = tau @ word_to_matrix(w) @ tau.inverse()
            word = matrix_to_word(g)
            self.check(word)
            assert word.entries == _min_even_rotation(w)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.integers(1, 2**66), min_size=1, max_size=8))
    def test_canonical_form(self, entries):
        w = tuple(entries) * (1 + len(entries) % 2)
        self.check(canonical_form(w))


def is_reduced(g):
    """alpha > 1 and -1 < alpha' < 0 for the fixed points (a - d +- sqrt(D)) / (2c), exactly."""
    a, b, c, d = g.entries()
    root = isqrt_checked(g.trace**2 - 4)
    # sqrt(D) is irrational, so x < sqrt(D) iff x <= root
    return c > 0 and 2 * c - (a - d) <= root and a - d <= root < a - d + 2 * c


def walk(g):
    """(P, Q, digits, product) of the walk from g's state (a - d, 2c)."""
    return _reduced_cycle(g.trace, g.a - g.d, 2 * g.c)


def state_matrix(t, P, Q):
    """The matrix (a b; c d) of trace t with a - d = P and 2c = Q, checked to be integral."""
    D = t * t - 4
    assert (t + P) % 2 == 0 and Q % 2 == 0 and (D - P * P) % (2 * Q) == 0
    return Mat2((t + P) // 2, (D - P * P) // (2 * Q), Q // 2, (t - P) // 2)


class TestReducedConjugate:
    """The walk's first reduced state (P, Q), the reduced conjugate that
    matrix_to_word and the routes' axis read."""

    def test_word_products_returned_as_they_are(self):
        rng = random.Random(11)
        for _ in range(300):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 4)))
            g = word_to_matrix(w)
            P, Q, digits, product = walk(g)
            assert (P, Q) == (g.a - g.d, 2 * g.c)
            assert product == word_to_matrix(digits).entries()
            if reference_is_primitive(w):
                assert tuple(digits) == w and product == g.entries()

    def test_conjugates_reduced_in_the_same_class(self):
        rng = random.Random(13)
        cases = [((1, 1), Mat2(2**1100, 2**1100 * (3 - 2**1100) - 1, 1, 3 - 2**1100))]
        for _ in range(300):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 4)))
            if not reference_is_primitive(w):
                continue
            tau = verify._random_element(rng, 12)
            g = tau @ word_to_matrix(w) @ tau.inverse()
            cases.append((w, g if g.trace > 0 else -g))
        for w, g in cases:
            t = g.trace
            P, Q, _, _ = walk(g)
            assert (t * t - 4 - P * P) % Q == 0
            red = state_matrix(t, P, Q)
            assert is_reduced(red)
            assert is_reduced(g) == (red == g)
            assert matrix_to_word(red) == matrix_to_word(g) == canonical_form(w)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            walk(Mat2(1, 1, 0, 1))
        with pytest.raises(NotHyperbolic):
            walk(-word_to_matrix((1, 2)))


def one_loop_walk(t, P, Q):
    """_reduced_cycle as one loop that tests every even state for reducedness and
    steps with the general floor, reading geodesics._WALK_STEPS as it does; the
    period's product is multiplied out afterwards, from its digits."""
    if t <= 2:
        raise NotHyperbolic(f"trace {t} (need trace > 2)")
    D = t * t - 4
    root = isqrt_checked(D)
    start, digits = None, []
    for _ in range(geodesics._WALK_STEPS // 2 + 1):
        if start is None and Q - root <= P <= root < P + Q:
            start, digits = (P, Q), []
        elif (P, Q) == start:
            return P, Q, digits, geodesics._word_product_entries(digits)
        for _ in range(2):
            a = floor_quadratic(P, Q, root)
            P = a * Q - P
            Q = (D - P * P) // Q
            digits.append(a)
    raise CapExceeded(f"the walk did not cycle in {geodesics._WALK_STEPS} steps")


def steps_to_reduced(t, P, Q):
    """Steps the walk takes from (P, Q) to its first reduced even state."""
    root = isqrt_checked(t * t - 4)
    steps = 0
    while not Q - root <= P <= root < P + Q:
        for _ in range(2):
            P = floor_quadratic(P, Q, root) * Q - P
            Q = (t * t - 4 - P * P) // Q
        steps += 2
    return steps


class TestTwoPhaseWalk:
    """_reduced_cycle tests reducedness only until the state is reduced, then
    walks the period with Q > 0: the same states, digits and cap as one loop."""

    @staticmethod
    def starts():
        """(t, P, Q) of conjugates of either sign of seeded words and squares of
        words, every third by a product of 30 factors T^n S, n in 2..5, which
        puts the start dozens of steps from reduced."""
        rng = random.Random(23)
        out = []
        while len(out) < 600:
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 3)))
            tau = verify._random_element(rng, 8)
            if len(out) % 3 == 0:
                for _ in range(30):
                    tau = tau @ word_factor_matrix(("T", rng.randint(2, 5))) @ S
            g = tau @ word_to_matrix(w * rng.randint(1, 2)) @ tau.inverse()
            g = g if g.trace > 0 else -g
            out.append((g.trace, g.a - g.d, 2 * g.c))
        return out

    @staticmethod
    def outcome(walk, start):
        """What walk returns from start, or CapExceeded if it raises that."""
        try:
            return walk(*start)
        except CapExceeded:
            return CapExceeded

    def test_matches_one_loop(self):
        starts = self.starts()
        for start in starts:
            assert _reduced_cycle(*start) == one_loop_walk(*start), start
        # the product the walk multiplies out as it reads the digits, from
        # starts of either sign of c
        assert any(Q < 0 for _, _, Q in starts) and any(Q > 0 for _, _, Q in starts)
        assert max(steps_to_reduced(*start) for start in starts) >= 40

    def test_cap_as_one_loop(self, monkeypatch):
        # every cap from 0 to 24 steps: starts are cut before they are reduced,
        # after it, and just before and at their return
        starts = self.starts()[:120]
        raised = 0
        for cap in range(25):
            monkeypatch.setattr(geodesics, "_WALK_STEPS", cap)
            for start in starts:
                got = self.outcome(_reduced_cycle, start)
                assert got == self.outcome(one_loop_walk, start), (cap, start)
                raised += got is CapExceeded
        assert 0 < raised < 25 * len(starts)
        monkeypatch.setattr(geodesics, "_WALK_STEPS", 4)
        with pytest.raises(CapExceeded, match="did not cycle in 4 steps"):
            _reduced_cycle(*starts[0])


class TestTraceCap:
    def test_values(self):
        assert trace_cap_for_length(geodesic_length(5)) == 5
        assert trace_cap_for_length(14.0) == int(2 * math.cosh(7.0))
        # a bound equal to a trace's own length must admit that trace
        for n in range(3, 22026 + 1):
            assert trace_cap_for_length(geodesic_length(n)) == n

    @pytest.mark.parametrize("max_length", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_refused(self, max_length):
        # math.floor would raise ValueError on nan and OverflowError on inf
        with pytest.raises(DomainError, match="not finite"):
            trace_cap_for_length(max_length)

    def test_matches_the_stepping_rule(self):
        # the rule's definition: from the float floor of 2 cosh(T/2), step up
        # one trace at a time while the next trace's length is within 1e-12 of T
        rng = random.Random(13)
        for T in [rng.uniform(0.0, 70.0) for _ in range(2000)] + [0.0, 1.0, 70.0]:
            cap = math.floor(2.0 * math.cosh(T / 2.0))
            while geodesic_length(cap + 1) <= T + 1e-12:
                cap += 1
            assert trace_cap_for_length(T) == cap, T

    def test_below_the_shortest_length(self):
        for T in (-1e6, -5.0, 0.0, geodesic_length(3) - 1e-6):
            assert trace_cap_for_length(T) == 2

    @pytest.mark.parametrize("T", [84.0, 100.0, 710.0, 1400.0])
    def test_large_bound_at_once(self, T):
        start = time.perf_counter()
        cap = trace_cap_for_length(T)
        assert time.perf_counter() - start < 0.1
        assert geodesic_length(cap) == pytest.approx(T, rel=1e-14)

    @pytest.mark.parametrize("T", [1500.0, 1e6, 10**400])
    def test_past_the_range_of_cosh_refused(self, T):
        with pytest.raises(DomainError, match="float range"):
            trace_cap_for_length(T)

    @pytest.mark.parametrize("n", [4, 9, 17])
    def test_boundary_included(self, n):
        t = geodesic_length(n)
        records = enumerate_geodesics(EnumerationConfig(max_length=t))
        assert max(r.trace for r in records) == n


class TestEnumerate:
    def test_cap_five(self):
        records = enumerate_by_trace(5)
        got = [(r.word.entries, r.trace, r.psi) for r in records]
        assert got == [
            ((1, 1), 3, 0),
            ((1, 2), 4, -1),
            ((2, 1), 4, 1),
            ((1, 3), 5, -2),
            ((3, 1), 5, 2),
        ]

    def test_records_consistent(self):
        records = enumerate_by_trace(40)
        for r in records:
            m = word_to_matrix(r.word)
            assert m.trace == r.trace
            assert r.length == pytest.approx(geodesic_length(r.trace))
            assert psi_cf(r.word) == psi(m) == r.psi

    def test_deterministic_order(self):
        records = enumerate_by_trace(25)
        keys = [(r.trace, r.word.entries) for r in records]
        assert keys == sorted(keys)

    def test_length_bound_guard(self):
        with pytest.raises(CapExceeded):
            EnumerationConfig(max_length=20.5)
        with pytest.raises(CapExceeded):
            EnumerationConfig(max_length=0.0)

    def test_growth_sane(self):
        records = enumerate_geodesics(EnumerationConfig(max_length=11.0))
        pi = lambda t: sum(1 for r in records if r.length <= t)
        counts = [pi(t) for t in (8.0, 9.0, 10.0, 11.0)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]


class TestBruteForce:
    def test_trace_three(self):
        assert [w.entries for w in brute_force_classes(3)] == [(1, 1)]

    def test_no_hyperbolic_below_three(self):
        assert brute_force_classes(2) == []

    def test_cap_five(self):
        words = {w.entries for w in brute_force_classes(5)}
        assert words == {(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)}

    def test_matches_enumeration_at_ten(self):
        brute = {w.entries for w in brute_force_classes(10)}
        direct = {r.word.entries for r in enumerate_by_trace(10)}
        assert brute == direct

    def test_cap_guard(self):
        with pytest.raises(CapExceeded):
            brute_force_classes(51)


class TestOrientationInvolution:
    def test_reversal_closure(self):
        records = enumerate_by_trace(30)
        by_word = {r.word.entries: r for r in records}
        for r in records:
            rev = canonical_form(r.word.entries[::-1])
            assert rev.entries in by_word
            assert by_word[rev.entries].psi == -r.psi

    def test_inert_words_have_zero_psi(self):
        records = enumerate_by_trace(60)
        for r in records:
            n = len(r.word.entries)
            half = r.word.entries[: n // 2]
            if (n // 2) % 2 == 1 and r.word.entries == half * 2:
                assert r.psi == 0


class TestCensus:
    def test_matches_reference_at_length_twelve(self):
        cap = trace_cap_for_length(12.0)
        census = enumerate_by_trace(cap)
        expect = reference_census(cap)
        assert len(expect) == 14904
        assert rows(census) == expect

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(min_value=3, max_value=80))
    def test_matches_reference_property(self, cap):
        assert rows(enumerate_by_trace(cap)) == reference_census(cap)

    def test_columns(self):
        census = enumerate_by_trace(60)
        assert [c.dtype for c in (census.trace, census.psi, census.counts()[3])] == [
            np.uint16,
            np.int16,
            np.float64,
        ]
        assert [block.dtype for block in census.words] == [np.uint16] * len(census.words)
        assert census.walk_index.dtype == np.int32
        assert not hasattr(census, "length")
        # one length per trace, bit for bit the scalar formula
        assert all(length == geodesic_length(trace) for _, trace, length, _ in census.rows())

    def test_lengths_are_geodesic_length_up_to_the_cap(self):
        # the census's length table, one entry a trace from 3 to its largest,
        # bit for bit the scalar formula wherever a census can reach
        census = Census(np.array([MAX_TRACE_CAP], np.uint16), np.zeros(1, np.int16), (), [])
        assert census._lengths.tolist() == [geodesic_length(t) for t in range(3, MAX_TRACE_CAP + 1)]

    def test_row_views(self):
        census = enumerate_by_trace(30)
        n = len(census)
        listed = list(census)
        assert len(listed) == n
        # iteration is in row order
        assert [(r.word.entries, r.trace, r.length, r.psi) for r in listed] == list(census.rows())
        rec = listed[-1]
        assert isinstance(rec, GeodesicRecord) and isinstance(rec.word, CyclicWord)
        assert {type(rec.trace), type(rec.psi), type(rec.length)} == {int, float}
        assert all(type(a) is int for a in rec.word.entries)
        assert rec in listed and rec in census and len(set(listed)) == n
        with pytest.raises(TypeError):
            census[0]

    def test_rows_are_the_indexed_rows(self):
        # 14,904 rows: four chunks, the last one partial
        census = enumerate_by_trace(trace_cap_for_length(12.0))
        listed = list(census.rows())
        assert len(listed) == len(census)
        assert list(census.rows(np.arange(len(census)))) == listed
        entries, trace, length, psi = listed[-1]
        assert {type(trace), type(length), type(psi), type(entries[0])} == {int, float}

    def test_rows_at_indices(self):
        census = enumerate_by_trace(trace_cap_for_length(12.0))
        listed = list(census.rows())
        n = len(listed)
        for picks in (
            [7, 3, 7, 0, n - 1, 3, 3],
            [-1, -n, 5, -5],
            [],
            list(range(4090, 4100)),
            # 4,095, 4,096 and 4,097 indices: a chunk one short, a full chunk,
            # and one index past the chunk edge
            list(range(4095)),
            list(range(n - 1, n - 4097, -1)),
            list(range(n - 1, n - 4098, -1)),
        ):
            expect = [listed[i] for i in picks]
            assert list(census.rows(picks)) == expect
            assert list(census.rows(np.array(picks, np.int32))) == expect
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                list(census.rows([0, i]))
        with pytest.raises(IndexError):
            list(enumerate_by_trace(2).rows([0]))
        # numpy would read booleans as a mask: all five rows, or rows 0, 2 and 4
        small = enumerate_by_trace(5)
        assert len(small) == 5
        for picks in (
            [True] * 5,
            [True, False, True, False, True],
            np.array([1.0, 2.0]),
            [0.5],
            # not one axis: numpy failed on these with messages about its internals
            2,
            np.array([[0, 1], [2, 3]]),
            [[0], [1]],
        ):
            with pytest.raises(TypeError, match="row indices must be 1-D integers"):
                list(small.rows(picks))
        assert list(small.rows(np.array([], np.int64))) == []

    def test_rows_with_entry_at_least(self):
        census = enumerate_by_trace(trace_cap_for_length(12.0))
        maxima = [max(entries) for entries, _, _, _ in census.rows()]
        assert 50 in maxima
        # bounds below 0 and past 2^16 too: numpy 2 compares the uint16 words
        # with an out-of-range Python int by value, with no wrap
        edges = (-1, 0, 1, 400, 2**16 - 1, 2**16, 2**70)
        for bound in (*edges, 49, 50, 51, max(maxima), max(maxima) + 1):
            picked = census.rows_with_entry_at_least(bound).tolist()
            assert picked == [i for i, top in enumerate(maxima) if top >= bound]
        assert [len(census.rows_with_entry_at_least(bound)) for bound in edges] == [14904] * 3 + [4] + [0] * 3

    def test_columns_read_only(self):
        # the commands (tests/test_cli.py) and the demos (tests/test_exports.py)
        # run on these read-only columns too
        census = enumerate_by_trace(30)
        columns = [getattr(census, name) for name in ("trace", "psi", "walk_index")] + list(census.words)
        # the lengths are read through the count table
        for column in columns + [census.counts()[3]]:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        assert census.psi.tolist() == [rec.psi for rec in census]

    def test_empty(self):
        census = enumerate_by_trace(2)
        assert isinstance(census, Census)
        assert len(census) == 0 and list(census) == [] and list(census.rows()) == []
        assert census.rows_with_entry_at_least(1).size == 0


class TestLevelWalk:
    """The level-by-level census against the recursive walk, row by row."""

    @staticmethod
    def check(cap):
        census = enumerate_by_trace(cap)
        # a stable sort of the lexicographic walk by trace is the row order
        expect = sorted(reference_lyndon_walk(cap), key=lambda row: row[1])
        got = [(entries, trace, psi, length) for entries, trace, length, psi in census.rows()]
        assert got == [(word, trace, psi, geodesic_length(trace)) for word, trace, psi in expect]

    @pytest.mark.parametrize("cap", [2, 3, 4, 5])
    def test_root_and_empty_frontier(self, cap):
        self.check(cap)

    @pytest.mark.parametrize("T", [12.0, 13.0])
    def test_length_caps(self, T):
        self.check(trace_cap_for_length(T))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(min_value=3, max_value=400))
    def test_matches_reference_property(self, cap):
        self.check(cap)


def sha256(column):
    return hashlib.sha256(column.tobytes()).hexdigest()


# (dtype, sha256 of the bytes as int32) of each column, taken from the walk
# that gathered by fancy indexing: the rows, and the words laid end to end as
# digits, with the bounds start and stop of each row's word there
CENSUS_COLUMNS = {
    12.0: {
        "trace": ("uint16", "5ced32822bbab7776ec43dd4c69713c872e4b4d83c3ae2253b19023cc28fe825"),
        "psi": ("int16", "357ed822ee33cb084c9e713af3651617098b633d01edf2dafe388497cced20e5"),
        "start": ("int32", "03e859fa4c2198653e1ba3d1f50181704902f8036b002d3e544f2a93c82c73ee"),
        "stop": ("int32", "ff53e798322bdfc8ca6f9ba4b4d1149f0f0c07a2eb289051449508998b5e3089"),
        "digits": ("uint16", "ce90fdeb6e53c41d70fa3dea3933b2e7ed013c3aeb587270ed824112e8cdd1c5"),
    },
    15.0: {
        "trace": ("uint16", "1e5a11fa1353ec77d49676a5802f6f3320d2ba1f728233825f616bea55f802ea"),
        "psi": ("int16", "daaad191e4dc2b0129d84aca0781c875ecb8380876434029fe98619b958599c3"),
        "start": ("int32", "d680f8f84fd6ba69f80277fa7feb3ced4309f93589cc422e87ba7b329df859ff"),
        "stop": ("int32", "cbd32fbd0245058f191a202248ee2346b73d3524326af6d3b842e1eb2f42bc71"),
        "digits": ("uint16", "837b3959300c46535af44e5f9fd527228cd767370ed84423f3d650e6def0c9f1"),
    },
}
# (trace, psi, count, length) of counts() at T = 15
COUNT_TABLE_15 = [
    ("int64", "106e20a948f548a116a01fb72fb0a4b0513039b23339d34cf1b47524bc4c03cf"),
    ("int64", "fa380a672f545b950551aa09455bcbfeb239b257b9da4fb42e7230128c7af9b7"),
    ("int64", "bc2bafd7e12714589f058bde394c832180ff7f8f4d2c1f3896f4ffba8a7ed4d4"),
    ("float64", "97d6fb5ec80c9fa5d9f6cc29379b5eda9646fa31ecdd03e857cd13c03b84745d"),
]


class TestPinnedCensus:
    """The census bit for bit: the columns, their dtypes and the digit layout."""

    @staticmethod
    def flat_layout(census):
        """(digits, start, stop): the blocks laid end to end and each row's bounds there."""
        first = np.cumsum([0] + [block.size for block in census.words[:-1]])
        # the bounds of each word in walk order, then of row i's, word walk_index[i]
        start = np.concatenate([at + block.shape[1] * np.arange(len(block)) for at, block in zip(first, census.words)])
        stop = start + np.concatenate([np.full(len(block), block.shape[1]) for block in census.words])
        start, stop = (np.take(x, census.walk_index).astype(np.int32) for x in (start, stop))
        digits = np.concatenate([block.ravel() for block in census.words])
        return {"digits": digits, "start": start, "stop": stop}

    @pytest.mark.parametrize("T", sorted(CENSUS_COLUMNS))
    def test_columns(self, T):
        census = enumerate_geodesics(EnumerationConfig(max_length=T))
        columns = {"trace": census.trace, "psi": census.psi, **self.flat_layout(census)}
        got = {name: (column.dtype.name, sha256(column.astype(np.int32))) for name, column in columns.items()}
        assert got == CENSUS_COLUMNS[T]

    def test_count_table(self):
        table = enumerate_geodesics(EnumerationConfig(max_length=15.0)).counts()
        assert [(column.dtype.name, sha256(column)) for column in table] == COUNT_TABLE_15


class TestWordBlocks:
    """The row layout at T = 12: one word block a word length, and each row's walk index."""

    @pytest.fixture(scope="class")
    def census(self):
        return enumerate_geodesics(EnumerationConfig(max_length=12.0))

    def test_blocks_are_read_only_uint16_by_word_length(self, census):
        assert len(census.words) == 6
        for n, block in enumerate(census.words):
            assert block.dtype == np.uint16 and block.ndim == 2 and block.shape[1] == 2 * (n + 1)
            assert not block.flags.writeable

    def test_walk_index_addresses_every_block_row_once(self, census):
        # row i is word walk_index[i] of the blocks laid end to end
        assert sorted(census.walk_index.tolist()) == list(range(sum(len(block) for block in census.words)))

    def test_bytes_a_class_and_a_digit(self, census):
        columns = (census.trace, census.psi, census.walk_index)
        digits = sum(block.size for block in census.words)
        held = sum(column.nbytes for column in columns) + sum(block.nbytes for block in census.words)
        # uint16 trace, int16 psi, int32 walk index and uint16 digits
        assert held == 8 * len(census) + 2 * digits

    @staticmethod
    def held_bytes(census):
        """Bytes of the census's arrays of one value a class and of its word
        blocks: not the tree, the per-trace lengths or the count tables."""
        arrays = [getattr(census, name) for name in type(census).__slots__]
        per_class = [x for x in arrays if isinstance(x, np.ndarray) and len(x) == len(census)]
        return sum(x.nbytes for x in per_class) + sum(block.nbytes for block in census.words)

    def test_statistics_keep_no_layout_column(self):
        # the statistics of the benchmark's census workload, which need no row
        # order; the first column read orders the rows and keeps the walk index
        T = 12.0
        census = enumerate_geodesics(EnumerationConfig(max_length=T))
        density_table(winding_histogram(census, T), range(-5, 6))
        cauchy_compare(census, T)
        for q in (2, 3, 5):
            equidistribution(census, T, q)
        for r in [round(-0.45 + 0.05 * k, 2) for k in range(19)]:
            twisted_sum(census, T, r)
        n, digits = len(census), sum(block.size for block in census.words)
        assert self.held_bytes(census) == 4 * n + 2 * digits
        census.trace
        assert self.held_bytes(census) == 8 * n + 2 * digits


class TestExpansionStep:
    """geodesics._expand on slices of a frontier gives the slices of one call."""

    @staticmethod
    def expand(cap, frontier, parts):
        # the frontier in `parts` slices, some empty, each expanded on its own:
        # the children's columns, the classes' columns and word block, and the
        # next frontier, each concatenated across the slices
        cuts = np.linspace(0, len(frontier[0]), parts + 1).astype(int)
        nodes, rows, nexts = [], [], []
        for lo, hi in zip(cuts, cuts[1:]):
            (offsets, is_class, keep), row, after = geodesics._expand(cap, [x[lo:hi] for x in frontier])
            nodes.append((np.diff(offsets), is_class, keep))
            rows.append(row)
            nexts.append(after)
        join = lambda pieces: [np.concatenate(column) for column in zip(*pieces)]
        return join(nodes) + join(rows), join(nexts)

    def test_slices_equal_one_call(self):
        cap = trace_cap_for_length(12.0)
        # the root: product (1 0; 0 1), w 0, period 1, (a0, b0) = (1, 1) and
        # the empty word with its two spare digits
        frontier = [np.array([x], np.int32) for x in (1, 0, 0, 1, 0, 1, 1, 1)] + [np.empty((1, 2), np.uint16)]
        blocks = []
        while len(frontier[0]):
            level, after = self.expand(cap, frontier, 1)
            # the spare digits of the next frontier's words are not written yet
            whole = level + after[:-1] + [after[-1][:, :-2]]
            for parts in (2, 7):
                children, sliced = self.expand(cap, frontier, parts)
                got = children + sliced[:-1] + [sliced[-1][:, :-2]]
                assert [c.dtype for c in got] == [c.dtype for c in whole]
                assert all(np.array_equal(g, c) for g, c in zip(got, whole))
            blocks.append(level[-1])
            frontier = after
        # one call a level is the census's walk
        assert len(blocks) == 6
        walk = geodesics._fkm_levels(cap)[3]
        assert len(walk) == 6 and all(np.array_equal(got, block) for got, block in zip(blocks, walk))
        assert [block.dtype for block in blocks] == [block.dtype for block in walk]


class TestPrunedWalk:
    """The walk keeps a child for the next level only if it has a child."""

    @pytest.mark.parametrize("cap", [403, 1808])
    def test_every_node_below_the_root_has_a_child(self, cap):
        tree = geodesics._fkm_levels(cap)[0]
        for (_, _, keep), (below, _, _) in zip(tree, tree[1:]):
            assert keep.sum() == len(below) - 1
            assert (np.diff(below) > 0).all()
        assert not tree[-1][2].any()

    def test_frontier_rows_at_length_fifteen(self):
        tree = geodesics._fkm_levels(trace_cap_for_length(15.0))[0]
        # the nodes below the root, level by level
        nodes = [len(offsets) - 1 for offsets, _, _ in tree[1:]]
        assert nodes == [919, 6756, 9890, 4684, 629, 30]
        assert sum(nodes) == 22_908

    def test_liveness_cannot_wrap_in_int32(self):
        # a hand-built node at the largest cap: product (1 0; 0 1), period 1,
        # repeated pair (1, 1) and first pair (cap - 2, cap - 2).  Its child
        # (a, b) is (ab + 1, a; b, 1); the first, (1, 1), repeats itself and
        # every other child repeats the first pair
        cap, big = MAX_TRACE_CAP, MAX_TRACE_CAP - 2
        frontier = [np.array([x], np.int32) for x in (1, 0, 0, 1, 0, 1, 1, 1)]
        frontier.append(np.array([[big, big, 0, 0]], np.uint16))
        (_, is_class, keep), (_, _, words), _ = geodesics._expand(cap, frontier)
        assert is_class.tolist() == [False] + [True] * (len(is_class) - 1)
        a, b = (np.concatenate(([1], words[:, k])).astype(np.int64) for k in (2, 3))
        P, u, R, v = a * b + 1, a, b, 1
        a1, b1 = np.where(is_class, big, a), np.where(is_class, big, b)

        def trace(x, y):  # of the child extended by the pair (x, y), in int64
            return (P * x + u) * y + P + R * x + v

        live = (trace(a1, b1) <= cap) | (trace(a1 + 1, 1) <= cap)
        assert np.array_equal(keep, live)
        assert keep.tolist() == [True] + [False] * (len(keep) - 1)
        # in int32 the repeat pair's product passes 2^31 on tens of thousands
        # of children, and wraps to a trace within the cap on half of them
        product = (P * a1 + u) * b1
        wrapped = product.astype(np.int32) + (P + R * a1 + v).astype(np.int32)
        assert (product >= 2**31).sum() > 20_000
        assert (wrapped <= cap).sum() > 10_000


class TestCensusBudget:
    def test_estimate_tracks_the_census(self):
        assert li(math.exp(15.0)) == pytest.approx(234832, rel=1e-3)
        assert li(math.exp(12.0)) == pytest.approx(14904, rel=1e-2)

    def test_over_budget_refused_up_front(self):
        EnumerationConfig(max_length=MAX_LENGTH_BOUND)
        EnumerationConfig(max_length=15.0)
        with pytest.raises(CapExceeded, match="outside"):
            EnumerationConfig(max_length=math.nextafter(MAX_LENGTH_BOUND, math.inf))

    def test_cap_is_the_last_within_the_memory_budget(self):
        # li(e^T) classes at 140 B a class against 512 MiB, T the length of the cap
        def priced(cap):
            return 140 * li(math.exp(geodesic_length(cap)))

        assert priced(MAX_TRACE_CAP) <= 512 * 2**20 < priced(MAX_TRACE_CAP + 1)
        assert MAX_LENGTH_BOUND == geodesic_length(MAX_TRACE_CAP)

    def test_estimate_past_the_float_range(self):
        # math.exp overflows from T of about 709.78 on; the census refuses
        # such a T by its bound, without the estimate
        assert li(math.exp(709.0)) < math.inf
        for T in (710.0, 1e6):
            with pytest.raises(CapExceeded):
                EnumerationConfig(max_length=T)

    @pytest.mark.parametrize(
        "call, error",
        [
            # str() of an int past 4,300 digits raises ValueError
            (lambda: EnumerationConfig(10**5000), CapExceeded),
            (lambda: verify.run_all(max_length=10**5000), CapExceeded),
            # str() of a Fraction formats its numerator, past 4,300 digits here
            (lambda: EnumerationConfig(Fraction(10**5000)), CapExceeded),
            (lambda: EnumerationConfig(Fraction(-(10**5000))), CapExceeded),
            (lambda: verify.run_all(max_length=Fraction(10**5000)), CapExceeded),
            # within MAX_LENGTH_BOUND, but past verify's cap
            (lambda: verify.run_all(max_length=Fraction(16 * 10**5000 + 1, 10**5000)), CapExceeded),
            (lambda: EnumerationConfig("15"), DomainError),
            (lambda: EnumerationConfig(None), DomainError),
            (lambda: EnumerationConfig(1 + 0j), DomainError),
            (lambda: trace_cap_for_length("12"), DomainError),
            (lambda: trace_cap_for_length(None), DomainError),
        ],
        ids=[
            "huge-int",
            "run-all-huge-int",
            "huge-fraction",
            "huge-negative-fraction",
            "run-all-huge-fraction",
            "run-all-long-fraction",
            "str",
            "none",
            "complex",
            "cap-str",
            "cap-none",
        ],
    )
    def test_length_bound_refused_by_kind(self, call, error):
        with pytest.raises(error):
            call()

    def test_numpy_float_length_bound_accepted(self):
        assert EnumerationConfig(np.float32(12.0)).max_length == 12.0
        assert trace_cap_for_length(np.float32(12.0)) == trace_cap_for_length(12.0) == 403

    @pytest.mark.parametrize("cap", [MAX_TRACE_CAP + 1, 10**5, 10**400])
    def test_trace_cap_over_budget_refused_up_front(self, cap):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="MAX_TRACE_CAP"):
            enumerate_by_trace(cap)
        assert time.perf_counter() - start < 1.0

    def test_trace_cap_reads_the_same_guard(self):
        # the length bound names the largest cap, which enumerate_by_trace accepts,
        # and the next float names no larger cap
        assert trace_cap_for_length(MAX_LENGTH_BOUND) == MAX_TRACE_CAP
        assert trace_cap_for_length(math.nextafter(MAX_LENGTH_BOUND, math.inf)) == MAX_TRACE_CAP

    def test_caps_below_2_to_the_16(self):
        # enumerate_by_trace refuses every cap past MAX_TRACE_CAP.  Digits and
        # traces are at most the cap, for the uint16 words and trace, and
        # |psi| <= trace - 3, for the int16 psi.  ROADMAP item 5 raises the cap
        # toward T = 20, cap 22,026, still inside both limits; a raise past
        # either fails here first
        assert MAX_TRACE_CAP < 2**16
        assert MAX_TRACE_CAP - 3 < 2**15
        with pytest.raises(CapExceeded):
            enumerate_by_trace(2**16)
        cap = trace_cap_for_length(15.0)
        census = enumerate_by_trace(cap)
        # the word (cap - 2, 1) has the largest digit and trace, and it and its
        # reversal the largest |psi|
        largest = {
            "digit": (max(int(block.max()) for block in census.words), census.words[0].dtype),
            "trace": (int(census.trace.max()), census.trace.dtype),
            "psi": (int(np.abs(census.psi.astype(np.int32)).max()), census.psi.dtype),
        }
        assert {name: top for name, (top, _) in largest.items()} == {"digit": cap - 2, "trace": cap, "psi": cap - 3}
        assert all(top <= np.iinfo(dtype).max for top, dtype in largest.values())

    @pytest.mark.parametrize("cap", [-1, 0, 1, 2])
    def test_cap_below_3_is_empty(self, cap):
        census = enumerate_by_trace(cap)
        assert len(census) == 0
        # the count table's dtypes are those of every other census
        assert [column.dtype for column in census.counts()] == [np.int64, np.int64, np.int64, np.float64]

    def test_traced_peak_within_the_guard(self):
        # the census and its statistics, as the guard's per-class figure counts them
        T = 13.0
        tracemalloc.start()
        try:
            census = enumerate_geodesics(EnumerationConfig(max_length=T))
            winding_histogram(census, T)
            cauchy_compare(census, T)
            for q in (2, 3, 5):
                equidistribution(census, T, q)
            twisted_sums(census, T, [round(-0.45 + 0.05 * k, 2) for k in range(19)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(census) == 37078
        assert peak / len(census) <= 140
