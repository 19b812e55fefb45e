import cmath
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwind import winding
from modwind.errors import (
    CapExceeded,
    DomainError,
    ModwindError,
    NotHyperbolic,
    QuadratureFailure,
)
from modwind.geodesics import _reduced_cycle, word_to_matrix
from modwind.matrices import Mat2, S, T, geodesic_length
from modwind.rademacher import psi, psi_cf
from modwind.winding import (
    DELTA_SERIES,
    E2HOL_SERIES,
    axis_point,
    delta_eval,
    e2_completed,
    e2_period,
    winding_index,
)


def long_words(L, count):
    """count words with digits 1..9 from random.Random(2026), each grown pair by
    pair until its geodesic length reaches L: the survey behind the long-word
    frontier that README and ROADMAP quote."""
    rng = random.Random(2026)
    words = []
    for _ in range(count):
        w = ()
        while not w or geodesic_length(word_to_matrix(w).trace) < L:
            w += (rng.randint(1, 9), rng.randint(1, 9))
        words.append(w)
    return words


def top_conjugate(gamma):
    """(g, k): the exact conjugate g of gamma whose axis the routes follow, and the
    place k, counted along the walk's period from its first reduced state, of the
    first largest digit of the class's word (the period's least even rotation).

    The matrix of the first reduced state (P, Q) of the walk (a - d = P, 2c = Q)
    is conjugated by A_a A_b over each pair of digits before k, and at odd k
    then by S T^-a, a the digit before k.  The fixed points of g are
    (a - d +- sqrt(D)) / 2c, attracting first.
    """
    t = gamma.trace
    P, Q, digits = _reduced_cycle(t, gamma.a - gamma.d, 2 * gamma.c)
    g = Mat2((t + P) // 2, (t * t - 4 - P * P) // (2 * Q), Q // 2, (t - P) // 2)
    rotations = [tuple(digits[r:] + digits[:r]) for r in range(0, len(digits), 2)]
    word = min(rotations)
    k = (2 * rotations.index(word) + word.index(max(word))) % len(digits)
    for i in range(0, k - 1, 2):
        pair = Mat2(digits[i] * digits[i + 1] + 1, digits[i], digits[i + 1], 1)
        g = pair.inverse() @ g @ pair
    if k % 2:
        B = S @ T.power(-digits[k - 1])
        g = B @ g @ B.inverse()
    return g, k


def mobius(g, z):
    return (g.a * z + g.b) / (g.c * z + g.d)


def random_upper_half(rng):
    return complex(rng.uniform(-8, 8), math.exp(rng.uniform(math.log(0.05), 2.0)))


def reduce_to_fundamental(z):
    """(z_red, arg_offset, log_scale) from the batched fold of the one point z, with
    Delta(z) = exp(log_scale + i arg_offset) Delta(z_red) and arg_offset mod 2 pi."""
    z_red, j = (complex(v[0]) for v in winding._reduce(np.array([z], dtype=complex)))
    return z_red, math.remainder(-12.0 * cmath.phase(j), 2 * math.pi), -12.0 * math.log(abs(j))


# Scalar reference for the batched forms layer: the fold one point at a time
# with the matrix as exact Python ints, and Delta and E2 summed by a scalar
# Horner loop.


def scalar_reduce(z):
    a, b, c, d = 1, 0, 0, 1
    w = z
    for _ in range(10000):
        n = round(w.real)
        if n:
            w = complex(w.real - n, w.imag)
            a, b = a - n * c, b - n * d
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b
        else:
            return w, c * z + d
    raise RuntimeError("fold did not terminate")


def scalar_horner(coeffs, q):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def scalar_delta(z):
    """(log|Delta|, arg Delta) at z."""
    z_red, j = scalar_reduce(z)
    tail = scalar_horner(DELTA_SERIES, cmath.exp(2j * math.pi * z_red))
    log_abs = -2 * math.pi * z_red.imag + math.log(abs(tail)) - 12.0 * math.log(abs(j))
    arg = 2 * math.pi * z_red.real + cmath.phase(tail) - 12.0 * cmath.phase(j)
    return log_abs, arg


def scalar_e2(z):
    z_red, j = scalar_reduce(z)
    q = cmath.exp(2j * math.pi * z_red)
    return (scalar_horner(E2HOL_SERIES, q) - 3.0 / (math.pi * z_red.imag)) / (j * j)


def exact_reduce(z):
    """The fold of the float z in exact rationals, with the batched fold's
    rules (nearest integer, S inside |w| < 1 - 1e-15); (z_red, j) rounded once."""
    x, y = Fraction(z.real), Fraction(z.imag)
    limit = Fraction(1.0 - 1e-15) ** 2
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        # w = (a z + b) / (c z + d), Im w = y / |c z + d|^2 since ad - bc = 1
        norm = (c * x + d) ** 2 + (c * y) ** 2
        u = (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / norm
        v = y / norm
        n = round(u)
        u, a, b = u - n, a - n * c, b - n * d
        if u * u + v * v >= limit:
            return complex(u, v), complex(c * x + d, c * y)
        a, b, c, d = -c, -d, a, b
    raise RuntimeError("fold did not terminate")


class TestBatchedLayer:
    # Fixed before the comparison was run: the batched layer reorders no sum,
    # but numpy's complex division and exp may differ from Python's in the
    # last bits, amplified at most by the fold.
    TOL = 1e-12

    def test_matches_scalar_reference(self):
        rng = random.Random(43)
        zs = [random_upper_half(rng) for _ in range(2000)]
        arg = winding._arg_delta(*winding._delta_series(np.array(zs)))
        e2 = winding._e2(np.array(zs))
        for k, z in enumerate(zs):
            ref_log, ref_arg = scalar_delta(z)
            # only delta_eval forms log|Delta|, from the same _delta_series
            log_abs, _ = delta_eval(z)
            assert abs(log_abs - ref_log) <= self.TOL * max(1.0, abs(ref_log))
            # arg[k] is wrapped to [-pi, pi]; ref_arg is not
            assert abs(math.remainder(arg[k] - ref_arg, 2 * math.pi)) <= self.TOL * max(
                1.0, abs(arg[k])
            )
            ref_e2 = scalar_e2(z)
            assert abs(e2[k] - ref_e2) <= self.TOL * max(1.0, abs(ref_e2))

    @pytest.mark.parametrize("form", ["e2", "arg_delta"])
    def test_batch_composition(self, form):
        # e2_period sums its first grid's coarse and fine trapezoid rules from one
        # batch: a point's value must not depend on the points batched with it
        fn = {
            "e2": winding._e2,
            "arg_delta": lambda z: winding._arg_delta(*winding._delta_series(z)),
        }[form]
        rng = random.Random(53)
        z = np.array([random_upper_half(rng) for _ in range(2000)])
        whole = fn(z)
        sliced = np.concatenate([fn(part) for part in np.split(z, [300, 1100])])
        assert np.all(np.abs(whole - sliced) <= 1e-15 * np.maximum(1.0, np.abs(whole)))

    @staticmethod
    def flat_and_steep_nodes():
        """Points either side of the flat height, in both subnormal bands of q
        (56-59.5 and 112-119) and log-uniform in height from 0.05 to 1e4; at
        Im z >= 1 the fold only translates, so the height is the folded one."""
        rng = random.Random(59)
        flat = winding._FLAT_HEIGHT
        heights = [flat, math.nextafter(flat, 0.0), math.nextafter(flat, math.inf), 8.5, 8.7]
        heights += [rng.uniform(56.0, 59.5) for _ in range(100)]
        heights += [rng.uniform(112.0, 119.0) for _ in range(100)]
        heights += [math.exp(rng.uniform(math.log(0.05), math.log(1e4))) for _ in range(500)]
        return np.array([complex(rng.uniform(-8, 8), y) for y in heights])

    def test_flat_tops_match_the_full_series(self):
        z = self.flat_and_steep_nodes()
        y_red = winding._reduce(z)[0].imag
        assert (y_red >= winding._FLAT_HEIGHT).sum() > 300 and (y_red < winding._FLAT_HEIGHT).sum() > 100
        arg = winding._arg_delta(*winding._delta_series(z))
        e2 = winding._e2(z)
        for k, point in enumerate(z.tolist()):
            ref_log, ref_arg = scalar_delta(point)
            log_abs, _ = delta_eval(point)
            assert abs(log_abs - ref_log) <= self.TOL * max(1.0, abs(ref_log))
            assert abs(math.remainder(arg[k] - ref_arg, 2 * math.pi)) <= self.TOL * max(
                1.0, abs(arg[k])
            )
            ref_e2 = scalar_e2(point)
            assert abs(e2[k] - ref_e2) <= self.TOL * max(1.0, abs(ref_e2))

    @pytest.mark.parametrize("form", ["e2", "arg_delta"])
    def test_flat_split_is_per_node(self, form):
        # a batch of flat and steep nodes against each node alone, bit for bit;
        # alone means a batch of two copies, because numpy's in-place complex
        # multiply (in _horner) rounds a one-element array differently
        fn = {
            "e2": winding._e2,
            "arg_delta": lambda z: winding._arg_delta(*winding._delta_series(z)),
        }[form]
        z = self.flat_and_steep_nodes()
        alone = np.concatenate([fn(np.array([point, point]))[:1] for point in z])
        assert np.array_equal(fn(z), alone)

    def test_fold_refuses_inexact_matrix(self):
        # the fold of z = 0.3 + 1e-40 i needs c near 6e16 (Im j = c Im z from
        # the scalar fold's exact ints); its height is far below the float
        # spacing of its real part, so the fold refuses it up front
        _, j = scalar_reduce(0.3 + 1e-40j)
        assert abs(j.imag / 1e-40) > 2.0**52
        with pytest.raises(CapExceeded):
            reduce_to_fundamental(0.3 + 1e-40j)

    @pytest.mark.parametrize("z", [0.3 + 1e-20j, 0.3 + 1e-30j], ids=str)
    def test_fold_refuses_unresolved_point(self, z):
        # Im z is below 2^-52 |Re z|, so no float fold can place z: the exact
        # fold of these floats gives -0.3104 + 8.11e11 i and 0.5 + 81.13 i, a
        # fold with a float matrix -0.25 + 5.63e11 i and -0.375 + 56.34 i
        with pytest.raises(CapExceeded):
            reduce_to_fundamental(z)

    @pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(math.nan, 1e300)], ids=str)
    def test_fold_refuses_nan_real_part(self, z):
        # a NaN real part has no position to fold, like an unresolved point
        with pytest.raises(CapExceeded):
            winding._reduce(np.array([0.3 + 1j, z]))

    @pytest.mark.parametrize(
        "z",
        [complex(0.3, math.nan), complex(math.nan, math.nan), 0.3 + 0j, 0.3 - 1j, -0.3 - 1e-300j],
        ids=str,
    )
    def test_fold_refuses_non_positive_imaginary(self, z):
        with pytest.raises(DomainError, match="Im z = "):
            winding._reduce(np.array([0.3 + 1j, z]))

    @pytest.mark.parametrize("order", [1, -1], ids=["below-first", "unresolved-first"])
    def test_non_positive_imaginary_refused_first(self, order):
        # one batch holding a point below the real axis and an unresolved one
        zs = np.array([0.3 - 1j, 0.3 + 1e-20j][::order])
        with pytest.raises(DomainError, match="Im z = "):
            winding._reduce(zs)

    def test_fold_accepts_point_above_the_limit(self):
        y = 0.3 * 2.0**-52
        for _ in range(16):
            y = math.nextafter(y, math.inf)
        # resolved, if only just: the fold's error scale here is about 1
        z_red, _, _ = reduce_to_fundamental(complex(0.3, y))
        assert abs(z_red.real) <= 0.5 and abs(z_red) >= 1.0 - 1e-15

    def test_fold_matches_exact_rational_fold(self):
        # many S steps: the fold's relative error in z_red (against its height)
        # and in j is about 2^-52 |z| / Im z
        rng = random.Random(47)
        zs = [
            complex(rng.uniform(-4, 4), 10.0 ** rng.uniform(-12, -1)) for _ in range(1000)
        ]
        z_red, j = winding._reduce(np.array(zs))
        for k, z in enumerate(zs):
            ref_z, ref_j = exact_reduce(z)
            scale = 4 * 2.0**-52 * abs(z) / z.imag
            assert abs(z_red[k] - ref_z) / ref_z.imag <= scale
            assert abs(j[k] - ref_j) / abs(ref_j) <= scale


class TestOneEvaluationPerRound:
    @staticmethod
    def counted(monkeypatch, name):
        """Sizes of the batches that winding.<name> receives from now on."""
        sizes = []
        fn = getattr(winding, name)

        def counting(z):
            sizes.append(z.size)
            return fn(z)

        monkeypatch.setattr(winding, name, counting)
        return sizes

    def test_e2_period_first_round_is_one_batch(self, monkeypatch):
        # (1, 2) converges on the first grid: its 2n nodes, n = max(4, ceil(l / 0.25)),
        # give both trapezoid sums from one call
        sizes = self.counted(monkeypatch, "_e2")
        g = word_to_matrix((1, 2))
        assert e2_period(g) == pytest.approx(-1.0, abs=1e-6)
        n = max(4, math.ceil(geodesic_length(g.trace) / winding._PERIOD_STEP))
        assert sizes == [2 * n]

    def test_winding_index_one_delta_batch(self, monkeypatch):
        sizes = self.counted(monkeypatch, "_delta_series")
        res = winding_index(word_to_matrix((1, 2)))
        assert sizes == [res.steps + 1]

    def test_refinement_adds_batches(self, monkeypatch):
        # the second excursion of (1, 60, 1, 40) stays below height 1 on the
        # axis, so only its folded heights split it, in a second round
        delta = self.counted(monkeypatch, "_delta_series")
        res = winding_index(word_to_matrix((1, 60, 1, 40)))
        assert len(delta) == 2 and sum(delta) == res.steps + 1
        # the cusp excursion of (1, 10**7) doubles e2_period's grid: each later
        # batch is the midpoint after each node of the uniform grid so far
        batches = recorded_batches(monkeypatch)
        g = word_to_matrix((1, 10**7))
        assert e2_period(g) == pytest.approx(psi_cf((1, 10**7)), abs=1e-6)
        (grid, _), *later = batches
        assert len(later) >= 2
        for t, _ in later:
            grid = np.sort(grid)
            h = geodesic_length(g.trace) / grid.size
            assert np.abs(np.diff(grid) - h).max() < 1e-12
            assert t.size == grid.size and np.abs(t - (grid + 0.5 * h)).max() < 1e-12
            grid = np.concatenate([grid, t])

    @pytest.mark.parametrize(
        "w", [(1, 60), (3, 200), (1, 3000)], ids=lambda w: "-".join(map(str, w))
    )
    def test_grid_split_in_one_pass(self, monkeypatch, w):
        # one split on the closed-form heights R / cosh t of the cusp excursion,
        # made before any node is evaluated, bounds the argument's turn below
        # pi/2 on every interval of the grid's arms: one round, which the split
        # on the folded heights leaves as it is
        delta = self.counted(monkeypatch, "_delta_series")
        batches = recorded_batches(monkeypatch)
        g = word_to_matrix(w)
        assert winding_index(g).index == psi(g)
        assert len(delta) == 1 and len(batches) == 1
        (t, values), = batches
        assert t.size > first_grid(g).size
        assert np.all(turn_bound(t, values[1])[on_the_arms(t, g)] < 0.5 * math.pi)


def test_flat_nodes_skip_the_series(monkeypatch):
    # the excursion of (1, 240) rises to height 121 through both subnormal
    # bands of q; no node at or above the flat height reaches _horner
    heights, series = [], []
    reduce, horner = winding._reduce, winding._horner

    def recording_reduce(z):
        z_red, j = reduce(z)
        heights.append(z_red.imag.copy())
        return z_red, j

    def recording_horner(coeffs, q):
        series.append(q.copy())
        return horner(coeffs, q)

    monkeypatch.setattr(winding, "_reduce", recording_reduce)
    monkeypatch.setattr(winding, "_horner", recording_horner)
    g = word_to_matrix((1, 240))
    assert winding_index(g).index == psi(g)
    assert e2_period(g) == pytest.approx(psi(g), abs=1e-6)
    y = np.concatenate(heights)
    assert ((56.0 <= y) & (y <= 59.5)).any() and ((112.0 <= y) & (y <= 119.0)).any()
    q = np.concatenate(series)
    assert q.size == (y < winding._FLAT_HEIGHT).sum() < y.size
    # |q| = e^(-2 pi y_red), so each q's height is -log |q| / (2 pi)
    assert np.all(-np.log(np.abs(q)) / (2 * math.pi) < winding._FLAT_HEIGHT + 1e-12)


def recorded_batches(monkeypatch):
    """(t, values) of each batch that winding_index hands to _in_chunks from now on,
    with the rows that _in_chunks returns stacked into one array."""
    batches = []
    in_chunks = winding._in_chunks

    def recording(fn, t):
        rows = in_chunks(fn, t)
        batches.append((t.copy(), np.array(rows)))
        return rows

    monkeypatch.setattr(winding, "_in_chunks", recording)
    return batches


def final_grid(batches):
    """The grid of winding_index and its values: the first grid and the new nodes, in order."""
    t = np.concatenate([b[0] for b in batches])
    order = np.argsort(t, kind="stable")
    return t[order], np.concatenate([b[1] for b in batches], axis=1)[:, order]


def height_bound(t, y):
    """The bound on the reduced height over each interval of the grid t from the
    heights y at its nodes: log y is 1-Lipschitz in t."""
    return np.maximum(y[:-1], np.sqrt(y[:-1] * y[1:]) * np.exp(0.5 * np.diff(t)))


def rate_bound(y):
    """max(c y - 6, 1.132): the bound on |d arg F/dt| at reduced height y."""
    return np.maximum(winding._E2_RATE * y - 6.0, winding._RATE_FLOOR)


def turn_bound(t, y):
    """h max(c B - 6, 1.132) on each interval of the grid t: a bound on how far
    arg F turns over it, with B from the reduced heights y at the nodes."""
    return np.diff(t) * rate_bound(height_bound(t, y))


def top_height(gamma):
    """R = |alpha - alpha_bar| / 2, the height of the top of the axis of gamma."""
    axis = winding._axis_for(gamma)
    return 0.5 * abs(axis.alpha - axis.alpha_bar)


def flat_top(gamma):
    """s with [-s, s] the flat top of the axis of gamma, where Im z(t) =
    R / cosh t is at least the flat height, or 0.0 when the top of the axis
    is not above it."""
    top = top_height(gamma)
    return math.acosh(top / winding._FLAT_HEIGHT) if top > winding._FLAT_HEIGHT else 0.0


def on_the_arms(t, gamma):
    """Mask of the intervals of winding_index's grid t off the flat top: all but
    the one interval [-s, s], or all where the axis of gamma has no flat top and
    the arms share the node t = 0."""
    s = flat_top(gamma)
    arms = (t[:-1] != -s) | (t[1:] != s)
    assert (~arms).sum() == (1 if s else 0)
    return arms


def first_grid(gamma):
    """winding_index's first grid: the arms [lo, -s] and [s, hi] of the window,
    each np.linspace's nodes in the fewest intervals of at most _BASE_STEP, with
    the node t = 0 shared where the axis of gamma has no flat top."""
    axis = winding._axis_for(gamma)
    lo, hi = axis.balance - 0.5 * axis.length, axis.balance + 0.5 * axis.length
    s = flat_top(gamma)
    left, right = (np.linspace(a, b, math.ceil((b - a) / winding._BASE_STEP) + 1) for a, b in [(lo, -s), (s, hi)])
    return np.concatenate((left, right if s else right[1:]))


class TestRefine:
    """winding_index's two splits against a reference that splits one interval
    at a time, with its evaluations recorded: the split of the first grid on the
    closed-form heights R / cosh t, made before any node is evaluated, and the
    split of that grid on the folded heights at its nodes."""

    # (1, 2) is accepted on its first grid; the others split around the cusp
    # excursion of their large digit, on the arms either side of its flat top,
    # before their first round, and (90, 1, 45, 2) and (1, 60, 1, 40) split
    # again, in a second round, around a second excursion that stays below
    # height 1 on the axis
    WORDS = [
        (1, 2),
        (1, 40),
        (3, 150, 2, 5),
        (2, 7, 1, 300),
        (90, 1, 45, 2),
        (1, 1, 1, 777),
        (1, 60, 1, 40),
        (1, 10**8),
    ]
    ROUNDS = [1, 1, 1, 1, 2, 1, 2, 1]

    @staticmethod
    def reference(t, y, arms):
        """(nodes, new) of the split grid, one interval and one node at a time:
        interval k of the grid t on the arms splits into the least number of
        equal parts on which the turn bound at the height bound over it, from the
        heights y at the nodes, is below pi/2, the flat top stays one interval,
        and new marks the nodes that the split adds."""
        pieces = np.where(arms, np.floor(turn_bound(t, y) / (0.5 * math.pi)) + 1.0, 1.0)
        nodes, new = [], []
        for k in range(t.size - 1):
            step = (t[k + 1] - t[k]) / pieces[k]
            for m in range(int(pieces[k])):
                nodes.append(step * m + t[k])
                new.append(m > 0)
        nodes.append(t[-1])
        new.append(False)
        return np.array(nodes), np.array(new)

    @classmethod
    def matches_reference(cls, monkeypatch, g):
        """The sizes of the batches of winding_index(g), after checking its grids
        and result against the reference's."""
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        batches = recorded_batches(monkeypatch)
        res = winding_index(g)
        (t, values), *split = batches
        assert len(split) <= 1
        # the first round is the first grid split on the closed-form heights
        first = first_grid(g)
        pre, _ = cls.reference(first, top_height(g) / np.cosh(first), on_the_arms(first, g))
        assert np.array_equal(t, pre)
        # the second, if any, is the nodes that the split on the folded heights
        # adds, in order, and each node was evaluated once
        ref_t, new = cls.reference(t, values[1], on_the_arms(t, g))
        new_t, new_values = split[0] if split else (np.empty(0), np.empty((2, 0)))
        assert np.array_equal(ref_t[~new], t) and np.array_equal(ref_t[new], new_t)
        assert sum(delta) == ref_t.size == res.steps + 1
        # the old values are carried over: the total is read off the reference's
        # arms and the closed form of the flat top
        ref_values = np.empty((2, ref_t.size))
        ref_values[:, ~new], ref_values[:, new] = values, new_values
        inc = winding._wrap(np.diff(ref_values[0]))
        inc[~on_the_arms(ref_t, g)] = 0.0
        _, flat = winding._flat_top(winding._axis_for(g))
        turns = float(inc.sum()) / winding._TWO_PI + flat
        assert (res.index, res.residual) == (round(turns), abs(turns - round(turns)))
        return [b.size for b, _ in batches]

    @pytest.mark.parametrize("seed", range(len(WORDS)))
    def test_matches_reference(self, monkeypatch, seed):
        g = word_to_matrix(self.WORDS[seed])
        # seed 0 has no flat top (its arms share t = 0), the others one interval
        # of it in the first grid
        assert (flat_top(g) == 0.0) == (seed == 0)
        sizes = self.matches_reference(monkeypatch, g)
        assert len(sizes) == self.ROUNDS[seed]
        assert (sizes[0] > first_grid(g).size) == (seed > 0)

    @staticmethod
    def rate_for_ratio(t, y, below):
        """The _E2_RATE at which the largest ratio h max(E B - 6, 1.132) / (pi/2)
        over the intervals of the grid t, with heights y at its nodes, is 1, or
        with below the largest E at which it is below 1: a bisection on the bits
        of E, as each float operation of the ratio is monotone in E."""
        h = t[1:] - t[:-1]
        bound = np.maximum(y[:-1], np.sqrt(y[:-1] * y[1:]) * np.exp(0.5 * h))

        def ratio(bits):
            e = float(np.int64(bits).view(np.float64))
            return (h * np.maximum(e * bound - 6.0, winding._RATE_FLOOR) / (0.5 * math.pi)).max()

        lo, hi = 0, int(np.float64(1e6).view(np.int64))
        assert ratio(lo) < 1.0 <= ratio(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ratio(mid) >= 1.0 else (mid, hi)
        assert ratio(lo) < 1.0 == ratio(hi)
        return float(np.int64(lo if below else hi).view(np.float64))

    @pytest.mark.parametrize("below", [True, False], ids=["below-1", "1"])
    def test_split_skipped_while_every_ratio_is_below_1(self, monkeypatch, below):
        # the rate bound set so that the largest ratio on the first grid of
        # (1, 2), at its closed-form heights, is the largest it can be below 1,
        # where no interval splits before the first round, or 1, where its
        # interval splits in two: both as the reference splits
        g = word_to_matrix((1, 2))
        first = first_grid(g)
        rate = self.rate_for_ratio(first, top_height(g) / np.cosh(first), below)
        monkeypatch.setattr(winding, "_E2_RATE", rate)
        sizes = self.matches_reference(monkeypatch, g)
        assert sizes[0] == first.size + (not below)

    def test_first_step_leaves_heights_up_to_4_9_unsplit(self):
        # an interval of the first grid whose nodes lie at height 4.9 or below
        # has B <= 4.9 e^(h/2); from _BASE_STEP on a thousandth more it would split
        def ratio(h):
            return h * (winding._E2_RATE * 4.9 * math.exp(0.5 * h) - 6.0) / (0.5 * math.pi)

        assert ratio(winding._BASE_STEP) < 1.0 <= ratio(winding._BASE_STEP + 1e-3)

    def test_unsplit_grid_builds_no_split(self, monkeypatch):
        # (1, 2) passes on its first grid: no parts are summed and no grid is
        # interpolated; (1, 60) splits before its one round and does both once
        calls = []
        for name in ("cumsum", "interp"):
            fn = getattr(np, name)

            def recording(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, recording)
        winding_index(word_to_matrix((1, 2)))
        assert calls == []
        winding_index(word_to_matrix((1, 60)))
        assert calls == ["cumsum", "interp"]

    @pytest.mark.parametrize("pieces", [float(winding._MAX_NODES), 1e300])
    def test_over_the_node_cap_refused_at_once(self, monkeypatch, pieces):
        # a rate bound that asks for at least sqrt(3)/2 times this many parts
        # of every interval, the reduced height being at least sqrt(3)/2
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        monkeypatch.setattr(winding, "_E2_RATE", pieces * 0.5 * math.pi / winding._BASE_STEP)
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="nodes"):
            winding_index(word_to_matrix((1, 2)))
        assert time.perf_counter() - start < 0.1
        # refused by the split on the closed-form heights, before any node is evaluated
        assert delta == []

    @pytest.mark.parametrize(
        "w",
        WORDS + [(1, 8000), (1, 30000), (1, 3, 1, 8000), (2, 5000, 3, 9000), (1, 22024)],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_final_grid_meets_the_bound(self, monkeypatch, w):
        # the check the split makes unneeded: the turn bound with the height
        # bound recomputed from the final nodes is below pi/2 on every interval
        # of the arms; at most two batches (of slices of _CHUNK points), each
        # node in one
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        batches = recorded_batches(monkeypatch)
        g = word_to_matrix(w)
        res = winding_index(g)
        assert res.index == psi(g)
        assert len(batches) <= 2 and sum(delta) == res.steps + 1
        t, values = final_grid(batches)
        assert np.all(turn_bound(t, values[1])[on_the_arms(t, g)] < 0.5 * math.pi)

    def test_first_grid_within_the_node_cap(self, monkeypatch):
        # the largest trace whose t^2 - 4 is a float has the longest first grid,
        # at most two nodes longer as the top parts it into two arms, far below
        # the cap, so only the splits' grids are checked against it
        top = math.isqrt(2**1024 - 2**970 + 3)
        assert 2**511 < top < 2**512
        nodes = math.ceil(geodesic_length(top) / winding._BASE_STEP) + 1
        assert nodes == 13146 and nodes + 2 < winding._MAX_NODES
        # a word of digits 1 and 2 just below that trace has no flat top: its
        # first grid is one batch, two arms that share the node t = 0, and the
        # fold refuses the ends of its window
        g = word_to_matrix((2,) + (1,) * 735)
        assert flat_top(g) == 0.0 and top // 2 < g.trace < top
        first = math.ceil(geodesic_length(g.trace) / winding._BASE_STEP) + 1
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        with pytest.raises(CapExceeded, match="float spacing"):
            winding_index(g)
        assert delta == [first] and first == 13133
        # (1, top - 2), of trace top, has a flat top past the rounding bound
        with pytest.raises(CapExceeded, match="flat top"):
            winding_index(word_to_matrix((1, top - 2)))
        with pytest.raises(CapExceeded, match="past the float range"):
            winding_index(word_to_matrix((1, top - 1)))
        assert delta == [first]

    def test_node_cap_admits_the_grid_that_fills_it(self, monkeypatch):
        # (1, 60) is refused by the split before its one round, (1, 60, 1, 40) by
        # the split on the folded heights, before any node that it adds is evaluated
        for w, rounds in (((1, 60), 0), ((1, 60, 1, 40), 1)):
            g = word_to_matrix(w)
            with monkeypatch.context() as m:
                res = winding_index(g)
                m.setattr(winding, "_MAX_NODES", res.steps + 1)
                assert winding_index(g) == res
                m.setattr(winding, "_MAX_NODES", res.steps)
                delta = TestOneEvaluationPerRound.counted(m, "_delta_series")
                with pytest.raises(CapExceeded, match=f"needs {res.steps + 1} nodes"):
                    winding_index(g)
                assert len(delta) == rounds


@pytest.mark.parametrize("w", [(1, 60), (3, 150, 2, 5), (1, 10**7)], ids=str)
def test_chunked_rows_join_to_the_same_bits(monkeypatch, w):
    # slices of 64 points: each batch of both routes is several slices, whose
    # rows _in_chunks joins row by row; e2_period's grid on (1, 10^7) doubles
    # at least twice, so its midpoint batches are joined too
    g = word_to_matrix(w)
    index, period = repr(winding_index(g)), repr(e2_period(g))
    monkeypatch.setattr(winding, "_CHUNK", 64)
    batches = recorded_batches(monkeypatch)
    assert repr(winding_index(g)) == index
    assert batches[0][0].size > 64
    batches.clear()
    assert repr(e2_period(g)) == period
    assert all(t.size > 64 for t, _ in batches)
    assert len(batches) >= (3 if w == (1, 10**7) else 1)


class TestLastAxisKept:
    """_axis_for keeps the axis of the last matrix it was given, as both routes
    run on one class back to back; a refusal is never kept."""

    G1 = word_to_matrix((3, 150, 2, 5))
    G2 = word_to_matrix((2, 9, 2, 8, 6, 7, 1, 5, 9, 1, 7, 4))
    # of trace past the float range's sqrt(t^2 - 4) (TestRefine's top)
    PAST_THE_FLOAT_RANGE = word_to_matrix((1, math.isqrt(2**1024 - 2**970 + 3) - 1))

    @staticmethod
    def counted_walks(monkeypatch):
        """The walks _axis_for starts from now on, with no axis kept."""
        walks, walk = [], winding._reduced_cycle

        def counting(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(winding, "_reduced_cycle", counting)
        winding._axis_for.cache_clear()
        return walks

    def test_interleaved_routes_give_the_bits_of_a_fresh_axis(self):
        g1, g2 = self.G1, self.G2
        calls = [(winding_index, g1), (e2_period, g2), (e2_period, g1), (winding_index, g2)]
        results = [repr(route(g)) for route, g in calls]
        for (route, g), result in zip(calls, results):
            winding._axis_for.cache_clear()
            assert repr(route(g)) == result

    def test_one_walk_a_class(self, monkeypatch):
        walks = self.counted_walks(monkeypatch)
        winding_index(self.G1)
        e2_period(self.G1)
        assert len(walks) == 1
        winding._axis_for.cache_clear()
        walks.clear()
        winding_index(self.G1)
        e2_period(self.G2)
        assert len(walks) == 2
        # one axis is kept: G2's replaced G1's
        winding_index(self.G1)
        assert len(walks) == 3

    @pytest.mark.parametrize(
        "gamma, refused, walked",
        [(-word_to_matrix((1, 2)), NotHyperbolic, True), (PAST_THE_FLOAT_RANGE, CapExceeded, False)],
        ids=["not-hyperbolic", "past-the-float-range"],
    )
    def test_refusal_raised_on_every_call(self, monkeypatch, gamma, refused, walked):
        walks = self.counted_walks(monkeypatch)
        axis = winding._axis_for(self.G1)
        for _ in range(3):
            for route in (winding._axis_for, winding_index, e2_period):
                with pytest.raises(refused):
                    route(gamma)
        # the walk refuses each call again, and the kept axis stays the last one made
        assert len(walks) == 1 + (9 if walked else 0)
        assert winding._axis_for(self.G1) is axis and len(walks) == 1 + (9 if walked else 0)


class TestFlatTop:
    """winding_index's closed form over the flat top [-s, s] of the axis."""

    @pytest.mark.parametrize(
        "w", [(1, 17), (3, 200), (1, 3, 1, 8000), (5, 300, 7, 9000), (1, 10**9)],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_height_profile(self, w):
        # Im z(t) = |alpha - alpha_bar| / (2 cosh t), so the top is at t = 0 and
        # the flat height is reached exactly at +-s
        axis = winding._axis_for(word_to_matrix(w))
        t = np.linspace(-0.5 * axis.length, 0.5 * axis.length, 1001)
        z, _ = axis.at(t)
        top = 0.5 * abs(axis.alpha - axis.alpha_bar)
        assert np.allclose(z.imag, top / np.cosh(t), rtol=1e-12, atol=0.0)
        s, _ = winding._flat_top(axis)
        z, _ = axis.at(np.array([-s, s]))
        assert z.imag == pytest.approx(winding._FLAT_HEIGHT, rel=1e-12)

    @pytest.mark.parametrize(
        "w",
        [
            (1, 17),
            (3, 18),
            (1, 8000),
            (1, 30000),
            (1, 3, 1, 8000),
            (2, 5000, 3, 9000),
            (2, 20000, 3, 30000),
            (3, 1, 17, 2),
            (1, 1, 8000, 1),
            (5, 7, 9000, 2, 20000, 3),
        ],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_closed_form_is_the_wrapped_sum(self, w):
        # the wrapped increments of arg F over [-s, s], on axes that run either
        # way (sigma = -1 on the first seven words), on a grid that meets the
        # rate bound: nodes equally spaced in gd(t) = 2 atan(tanh(t/2)), as
        # max(c y - 6, 1.132) <= c y on the top, where y >= 8.6, and
        # y = R / cosh t = R gd'(t)
        axis = winding._axis_for(word_to_matrix(w))
        s, turns = winding._flat_top(axis)
        top = 0.5 * abs(axis.alpha - axis.alpha_bar)
        rate = winding._E2_RATE * top
        edge = 2.0 * math.atan(math.tanh(0.5 * s))
        u = np.linspace(-edge, edge, math.ceil(2.0 * edge * rate / (0.4 * math.pi)) + 1)
        t = 2.0 * np.arctanh(np.tan(0.5 * u))
        t[0], t[-1] = -s, s

        def rows(t):
            z, dz = axis.at(t)
            z_red, j, tail = winding._delta_series(z)
            return np.array([winding._arg_delta(z_red, j, tail) + 6.0 * np.angle(dz), z_red.imag])

        values = winding._in_chunks(rows, t)
        assert np.all(turn_bound(t, values[1]) < 0.5 * math.pi)
        wrapped = math.fsum(winding._wrap(np.diff(values[0])).tolist()) / (2 * math.pi)
        assert abs(turns - wrapped) <= 1e-9

    @pytest.mark.parametrize("w", [(1, 10**12), (1, 10**15), (3, 10**14, 2, 5)], ids=str)
    def test_rounding_bound_refuses_before_any_node(self, monkeypatch, w):
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        with pytest.raises(CapExceeded, match="flat top"):
            winding_index(word_to_matrix(w))
        assert delta == []

    def test_rounding_bound_is_a_bound_on_the_top_height(self):
        # 2^-49 R turns at most a tenth of _RESIDUAL_LIMIT: R up to 5.6e10
        limit = 0.1 * winding._RESIDUAL_LIMIT * 2.0**49
        assert 5.6e10 < limit < 5.7e10
        assert winding._flat_top(winding._Axis(limit, -limit, 60.0, 0.0))[0] > 0.0
        above = float(np.nextafter(limit, math.inf))
        with pytest.raises(CapExceeded, match="flat top"):
            winding._flat_top(winding._Axis(above, -above, 60.0, 0.0))

    @pytest.mark.parametrize("n", [10**5, 10**6, 10**7, 10**8, 10**9, 10**11])
    def test_one_huge_entry(self, n):
        # once refused at the node cap, which (1, 10^5) passed by a third: the
        # steps are those of the arms, whatever the entry
        w = (1, n)
        res = winding_index(word_to_matrix(w))
        assert res.index == psi_cf(w) == 1 - n
        assert res.steps == winding_index(word_to_matrix((1, 8000))).steps


@st.composite
def cusp_conjugates(draw):
    """(w, gamma): a word of 2 to 6 digits in 1..9 with one or two of them raised
    to up to 10^9, and gamma the product of w conjugated by T^a S T^b, |a|, |b| <= 3."""
    n = 2 * draw(st.integers(1, 3))
    w = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    for _ in range(draw(st.integers(1, 2))):
        w[draw(st.integers(0, n - 1))] = draw(st.integers(1, 10**9))
    tau = T.power(draw(st.integers(-3, 3))) @ S @ T.power(draw(st.integers(-3, 3)))
    return tuple(w), tau @ word_to_matrix(w) @ tau.inverse()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cusp_conjugates())
def test_cusp_words_computed_or_refused(case):
    w, gamma = case
    try:
        index = winding_index(gamma).index
    except ModwindError:
        return
    assert index == psi_cf(w)


@st.composite
def class_forms(draw):
    """Four matrices of one conjugacy class: the product of a word, of an even
    rotation of it, and two conjugates of the product by T^a S T^b, |a|, |b| <= 9,
    the second shifted by T^(2^60) or more.  The word is short (2 to 6 digits in
    1..9), long (10 to 16 digits with its largest digit in two or more places),
    or a cusp word (2 to 6 digits with one or two raised to up to 10^9, the two
    to the same value when one value is drawn)."""
    kind = draw(st.sampled_from(["short", "long", "cusp"]))
    n = 2 * draw(st.integers(5, 8) if kind == "long" else st.integers(1, 3))
    w = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    if kind == "long":
        places = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True))
        for i in places:
            w[i] = max(w)
    elif kind == "cusp":
        places = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        raised = draw(st.lists(st.integers(10, 10**9), min_size=1, max_size=2))
        for i, value in zip(places, raised * 2):
            w[i] = value
    r = 2 * draw(st.integers(0, n // 2 - 1))
    g = word_to_matrix(w)
    forms = [g, word_to_matrix(w[r:] + w[:r])]
    for shift in (0, 2 ** draw(st.integers(60, 70))):
        tau = T.power(shift + draw(st.integers(-9, 9))) @ S @ T.power(draw(st.integers(-9, 9)))
        forms.append(tau @ g @ tau.inverse())
    return tuple(w), forms


def outcome(route, gamma):
    """The route's result at gamma, or the class of the library error it raised."""
    try:
        return route(gamma)
    except ModwindError as error:
        return type(error)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(class_forms())
def test_routes_are_class_functions(case):
    # both routes follow the axis of the class's word, so every form of a class
    # gives the same bits or the same refusal
    w, forms = case
    for route in (winding_index, e2_period):
        first, *rest = (outcome(route, g) for g in forms)
        assert all(other == first for other in rest), (route.__name__, w)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.floats(-50.0, 50.0),
    st.floats(math.log(0.01), math.log(1e4)),
    st.booleans(),
)
def test_reduced_height_is_1_lipschitz(centre, log_radius, reversed_):
    # log y_red is the maximum over SL(2,Z) of log Im(g z(t)), each a sech or
    # e^(+-t) profile along a unit-speed geodesic, so it moves by at most |dt|;
    # the slack covers the fold's rounding, 2^-52 |z| / Im z < 3e-10 here
    radius = math.exp(log_radius)
    ends = (centre + radius, centre - radius)
    axis = winding._Axis(*(ends[::-1] if reversed_ else ends), length=12.0, balance=0.0)
    t = np.linspace(-6.0, 6.0, 24001)
    z, _ = axis.at(t)
    z_red, _ = winding._reduce(z)
    assert np.all(np.abs(np.diff(np.log(z_red.imag))) <= np.diff(t) + 1e-9)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.floats(-50.0, 50.0),
    st.floats(math.log(0.01), math.log(1e3)),
    st.booleans(),
)
def test_argument_turns_within_the_rate_bound(centre, log_radius, reversed_):
    # |d arg F/dt| <= max(c y_red - 6, 1.132) along a unit-speed axis, and the
    # height bound over each interval comes from its end nodes, so on a dense
    # grid every increment of arg F is within h max(c B - 6, 1.132).  Where
    # that is below pi (B up to about 2,200, the tops of these axes included)
    # the wrapped increments are the true ones.  The slack covers the fold's rounding, a
    # relative 2^-52 |z| / Im z < 3e-10 in j, whose argument counts twelve times
    radius = math.exp(log_radius)
    ends = (centre + radius, centre - radius)
    axis = winding._Axis(*(ends[::-1] if reversed_ else ends), length=12.0, balance=0.0)
    t = np.linspace(-6.0, 6.0, 60001)
    z, dz = axis.at(t)
    z_red, j, tail = winding._delta_series(z)
    arg_f = winding._arg_delta(z_red, j, tail) + 6.0 * np.angle(dz)
    inc = np.abs(winding._wrap(np.diff(arg_f)))
    assert np.all(inc <= turn_bound(t, z_red.imag) + 1e-8)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.floats(-50.0, 50.0),
    st.floats(math.log(0.01), math.log(100.0)),
    st.booleans(),
)
def test_rate_is_the_completed_e2_form(centre, log_radius, reversed_):
    # on a unit-speed axis z''/z' = -i z'/y, so 6 Im(z''/z') = -6 Re z'/y cancels
    # the 3 / (pi y) part of E2 in Im(2 pi i E2(z) z'): d arg F/dt is
    # 2 pi Re(E2*(z) z') = 2 pi Re(E2*(z_red) z_red'), with |z_red'| = y_red,
    # against central differences of arg F over tops from 0.01 to 100 run
    # either way.  So at every node |d arg F/dt| <= |2 pi E2(z_red) y_red - 6|
    # <= max(c y_red - 6, 1.132).  The tolerance covers the differences'
    # truncation, below 1e-4 of the rate bound here, and the fold's rounding
    radius = math.exp(log_radius)
    ends = (centre + radius, centre - radius)
    axis = winding._Axis(*(ends[::-1] if reversed_ else ends), length=12.0, balance=0.0)
    t, dt = np.linspace(-6.0, 6.0, 2401), 1e-5

    def arg_f(t):
        z, dz = axis.at(t)
        z_red, j, tail = winding._delta_series(z)
        return winding._arg_delta(z_red, j, tail) + 6.0 * np.angle(dz)

    differences = winding._wrap(arg_f(t + dt) - arg_f(t - dt)) / (2.0 * dt)
    z, dz = axis.at(t)
    z_red, j = winding._reduce(z)
    y = z_red.imag
    rate = 2.0 * math.pi * (winding._e2(z) * dz).real
    reduced = 2.0 * math.pi * (winding._e2(z_red) * dz / (j * j)).real
    assert np.allclose(np.abs(dz) / z.imag, 1.0, rtol=1e-12, atol=0.0)
    assert np.allclose(np.abs(dz / (j * j)), y, rtol=1e-9, atol=0.0)
    assert np.all(np.abs(reduced - rate) <= 1e-9 * rate_bound(y))
    assert np.all(np.abs(differences - rate) <= 1e-4 * rate_bound(y) + 1e-5)
    e2 = winding._series(E2HOL_SERIES, z_red)
    assert np.all(np.abs(rate) <= np.abs(2.0 * math.pi * e2 * y - 6.0) * (1.0 + 1e-9))
    assert np.all(np.abs(rate) <= rate_bound(y))


class TestSeriesTables:
    def test_delta_leading_coefficients(self):
        # Delta/q = 1 - 24q + 252q^2 - 1472q^3 + ...
        assert DELTA_SERIES[:4] == (1, -24, 252, -1472)

    def test_e2_coefficients(self):
        assert E2HOL_SERIES[:4] == (1, -24, -72, -96)

    def test_e2_rate_is_the_series_bound_rounded_up(self):
        # 2 pi sum |c_n| |q|^n of E2 at the largest |q| after the fold, from
        # a 60-term table, so the tail past SERIES_TERMS is inside it too
        q = math.exp(-math.pi * math.sqrt(3.0))
        bound = 2 * math.pi * sum(24 * winding._sigma1(n) * q**n for n in range(1, 61))
        assert 2 * math.pi + bound < winding._E2_RATE <= 2 * math.pi + bound + 1e-4

    def test_rate_floor_is_the_low_height_bound_rounded_up(self):
        # where 2 pi y_red < 6, |2 pi E2 y_red - 6| <= 6 - 2 pi y_red + (c - 2 pi) y_red,
        # largest at the least reduced height sqrt(3)/2
        floor = 6.0 - (4.0 * math.pi - winding._E2_RATE) * math.sqrt(3.0) / 2.0
        assert floor < winding._RATE_FLOOR <= floor + 1e-3
        # where 2 pi y_red >= 6 the bound is c y_red - 6, which is at most the floor at y_red = 1
        assert winding._E2_RATE - 6.0 < winding._RATE_FLOOR

    def test_series_terms_is_the_least_count_below_the_bound(self):
        # tails sum |c_n| |q|^n over n > terms at the largest |q| after the fold,
        # from 60-term tables (the terms past 60 are below 1e-130)
        q = math.exp(-math.pi * math.sqrt(3.0))
        delta = winding._delta_q_coefficients(60)
        e2 = [1] + [24 * winding._sigma1(n) for n in range(1, 61)]

        def tail(coeffs, terms):
            return sum(abs(c) * q**n for n, c in enumerate(coeffs) if n > terms)

        terms = winding.SERIES_TERMS
        assert len(DELTA_SERIES) == len(E2HOL_SERIES) == terms + 1
        assert max(tail(delta, terms), tail(e2, terms)) < 1e-22
        assert max(tail(delta, terms - 1), tail(e2, terms - 1)) >= 1e-22

    def test_flat_height_is_the_least_height_below_the_bound(self):
        # tails past q^0 at |q| = e^(-2 pi y), from 60-term tables: at or above
        # the flat height both series are their constant term within 1e-22,
        # and 0.1 lower at least one tail is not
        delta = winding._delta_q_coefficients(60)
        e2 = [1] + [24 * winding._sigma1(n) for n in range(1, 61)]

        def tails(y):
            q = math.exp(-2 * math.pi * y)
            return [sum(abs(c) * q**n for n, c in enumerate(coeffs) if n) for coeffs in (delta, e2)]

        assert max(tails(winding._FLAT_HEIGHT)) < 1e-22
        assert max(tails(winding._FLAT_HEIGHT - 0.1)) >= 1e-22


class TestReduction:
    def test_already_reduced(self):
        z = 0.1 + 1.0j
        z_red, arg_offset, log_scale = reduce_to_fundamental(z)
        assert z_red == z
        assert arg_offset == 0.0
        assert log_scale == 0.0

    def test_translation_invariance(self):
        rng = random.Random(5)
        for _ in range(100):
            z = random_upper_half(rng)
            a = reduce_to_fundamental(z)
            b = reduce_to_fundamental(z + 1)
            assert abs(a[0] - b[0]) < 1e-9
            assert a[1] == pytest.approx(b[1], abs=1e-9)
            assert a[2] == pytest.approx(b[2], abs=1e-9)

    def test_single_s_move(self):
        z_red, arg_offset, log_scale = reduce_to_fundamental(0.5j)
        assert z_red == pytest.approx(2j)
        assert log_scale == pytest.approx(-12 * math.log(0.5))

    def test_lands_in_fundamental_domain(self):
        rng = random.Random(7)
        for _ in range(300):
            z = random_upper_half(rng)
            z_red, _, _ = reduce_to_fundamental(z)
            assert abs(z_red.real) <= 0.5 + 1e-12
            assert abs(z_red) >= 1.0 - 1e-12

    def test_rejects_lower_half(self):
        with pytest.raises(DomainError, match="Im z = "):
            reduce_to_fundamental(1.0 - 1.0j)


class TestDeltaEval:
    def test_q_periodicity(self):
        rng = random.Random(11)
        for _ in range(100):
            z = random_upper_half(rng)
            log_a, arg_a = delta_eval(z)
            log_b, arg_b = delta_eval(z + 1)
            assert log_a == pytest.approx(log_b, abs=1e-9)
            diff = (arg_a - arg_b) % (2 * math.pi)
            assert min(diff, 2 * math.pi - diff) < 1e-9

    def test_real_positive_at_i(self):
        assert delta_eval(1j)[1] == pytest.approx(0.0, abs=1e-10)

    def test_cusp_decay(self):
        assert delta_eval(10j)[0] + 20 * math.pi == pytest.approx(0.0, abs=1e-8)

    def test_modular_consistency(self):
        # evaluating directly and through an extra fold must agree
        rng = random.Random(13)
        for _ in range(50):
            z = random_upper_half(rng)
            log_a, _ = delta_eval(z)
            log_b, _ = delta_eval(-1.0 / z)
            # Delta(-1/z) = z^12 Delta(z)
            assert log_b == pytest.approx(log_a + 12 * math.log(abs(z)), abs=1e-8)


class TestE2Completed:
    def test_weight_two_transformation(self):
        rng = random.Random(17)
        for _ in range(50):
            z = random_upper_half(rng)
            direct = e2_completed(-1.0 / z)
            transformed = z * z * e2_completed(z)
            assert abs(direct - transformed) < 1e-8 * max(1.0, abs(direct))

    def test_translation_invariance(self):
        rng = random.Random(19)
        for _ in range(50):
            z = random_upper_half(rng)
            assert abs(e2_completed(z) - e2_completed(z + 1)) < 1e-9


class TestAxis:
    def test_closure(self):
        # z(l) is the image of z(0) under the exact conjugate the axis belongs to;
        # about half the words have their first largest digit in an odd place
        rng = random.Random(23)
        for _ in range(100):
            n = 2 * rng.randint(1, 3)
            w = tuple(rng.randint(1, 9) for _ in range(n))
            g = word_to_matrix(w)
            ell = 2 * math.acosh(g.trace / 2)
            z0, _ = axis_point(g, 0.0)
            z1, _ = axis_point(g, ell)
            image = mobius(top_conjugate(g)[0], z0)
            assert abs(z1 - image) < 1e-10 * max(1.0, abs(z1))

    def test_positive_imaginary(self):
        g = word_to_matrix((2, 3))
        ell = 2 * math.acosh(g.trace / 2)
        for k in range(20):
            z, _ = axis_point(g, ell * k / 19)
            assert z.imag > 0

    def test_unit_speed(self):
        g = word_to_matrix((3, 7))
        for t in (0.0, 0.7, 1.9):
            z, dz = axis_point(g, t)
            assert abs(dz) == pytest.approx(z.imag, rel=1e-12)

    @pytest.mark.parametrize(
        "gamma",
        [
            word_to_matrix((3, 7)).inverse(),
            word_to_matrix((1, 2, 4, 1)).inverse(),
            T.power(2) @ S @ word_to_matrix((2, 5)) @ (T.power(2) @ S).inverse(),
        ],
        ids=["inverse-3-7", "inverse-1-2-4-1", "conjugate-2-5"],
    )
    def test_follows_the_reduced_axis(self, gamma):
        # none of these is its own top conjugate; axis_point follows the axis of
        # that conjugate, which is the one both routes integrate over
        g, _ = top_conjugate(gamma)
        assert g != gamma
        z0, _ = axis_point(gamma, 0.0)
        z1, _ = axis_point(gamma, geodesic_length(gamma.trace))
        image = mobius(g, z0)
        assert abs(z1 - image) <= 1e-10 * abs(image)

    def test_axis_is_the_fixed_points_of_the_reduced_state(self):
        # (a - d +- sqrt(D)) / 2c of the top conjugate, (P +- sqrt(D)) / Q of the walk's
        # state k or their negatives: the first with the rationals (a - d) / 2c and
        # 1 / 2c each rounded to a float once, the second as -2b / (a - d + sqrt(D)),
        # bit for bit; a third of the conjugates are shifted by T^(2^60) and more
        rng = random.Random(41)
        odd = 0
        for i in range(2000):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 3)))
            tau = Mat2(1, rng.randint(-9, 9), 0, 1) @ S @ Mat2(1, rng.randint(-9, 9), 0, 1)
            if i % 3 == 0:
                tau = T.power(2 ** (60 + i % 11)) @ tau
            gamma = tau @ word_to_matrix(w) @ tau.inverse()
            g, k = top_conjugate(gamma)
            odd += k % 2
            p, q = float(Fraction(g.a - g.d, 2 * g.c)), float(Fraction(1, 2 * g.c))
            root = math.sqrt(gamma.trace**2 - 4)
            axis = winding._axis_for(gamma)
            assert (axis.alpha, axis.alpha_bar) == (p + q * root, -2 * g.b / (g.a - g.d + root))
        assert 500 < odd < 1500

    def test_golden_ratio_axis(self):
        axis = winding._axis_for(word_to_matrix((1, 1)))
        assert axis.alpha == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)
        assert axis.alpha_bar == pytest.approx((1 - math.sqrt(5)) / 2, abs=1e-14)

    def test_quadratic_roots(self):
        # (3, 7) is (22 3; 7 1), with its largest digit in the odd place: the top
        # conjugate by S T^-3 is (22 -7; -3 1), with fixed points the roots of
        # 3x^2 + 21x - 7, the attracting one below -1
        g, k = top_conjugate(word_to_matrix((3, 7)))
        assert (g, k) == (Mat2(22, -7, -3, 1), 1)
        axis = winding._axis_for(word_to_matrix((3, 7)))
        for x in (axis.alpha, axis.alpha_bar):
            assert 3 * x * x + 21 * x - 7 == pytest.approx(0.0, abs=1e-9)
        assert axis.alpha < -1 < 0 < axis.alpha_bar < 1

    def test_alpha_on_expanding_eigenline(self):
        # c alpha + d is the eigenvalue of the top conjugate at alpha
        rng = random.Random(37)
        for _ in range(50):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 3)))
            tau = Mat2(1, rng.randint(-9, 9), 0, 1) @ S
            gamma = tau @ word_to_matrix(w) @ tau.inverse()
            g, _ = top_conjugate(gamma)
            assert abs(g.c * winding._axis_for(gamma).alpha + g.d) > 1

    @pytest.mark.parametrize(
        "gamma, refused",
        [
            (word_to_matrix((2,) + (1,) * 799), True),  # trace past the float range
            # (a - d) / 2c past it too, but the routes read the axis of the
            # reduced conjugate (2 1; 1 1), so only the trace can refuse
            (Mat2(2**1100, 2**1100 * (3 - 2**1100) - 1, 1, 3 - 2**1100), False),
        ],
        ids=["trace", "centre"],
    )
    def test_fixed_points_past_the_float_range_refused(self, gamma, refused):
        if refused:
            for route in (winding_index, e2_period):
                with pytest.raises(CapExceeded, match="float range"):
                    route(gamma)
        else:
            res = winding_index(gamma)
            assert res.index == psi(gamma) and res.residual < 1e-3
            assert e2_period(gamma) == pytest.approx(psi(gamma), abs=1e-6)

    @pytest.mark.parametrize(
        "w",
        [(1, 8), (2, 9, 1, 3), (1, 2, 1, 9, 3, 9), (3, 200), (1, 3, 1, 800)],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_largest_digit_in_an_odd_place(self, w):
        g = word_to_matrix(w)
        conjugate, k = top_conjugate(g)
        assert k % 2 == 1
        axis = winding._axis_for(g)
        # the top letter is a largest digit: floor(-alpha) is the digit read at state k
        assert math.floor(-axis.alpha) == max(w)
        # Im z > 0 along the loop, highest at the top
        ell = geodesic_length(g.trace)
        z, _ = axis.at(np.linspace(-0.5 * ell, 0.5 * ell, 4001))
        z_red, _ = winding._reduce(z)
        assert z.imag.min() > 0 and z_red.imag.max() <= z[2000].imag * (1 + 1e-12)
        # closure under the exact conjugate
        z0, _ = axis_point(g, -0.5 * ell)
        z1, _ = axis_point(g, 0.5 * ell)
        assert abs(z1 - mobius(conjugate, z0)) <= 1e-10 * abs(z1)
        # the inverse runs the loop backwards
        index, period = winding_index(g).index, e2_period(g)
        assert index == psi(g)
        assert period == pytest.approx(psi(g), abs=1e-6)
        assert winding_index(g.inverse()).index == -index
        assert e2_period(g.inverse()) == pytest.approx(-period, abs=1e-6)

    @pytest.mark.parametrize(
        "w",
        [(1, 2), (3, 200), (5, 300, 7, 9000), (2, 9, 2, 8, 6, 7, 1, 5, 9, 1, 7, 4)],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_fixed_points_within_a_few_float_spacings(self, w):
        # |alpha_bar| is far below |alpha| on these axes: read as a difference of
        # two floats near alpha / 2 it lost most of its bits
        g, _ = top_conjugate(word_to_matrix(w))
        axis = winding._axis_for(word_to_matrix(w))
        with localcontext() as ctx:
            ctx.prec = 60
            root = Decimal(g.trace * g.trace - 4).sqrt()
            exact = [(g.a - g.d + sign * root) / (2 * g.c) for sign in (1, -1)]
        for got, ref in zip((axis.alpha, axis.alpha_bar), exact):
            assert abs(Decimal(got) - ref) <= Decimal(2) ** -50 * abs(ref)

    def test_e2_window_balances_its_ends(self):
        # uncapped on a long word: the fold's amplification |z| / Im z is alike at
        # both ends of the routes' window, 0.5 log |alpha_bar / alpha| from t = 0
        axis = winding._axis_for(word_to_matrix((2, 9, 2, 8, 6, 7, 1, 5, 9, 1, 7, 4)))
        balance = 0.5 * math.log(abs(axis.alpha_bar / axis.alpha))
        assert axis.balance == pytest.approx(balance, abs=1e-12)
        lo, hi = (axis.at(axis.balance + 0.5 * side * axis.length)[0] for side in (-1, 1))
        assert abs(lo) / lo.imag == pytest.approx(abs(hi) / hi.imag, rel=1e-3)

    @pytest.mark.parametrize(
        "w",
        [
            (1, 2),
            (3, 7),
            (1, 60),
            (1, 20000),
            (1, 200, 1, 300),
            (2, 9, 2, 8, 6, 7, 1, 5, 9, 1, 7, 4),
        ],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_e2_window_keeps_the_top_excursion_whole(self, w):
        # neither end of the routes' window lies above height 1, so the largest
        # excursion is integrated whole at the top, where a translation folds it
        axis = winding._axis_for(word_to_matrix(w))
        for side in (-1, 1):
            z, _ = axis.at(axis.balance + 0.5 * side * axis.length)
            assert z.imag <= 1.0 + 1e-12

    def test_routes_share_one_window(self, monkeypatch):
        # both routes read the window [b - l/2, b + l/2] from the axis; b is
        # uncapped and away from 0 on this word
        w = (2, 9, 2, 8, 6, 7, 1, 5, 9, 1, 7, 4)
        axis = winding._axis_for(word_to_matrix(w))
        assert abs(axis.balance) > 0.1
        at, calls = winding._Axis.at, []

        def recording(self, t):
            calls.append(np.atleast_1d(t))
            return at(self, t)

        monkeypatch.setattr(winding._Axis, "at", recording)
        winding_index(word_to_matrix(w))
        first = calls[0]
        assert first[0] == pytest.approx(axis.balance - 0.5 * axis.length, abs=1e-12)
        assert first[-1] == pytest.approx(axis.balance + 0.5 * axis.length, abs=1e-12)
        calls.clear()
        e2_period(word_to_matrix(w))
        assert calls[0][0] == pytest.approx(axis.balance - 0.5 * axis.length, abs=1e-12)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            axis_point(Mat2(1, 1, 0, 1), 0.0)
        for gamma in (T, -T, S, -word_to_matrix((1, 2))):
            with pytest.raises(NotHyperbolic):
                winding._axis_for(gamma)


class TestWindingIndex:
    def test_inert_word(self):
        assert winding_index(word_to_matrix((1, 1))).index == 0

    def test_reference_word(self):
        res = winding_index(word_to_matrix((3, 7)))
        assert res.index == -4
        assert res.residual < 1e-3

    def test_orientation_reversal(self):
        rng = random.Random(29)
        for _ in range(25):
            n = 2 * rng.randint(1, 2)
            w = tuple(rng.randint(1, 7) for _ in range(n))
            g = word_to_matrix(w)
            assert winding_index(g.inverse()).index == -winding_index(g).index

    def test_conjugation_invariance(self):
        g = word_to_matrix((2, 5))
        expected = winding_index(g).index
        rng = random.Random(31)
        for _ in range(15):
            tau = Mat2(1, rng.randint(-6, 6), 0, 1) @ Mat2(0, -1, 1, 0) @ Mat2(
                1, rng.randint(-6, 6), 0, 1
            )
            assert winding_index(tau @ g @ tau.inverse()).index == expected

    def test_step_refinement_stable(self, monkeypatch):
        gammas = [word_to_matrix(w) for w in ((1, 2), (3, 7), (1, 1, 2, 3))]
        coarse = [winding_index(g) for g in gammas]
        # halve the first step and double the slope and the floor of the rate
        # bound, which at least doubles it: the reported index must not depend
        # on the grid
        monkeypatch.setattr(winding, "_BASE_STEP", 0.5 * winding._BASE_STEP)
        monkeypatch.setattr(winding, "_E2_RATE", 2.0 * winding._E2_RATE)
        monkeypatch.setattr(winding, "_RATE_FLOOR", 2.0 * winding._RATE_FLOOR)
        fine = [winding_index(g) for g in gammas]
        assert [r.index for r in fine] == [r.index for r in coarse]
        assert all(f.steps > c.steps for f, c in zip(fine, coarse))

    def test_large_partial_quotient(self):
        g = word_to_matrix((1, 60))
        res = winding_index(g)
        assert res.index == psi(g) == -59

    @pytest.mark.parametrize("n", [40, 60, 200])
    def test_conjugates_with_large_entries(self, n):
        # tau (2 1)-word tau^-1 with tau = A_1^n: the fixed points of the
        # conjugate agree to the float resolution from n of about 40, so an
        # axis built from them in floats leaves the upper half-plane
        tau = word_to_matrix((1,) * n)
        g = tau @ word_to_matrix((2, 1)) @ tau.inverse()
        res = winding_index(g)
        assert res.index == psi(g) == 1 and res.residual < 1e-3
        assert e2_period(g) == pytest.approx(1.0, abs=1e-6)

    def test_residual_refused(self):
        # one of the 20 survey words at L = 55 that the residual check refuses:
        # the turns total misses an integer by more than _RESIDUAL_LIMIT
        w = long_words(55, 20)[6]
        assert len(w) == 20
        start = time.perf_counter()
        with pytest.raises(QuadratureFailure, match="winding total"):
            winding_index(word_to_matrix(w))
        assert time.perf_counter() - start < 1.0

    def test_coarse_grid_raises_at_once(self, monkeypatch):
        # the period of (1, 60, 1, 59), about 16.5, in intervals of at most 1
        # that a rate bound of zero never splits: the flat top takes the 60
        # turns in closed form, but the arm below it runs through the 59 turns
        # of the second excursion
        monkeypatch.setattr(winding, "_BASE_STEP", 1.0)
        monkeypatch.setattr(winding, "_E2_RATE", 0.0)
        monkeypatch.setattr(winding, "_RATE_FLOOR", 0.0)
        start = time.perf_counter()
        with pytest.raises(QuadratureFailure, match="argument jump"):
            winding_index(word_to_matrix((1, 60, 1, 59)))
        assert time.perf_counter() - start < 1.0

    def test_matches_psi_on_sample(self):
        rng = random.Random(37)
        for _ in range(30):
            n = 2 * rng.randint(1, 3)
            w = tuple(rng.randint(1, 9) for _ in range(n))
            g = word_to_matrix(w)
            assert winding_index(g).index == psi_cf(w)


class TestE2Period:
    def test_inert_word(self):
        assert e2_period(word_to_matrix((1, 1))) == pytest.approx(0.0, abs=1e-6)

    def test_small_words(self):
        assert e2_period(word_to_matrix((1, 2))) == pytest.approx(-1.0, abs=1e-6)
        assert e2_period(word_to_matrix((3, 7))) == pytest.approx(-4.0, abs=1e-6)

    @pytest.mark.parametrize("w", [(1, 1), (1, 2), (1, 3000)], ids=str)
    def test_python_float(self, w):
        assert type(e2_period(word_to_matrix(w))) is float

    def test_matches_psi_on_sample(self):
        rng = random.Random(41)
        for _ in range(15):
            n = 2 * rng.randint(1, 2)
            w = tuple(rng.randint(1, 9) for _ in range(n))
            g = word_to_matrix(w)
            assert e2_period(g) == pytest.approx(psi_cf(w), abs=1e-6)

    def test_large_partial_quotient(self):
        g = word_to_matrix((1, 3000))
        assert winding_index(g).index == -2999
        assert e2_period(g) == pytest.approx(-2999.0, abs=1e-6)

    @pytest.mark.parametrize(
        "w",
        [(1, 8000), (8000, 1), (1, 20000), (1, 100000), (1, 3, 1, 8000), (1, 10**6)],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_one_large_entry(self, w):
        # the large excursion at the top of the axis folds by a translation alone;
        # low on the axis its rounding refused (1, 8000)
        assert e2_period(word_to_matrix(w)) == pytest.approx(psi_cf(w), abs=1e-6)

    @pytest.mark.parametrize(
        "w",
        [(5, 300, 7, 9000), (5, 1000, 7, 4000), (2, 2000, 3, 20000), (2, 5000, 3, 9000)],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_two_large_entries(self, w):
        # the second excursion sits low on the axis, near the repelling fixed point:
        # read as (P - sqrt(D)) / Q, its rounding put the first three 3.3e-6 to
        # 4.3e-5 off, and the last was refused
        assert e2_period(word_to_matrix(w)) == pytest.approx(psi_cf(w), abs=1e-6)

    @staticmethod
    def assert_index_close(w, tol):
        res = winding_index(word_to_matrix(w))
        assert res.index == psi_cf(w) and res.residual < tol, (w, res)

    def test_two_large_entries_index(self):
        # on the balanced window the residual is about that of e2_period; on the
        # window centred at t = 0, whose ends sit lower on the axis, it was 6.3e-5
        self.assert_index_close((2, 5000, 3, 9000), 1e-7)

    def test_seeded_two_large_entries_index(self):
        # five of these were above 1e-6 (at most 7.0e-6) on the centred window
        rng = random.Random(5)
        for x, y in ((2, 3), (1, 1), (5, 7)):
            for _ in range(4):
                a, b = int(10 ** rng.uniform(2.5, 3.7)), int(10 ** rng.uniform(2.7, 4.3))
                self.assert_index_close((x, a, y, b), 1e-7)

    def test_long_words_at_50_index(self):
        # on the centred window one was refused and the worst residual was 1.4e-4
        for w in long_words(50, 20):
            self.assert_index_close(w, 1e-4)

    # long words at L = 36 to 40 (the first at 40 is also the first at 36): five
    # are computed, two refused by the witness and two by the node cap
    SLICE = long_words(36, 5)[1:] + long_words(40, 5)

    def test_rounding_witness_bounds_the_error(self, monkeypatch):
        # the witness sums the fold's error scale; on random long words the error
        # was at most 1.25 times it, and a word is refused exactly when it is above
        # budget (the trapezoid runs unbudgeted here, so it returns every witness)
        checked = refused = 0
        for w in self.SLICE:
            g = word_to_matrix(w)
            try:
                with monkeypatch.context() as m:
                    m.setattr(winding, "_ROUNDING_BUDGET", math.inf)
                    total, witness = winding._trapezoid(g)
            except QuadratureFailure:
                continue
            checked += 1
            assert abs(total.real - psi_cf(w)) <= 2.0 * witness
            if witness > winding._ROUNDING_BUDGET:
                refused += 1
                with pytest.raises(QuadratureFailure, match="rounding witness"):
                    e2_period(g)
            else:
                assert e2_period(g) == total.real
        assert (checked, refused) == (7, 2)

    @pytest.mark.parametrize("w", [(1, 2), (3, 200)], ids=lambda w: "-".join(map(str, w)))
    def test_rounding_witness_from_its_definition(self, monkeypatch, w):
        # both converge on the first grid of 2n nodes, over which the witness is
        # the trapezoid sum of 2^-52 |z| / Im z |E2(z) dz/dt|, E2 from the
        # scalar reference
        sizes = TestOneEvaluationPerRound.counted(monkeypatch, "_e2")
        g = word_to_matrix(w)
        _, witness = winding._trapezoid(g)
        ell = geodesic_length(g.trace)
        nodes = 2 * max(4, math.ceil(ell / winding._PERIOD_STEP))
        assert sizes == [nodes]
        h, lo = ell / nodes, winding._axis_for(g).balance - 0.5 * ell
        terms = []
        for k in range(nodes):
            z, dz = axis_point(g, lo + h * k)
            terms.append(h * 2.0**-52 * abs(z) / z.imag * abs(scalar_e2(z) * dz))
        assert witness == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_refuse_never_wrong(self):
        outcomes = set()
        for w in self.SLICE:
            try:
                outcomes.add(abs(e2_period(word_to_matrix(w)) - psi_cf(w)) <= 1e-6)
            except QuadratureFailure:
                outcomes.add("refused")
        assert outcomes == {True, "refused"}


# Words longer than the census the acceptance tests sample (T = 14); the first
# three missed the 1e-6 tolerance when both routes started the loop at t = 0,
# and e2_period refused the last (length 34.8) on the centred window.
@pytest.mark.parametrize(
    "w",
    [
        (387, 2, 3, 6),
        (172, 4, 3, 6),
        (3, 2, 3, 2, 3, 2, 2, 2, 3, 3, 1, 3),
        (6, 5, 209, 2),
        (6, 1, 393, 3),
        (2, 9, 2, 8, 6, 7, 1, 5, 9, 1, 7, 4),
    ],
    ids=lambda w: "-".join(map(str, w)),
)
def test_long_words(w):
    g = word_to_matrix(w)
    assert winding_index(g).index == psi_cf(w)
    assert e2_period(g) == pytest.approx(psi_cf(w), abs=1e-6)


@st.composite
def words_up_to_length_24(draw):
    """2 to 12 entries in 1..400, cut to the longest even prefix of length <= 24.

    Every two-entry prefix qualifies: its trace is at most 400^2 + 2.
    """
    entries = draw(st.lists(st.integers(1, 400), min_size=2, max_size=12))
    w = tuple(entries[: len(entries) - len(entries) % 2])
    while geodesic_length(word_to_matrix(w).trace) > 24.0:
        w = w[:-2]
    return w


@settings(derandomize=True, deadline=None, max_examples=60)
@given(words_up_to_length_24())
def test_routes_match_psi_property(w):
    g = word_to_matrix(w)
    index = winding_index(g).index
    assert index == psi_cf(w)
    assert winding_index(g.inverse()).index == -index
    assert abs(e2_period(g) - psi_cf(w)) <= 1e-6
