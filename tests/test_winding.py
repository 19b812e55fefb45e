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
    NonPositiveImaginary,
    NotHyperbolic,
    QuadratureFailure,
    ResidualTooLarge,
    StepTooCoarse,
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
    place k of the first largest digit of the period.

    The matrix of the first reduced state (P, Q) of the walk (a - d = P, 2c = Q)
    is conjugated by A_a A_b over each pair of digits before k, and at odd k
    then by S T^-a, a the digit before k.  The fixed points of g are
    (a - d +- sqrt(D)) / 2c, attracting first.
    """
    t = gamma.trace
    P, Q, digits = _reduced_cycle(t, gamma.a - gamma.d, 2 * gamma.c)
    g = Mat2((t + P) // 2, (t * t - 4 - P * P) // (2 * Q), Q // 2, (t - P) // 2)
    k = digits.index(max(digits))
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
        with pytest.raises(NonPositiveImaginary):
            winding._reduce(np.array([0.3 + 1j, z]))

    @pytest.mark.parametrize("order", [1, -1], ids=["below-first", "unresolved-first"])
    def test_non_positive_imaginary_refused_first(self, order):
        # one batch holding a point below the real axis and an unresolved one
        zs = np.array([0.3 - 1j, 0.3 + 1e-20j][::order])
        with pytest.raises(NonPositiveImaginary):
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
        delta = self.counted(monkeypatch, "_delta_series")
        res = winding_index(word_to_matrix((1, 60)))
        assert len(delta) >= 2 and sum(delta) == res.steps + 1
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
        # one split sized by the height bound of each interval bounds the
        # argument's turn below pi/2 on every interval of the final grid
        delta = self.counted(monkeypatch, "_delta_series")
        batches = recorded_batches(monkeypatch)
        g = word_to_matrix(w)
        assert winding_index(g).index == psi(g)
        assert len(delta) <= 2 and len(batches) == 2
        assert np.all(turn_bound(*final_grid(batches)) < 0.5 * math.pi)


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
    """(t, values) of each batch that winding_index hands to _in_chunks from now on."""
    batches = []
    in_chunks = winding._in_chunks

    def recording(fn, t):
        batches.append((t.copy(), in_chunks(fn, t)))
        return batches[-1][1]

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


def turn_bound(t, values):
    """h (c B + 18) on each interval of the grid t: a bound on how far arg F
    turns over it, with B from the heights in values[1] at the nodes."""
    return np.diff(t) * (winding._E2_RATE * height_bound(t, values[1]) + 18.0)


class TestRefine:
    """The one split of winding_index's grid, against a reference that splits
    one interval at a time, with its evaluations recorded."""

    # seed 0 is accepted on the first grid; the others split around a cusp
    # excursion of their large digit
    WORDS = [(1, 2), (1, 40), (3, 150, 2, 5), (2, 7, 1, 300), (90, 1, 45, 2), (1, 1, 1, 777)]

    @staticmethod
    def reference(t, values, new_values):
        """Nodes and values of the split grid, one interval and one node at a
        time: interval k of the grid t splits into the least number of equal
        parts on which the turn bound at the height bound over it is below
        pi/2, and the new nodes take the columns of new_values in order."""
        pieces = np.floor(turn_bound(t, values) / (0.5 * math.pi)) + 1.0
        nodes, columns, fresh = [], [], iter(new_values.T)
        for k in range(t.size - 1):
            step = (t[k + 1] - t[k]) / pieces[k]
            for m in range(int(pieces[k])):
                nodes.append(step * m + t[k])
                columns.append(values[:, k] if m == 0 else next(fresh))
        nodes.append(t[-1])
        columns.append(values[:, -1])
        assert next(fresh, None) is None
        return np.array(nodes), np.stack(columns, axis=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference(self, monkeypatch, seed):
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        batches = recorded_batches(monkeypatch)
        res = winding_index(word_to_matrix(self.WORDS[seed]))
        (t, values), *split = batches
        assert len(split) == (1 if seed else 0)
        new_t, new_values = split[0] if split else (np.empty(0), np.empty((2, 0)))
        ref_t, ref_values = self.reference(t, values, new_values)
        # the grid is the reference's, and each node was evaluated once
        assert np.array_equal(np.sort(np.concatenate([t, new_t])), ref_t)
        assert sum(delta) == ref_t.size == res.steps + 1
        # the old values are carried over: the total is read off the reference
        turns = float(winding._wrap(np.diff(ref_values[0])).sum()) / (2 * math.pi)
        assert (res.index, res.residual) == (round(turns), abs(turns - round(turns)))

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
        # refused before any node of the split is evaluated
        assert len(delta) == 1

    @pytest.mark.parametrize(
        "w",
        WORDS + [(1, 8000), (1, 30000), (1, 3, 1, 8000), (2, 5000, 3, 9000), (1, 22024)],
        ids=lambda w: "-".join(map(str, w)),
    )
    def test_final_grid_meets_the_bound(self, monkeypatch, w):
        # the check the split makes unneeded: the turn bound with the height
        # bound recomputed from the final nodes is below pi/2 on every interval;
        # at most two batches (of slices of _CHUNK points), each node in one
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        batches = recorded_batches(monkeypatch)
        g = word_to_matrix(w)
        res = winding_index(g)
        assert res.index == psi(g)
        assert len(batches) <= 2 and sum(delta) == res.steps + 1
        assert np.all(turn_bound(*final_grid(batches)) < 0.5 * math.pi)

    def test_first_grid_within_the_node_cap(self, monkeypatch):
        # the largest trace whose t^2 - 4 is a float has the longest first grid,
        # far below the cap, so only the split's grid is checked against it
        top = math.isqrt(2**1024 - 2**970 + 3)
        assert 2**511 < top < 2**512
        nodes = math.ceil(geodesic_length(top) / winding._BASE_STEP) + 1
        assert nodes == 23661 < winding._MAX_NODES
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        with pytest.raises(CapExceeded, match="float spacing"):
            winding_index(word_to_matrix((1, top - 2)))
        assert delta == [nodes]
        with pytest.raises(CapExceeded, match="past the float range"):
            winding_index(word_to_matrix((1, top - 1)))
        assert delta == [nodes]

    def test_node_cap_admits_the_grid_that_fills_it(self, monkeypatch):
        g = word_to_matrix((1, 60))
        res = winding_index(g)
        monkeypatch.setattr(winding, "_MAX_NODES", res.steps + 1)
        assert winding_index(g) == res
        monkeypatch.setattr(winding, "_MAX_NODES", res.steps)
        delta = TestOneEvaluationPerRound.counted(monkeypatch, "_delta_series")
        with pytest.raises(CapExceeded, match=f"needs {res.steps + 1} nodes"):
            winding_index(g)
        assert len(delta) == 1


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
    # |d arg F/dt| <= c y_red + 18 along a unit-speed axis, and the height
    # bound over each interval comes from its end nodes, so on a dense grid
    # every increment of arg F is within h (c B + 18).  Where that is below pi
    # (B up to about 2,200, the tops of these axes included) the wrapped
    # increments are the true ones.  The slack covers the fold's rounding, a
    # relative 2^-52 |z| / Im z < 3e-10 in j, whose argument counts twelve times
    radius = math.exp(log_radius)
    ends = (centre + radius, centre - radius)
    axis = winding._Axis(*(ends[::-1] if reversed_ else ends), length=12.0, balance=0.0)
    t = np.linspace(-6.0, 6.0, 60001)
    z, dz = axis.at(t)
    z_red, j, tail = winding._delta_series(z)
    arg_f = winding._arg_delta(z_red, j, tail) + 6.0 * np.angle(dz)
    inc = np.abs(winding._wrap(np.diff(arg_f)))
    assert np.all(inc <= turn_bound(t, np.stack([arg_f, z_red.imag])) + 1e-8)


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
        with pytest.raises(NonPositiveImaginary):
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
        # halve the first step and double both rate terms, which halves every
        # interval's step: the reported index must not depend on the grid
        monkeypatch.setattr(winding, "_BASE_STEP", 0.5 * winding._BASE_STEP)
        monkeypatch.setattr(winding, "_E2_RATE", 2.0 * winding._E2_RATE)
        monkeypatch.setattr(winding, "_FLAT_RATE", 2.0 * winding._FLAT_RATE)
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
        w = long_words(55, 20)[4]
        assert len(w) == 18
        start = time.perf_counter()
        with pytest.raises(ResidualTooLarge, match="winding total"):
            winding_index(word_to_matrix(w))
        assert time.perf_counter() - start < 1.0

    def test_coarse_grid_raises_at_once(self, monkeypatch):
        # the period of (1, 60), about 8.25, in nine intervals that a rate
        # bound of zero never splits: the argument turns 59 times over them
        monkeypatch.setattr(winding, "_BASE_STEP", 1.0)
        monkeypatch.setattr(winding, "_E2_RATE", 0.0)
        monkeypatch.setattr(winding, "_FLAT_RATE", 0.0)
        start = time.perf_counter()
        with pytest.raises(StepTooCoarse, match="argument jump"):
            winding_index(word_to_matrix((1, 60)))
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
    # are computed, three refused by the witness and one by the node cap
    SLICE = long_words(36, 5)[1:] + long_words(40, 5)

    def test_rounding_witness_bounds_the_error(self):
        # the witness sums the fold's error scale; on random long words the error
        # was at most 1.25 times it, and a word is refused exactly when it is above
        # budget
        checked = refused = 0
        for w in self.SLICE:
            g = word_to_matrix(w)
            try:
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
        assert (checked, refused) == (8, 3)

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
