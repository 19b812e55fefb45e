"""Each exact input is checked and converted once, where it enters.

Mat2 and validate_entries turn numpy integers into Python ints, so every
result computed from them is a Python int equal to the one from Python-int
input; and a word is refused exactly as the per-entry check below refuses it.
"""

import json
from operator import index

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwind.errors import DomainError
from modwind.geodesics import (
    CyclicWord,
    EnumerationConfig,
    canonical_form,
    enumerate_geodesics,
    matrix_to_word,
    validate_entries,
    word_to_matrix,
)
from modwind.matrices import Mat2, dedekind_sum, dedekind_sum_direct, geodesic_length, omega, short_int
from modwind.rademacher import phi_closed, phi_word, psi, psi_cf, psi_cocycle, s_symbol, word_factor_matrix
from modwind.winding import WindingResult, e2_period, winding_index

TAU = Mat2(2, 1, 3, 2)
MATRICES = [
    g
    for w in ((3, 7), (2, 1, 1, 3), (1, 2, 3, 4), (5, 1, 1, 1, 2, 2))
    for g in (word_to_matrix(w), TAU @ word_to_matrix(w) @ TAU.inverse())
]


def ints_of(value):
    """The integers inside a result: itself, a Mat2's entries, a word's, a WindingResult's."""
    if isinstance(value, Mat2):
        return list(value.entries())
    if isinstance(value, CyclicWord):
        return list(value.entries)
    if isinstance(value, WindingResult):
        return [value.index, value.steps]
    return [value] if isinstance(value, (int, np.integer)) else []


def results(g):
    return {
        "psi": psi(g),
        "psi_cocycle": psi_cocycle(g),
        "s_symbol": s_symbol(g),
        "phi_closed": phi_closed(g),
        "omega": omega(g, TAU),
        "omega_left": omega(TAU, g),
        "power": g.power(5),
        "power_numpy_exponent": g.power(np.int64(-5)),
        "repr": repr(g),
        "matrix_to_word": matrix_to_word(g),
        "winding_index": winding_index(g),
        "e2_period": e2_period(g),
    }


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("g", MATRICES, ids=repr)
def test_numpy_entries_give_python_results(g, dtype):
    numpy_g = Mat2(*np.array(g.entries(), dtype))
    assert numpy_g == g
    assert all(type(x) is int for x in numpy_g.entries())
    got, expected = results(numpy_g), results(g)
    assert got == expected
    for value in got.values():
        assert all(type(x) is int for x in ints_of(value))


def test_census_digits_make_python_matrices():
    census = enumerate_geodesics(EnumerationConfig(10.0))
    assert len(census) > 1000
    # the int32 rows of the word blocks laid end to end, in walk order
    words = [word for block in census.words for word in block]
    for i in range(len(census)):
        g = word_to_matrix(words[census.walk_index[i]])
        assert g.trace == census.trace[i]
        assert psi(g) == census.psi[i]
        assert all(type(x) is int for x in g.entries())


def test_long_int32_word_does_not_wrap():
    g = word_to_matrix(np.ones(60, np.int32))
    assert g == word_to_matrix((1,) * 60)
    assert g.a > np.iinfo(np.int32).max


def test_numpy_word_symbol_is_json():
    word = canonical_form(np.array([2, 1, 1, 3]))
    assert word == CyclicWord((1, 3, 2, 1))
    assert all(type(x) is int for x in word.entries)
    assert json.dumps(psi_cf(word)) == "-1"


def test_numpy_dedekind_sum():
    assert dedekind_sum(np.int64(5), np.int64(7)) == dedekind_sum(5, 7)
    assert dedekind_sum(np.int32(-5), np.int64(7)) == dedekind_sum(-5, 7)
    with pytest.raises(DomainError, match="integers"):
        dedekind_sum(5.0, 7)
    with pytest.raises(DomainError, match="integers"):
        dedekind_sum(5, 7.0)


@pytest.mark.parametrize("h, k", [(5, 7), (-5, 7), (3, 1), (0, 4), (12, 9)])
def test_numpy_dedekind_sum_direct(h, k):
    # the oracle takes h and k as dedekind_sum does
    expected = dedekind_sum(h, k)
    for dtype in (np.int32, np.int64):
        assert dedekind_sum_direct(dtype(h), dtype(k)) == expected
        assert dedekind_sum(dtype(h), dtype(k)) == expected


@pytest.mark.parametrize("h, k", [(5, 0.5), (5.0, 7), ("5", 7), (5, None)], ids=repr)
def test_dedekind_sums_refuse_non_integers(h, k):
    for f in (dedekind_sum, dedekind_sum_direct):
        with pytest.raises(DomainError, match="integers"):
            f(h, k)


@pytest.mark.parametrize("k", [0, -3, np.int64(0), np.int32(-3)], ids=repr)
def test_dedekind_sums_refuse_non_positive_modulus(k):
    for f in (dedekind_sum, dedekind_sum_direct):
        with pytest.raises(DomainError, match=f"^k = {int(k)}$"):
            f(5, k)


PHI_FACTORS = [("T", 3), ("S", 1), ("T", 2), ("S", -1), ("T", -4), ("S", 2)]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_numpy_phi_word(dtype):
    got = phi_word([(kind, dtype(n)) for kind, n in PHI_FACTORS])
    assert got == phi_word(PHI_FACTORS) and type(got) is int


@pytest.mark.parametrize("kind", ["T", "S"])
@pytest.mark.parametrize("n", [2.5, 1.0, "3", None], ids=repr)
def test_phi_word_refuses_non_integer_exponents(kind, n):
    with pytest.raises(DomainError, match="integer"):
        phi_word([("T", 1), (kind, n)])


def reference_validate(entries):
    """The per-entry check of a word that the library held before it converted
    entries: lengths first, then the first bad entry decides."""
    if len(entries) % 2 != 0 or len(entries) == 0:
        raise DomainError(f"word length {len(entries)} is not a positive even number")
    try:
        for a in entries:
            if index(a) < 1:
                raise DomainError(f"entry {short_int(index(a))} < 1")
    except TypeError:
        raise DomainError("word entries must be integers") from None


def outcome(f, word):
    """(error class, message) that f(word) raises, or ("value", result)."""
    try:
        return "value", f(word)
    except Exception as exc:
        return type(exc), str(exc)


ENTRY = st.one_of(
    st.integers(-3, 6),
    st.integers(2**64, 2**66),
    st.floats(-2.0, 6.0),
    st.text(max_size=2),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(ENTRY, max_size=7))
def test_refusals_match_the_per_entry_check(word):
    word = tuple(word)
    expected = outcome(reference_validate, word)
    if expected[0] == "value":
        ints = tuple(index(a) for a in word)
        rotations = [ints[k:] + ints[:k] for k in range(0, len(ints), 2)]
        assert validate_entries(word) == ints
        assert canonical_form(word) == CyclicWord(min(rotations))
        assert psi_cf(word) == sum(ints[::2]) - sum(ints[1::2])
        if ints == min(rotations):
            assert CyclicWord(word).entries == ints
        else:
            assert outcome(CyclicWord, word) == (DomainError, f"{word} is not in canonical rotation")
        return
    for f in (validate_entries, CyclicWord, canonical_form, psi_cf):
        assert outcome(f, word) == expected


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Mat2(1, 1, 1, 1), "determinant is not 1"),
        (lambda: Mat2(1.0, 0, 0, 1), "matrix entries must be integers"),
        (lambda: CyclicWord((2, 1, 1, 3)), "not in canonical rotation"),
        (lambda: word_factor_matrix(("U", 1)), "unknown generator 'U'"),
        (lambda: TAU.power(2.5), "exponents must be integers"),
        (lambda: TAU.power("3"), "exponents must be integers"),
        (lambda: word_factor_matrix(("S", 2.5)), "exponents must be integers"),
        (lambda: word_factor_matrix(("S", "1")), "exponents must be integers"),
        (lambda: geodesic_length(2.5), "traces must be integers"),
        (lambda: geodesic_length(float("nan")), "traces must be integers"),
    ],
    ids=[
        "determinant", "entries", "rotation", "generator", "power-float", "power-str",
        "factor-float", "factor-str", "length-float", "length-nan",
    ],
)
def test_bad_argument_is_a_domain_error_and_a_value_error(build, message):
    # callers that catch ValueError around these, as the CLI does, keep working
    with pytest.raises(DomainError, match=message) as caught:
        build()
    assert isinstance(caught.value, ValueError)


def test_held_word_returned_as_is():
    w = canonical_form((2, 1, 1, 3))
    assert validate_entries(w) is w.entries
    assert validate_entries(CyclicWord((1, 3, 2, 1))) == (1, 3, 2, 1)
