import sys
from functools import cache
from itertools import permutations
from math import factorial

import pytest

from seqlab import involutions
from seqlab.involutions import (
    ENUMERATION_MAX,
    check_involution_identity,
    count_involutions_enum,
)
from seqlab.sequences import a_seq


@cache
def plain_scan(n):
    """The per-tuple reference: every permutation is visited in Python and
    tested on p[p[i]] == i for i = 0, 1, ... until one fails."""
    count = 0
    for p in permutations(range(n)):
        if n and p[p[0]] != 0:
            continue
        for i in range(1, n):
            if p[p[i]] != i:
                break
        else:
            count += 1
    return count


def test_counts_small():
    assert [count_involutions_enum(n) for n in range(11)] == [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]


@pytest.mark.parametrize("n", range(ENUMERATION_MAX + 1))
def test_enumeration_matches_the_plain_scan(n):
    assert count_involutions_enum(n) == plain_scan(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_draws_every_permutation(monkeypatch, n):
    # Each unplaced value the search draws at position k extends p[:k] to a
    # node of the permutation tree. A drawn node that no drawn node extends is
    # where the (n - len)! permutations below it are decided; these subtrees
    # must hold every one of the n! permutations, and none twice.
    drawn = []

    def drawing_range(stop):
        for v in range(stop):
            search = sys._getframe(1).f_locals
            if search["free"][v]:
                drawn.append(tuple(search["p"][: search["k"]]) + (v,))
            yield v

    monkeypatch.setattr(involutions, "range", drawing_range, raising=False)
    count_involutions_enum(n)
    nodes = set(drawn)
    assert len(drawn) == len(nodes)
    assert all(len(set(node)) == len(node) for node in nodes)
    assert all(len(node) == 1 or node[:-1] in nodes for node in nodes)
    decided = [node for node in nodes if not any(node + (v,) in nodes for v in range(n))]
    assert sum(factorial(n - len(node)) for node in decided) == factorial(n)


def _involution_prefixes(n):
    """Every prefix, the empty one and the whole permutation included, of an
    involution on n elements, found by the plain per-tuple test."""
    found = [p for p in permutations(range(n)) if all(p[p[i]] == i for i in range(n))]
    return {p[:k] for p in found for k in range(n + 1)}


@pytest.mark.parametrize("n", range(9))
def test_the_search_keeps_only_prefixes_of_involutions(n):
    # Every function call made inside the module, the entry point's own
    # excepted, is one prefix the search kept. A prefix no involution extends
    # would cost time without changing the count.
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename == involutions.__file__:
            calls += code is not count_involutions_enum.__code__

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        count_involutions_enum(n)
    finally:
        sys.setprofile(previous)
    assert calls == len(_involution_prefixes(n))


def test_count_domain():
    with pytest.raises(ValueError):
        count_involutions_enum(-1)
    with pytest.raises(ValueError):
        count_involutions_enum(ENUMERATION_MAX + 1)


def test_check_matches_companion_sequence():
    result = check_involution_identity(8)
    assert result.passed
    assert result.name == "involutions"
    assert (result.lo, result.hi) == (0, 8)


def test_check_catches_corruption():
    a = list(a_seq(8))
    a[6] -= 1
    result = check_involution_identity(8, a)
    assert not result.passed
    assert [n for n, _ in result.counterexamples] == [6]


def test_check_respects_cap():
    with pytest.raises(ValueError):
        check_involution_identity(ENUMERATION_MAX + 1)


def _involutions_reference(values):
    """The involutions check from its docstring: a_n against the per-tuple
    scan for every n <= ENUMERATION_MAX, as (name, lo, hi, counterexamples)."""
    cex = [
        (n, f"enumerated {plain_scan(n)} involutions but a({n}) = {values[n]}")
        for n in range(ENUMERATION_MAX + 1)
        if plain_scan(n) != values[n]
    ]
    return "involutions", 0, ENUMERATION_MAX, cex


# The ways the corruption corpus changes a value, and zero and a sign flip.
CORRUPTIONS = {
    "plus 2": lambda v: v + 2,
    "minus 1": lambda v: v - 1,
    "doubled": lambda v: v * 2,
    "zero": lambda v: 0,
    "negated": lambda v: -v,
    "shifted 400 bits": lambda v: v << 400,
}


@pytest.mark.parametrize("n", [0, 5, ENUMERATION_MAX])
@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_check_matches_the_reference_under_corruption(corruption, n):
    values = a_seq(ENUMERATION_MAX)
    values[n] = CORRUPTIONS[corruption](values[n])
    result = check_involution_identity(ENUMERATION_MAX, values)
    assert (result.name, result.lo, result.hi, result.counterexamples) == _involutions_reference(values)
    assert [m for m, _ in result.counterexamples] == [n]
