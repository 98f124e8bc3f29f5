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


@pytest.mark.parametrize("n", range(10))
def test_enumeration_matches_the_plain_scan(n):
    assert count_involutions_enum(n) == plain_scan(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_draws_every_permutation(monkeypatch, n):
    drawn = []

    def counted(items):
        for p in permutations(items):
            drawn.append(p)
            yield p

    monkeypatch.setattr(involutions, "permutations", counted)
    count_involutions_enum(n)
    assert len(drawn) == len(set(drawn)) == factorial(n)


def test_a_stream_running_past_n_factorial_raises(monkeypatch):
    def one_too_many(items):
        yield from permutations(items)
        yield tuple(items)

    monkeypatch.setattr(involutions, "permutations", one_too_many)
    with pytest.raises(RuntimeError, match=r"ran on past 5! tuples"):
        count_involutions_enum(5)


# The first tuple, one in a block the walk drains and the last, which it reads.
@pytest.mark.parametrize("dropped", [0, 31, 119])
def test_a_stream_ending_before_n_factorial_raises(monkeypatch, dropped):
    def one_too_few(items):
        return (p for i, p in enumerate(permutations(items)) if i != dropped)

    monkeypatch.setattr(involutions, "permutations", one_too_few)
    with pytest.raises(RuntimeError, match=r"ended before 5! tuples"):
        count_involutions_enum(5)


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
