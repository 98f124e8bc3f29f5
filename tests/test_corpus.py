"""Golden corruption corpus: run_all must report every corrupted run as before.

Each run corrupts 1 to 12 companion values, chosen by its own seed, and hashes
what run_all reports for every check: name, status and counterexamples in
order, not elapsed_ms. The hashes in corruption_corpus.json were written by

    PYTHONPATH=src python tests/test_corpus.py --write

and a change to the checks must leave every one of them as it is.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from seqlab.checks import required_length, run_all
from seqlab.report import VerifyConfig
from seqlab.sequences import a_seq

GOLDEN = Path(__file__).with_name("corruption_corpus.json")
RUNS = 40
CONFIG = VerifyConfig(max_n=200, series_order=30, oracle_max=7)


def _corrupt(rng: random.Random, v: int) -> int:
    """v changed in one of the ways a broken value could be, kept positive."""
    kind = rng.randrange(5)
    if kind == 0:
        return v + rng.choice([1, 2, 6, 24])
    if kind == 1:
        return max(1, v - rng.choice([1, 2, 6]))
    if kind == 2:
        return v * rng.choice([2, 3, 4, 5])
    if kind == 3:
        return v << rng.choice([20, 400])
    return rng.randint(1, 10**6)


def corpus_run(seed: int) -> str:
    """The sha256 of run_all's report on the values corrupted by this seed."""
    rng = random.Random(seed)
    values = a_seq(required_length(CONFIG) - 1)
    for _ in range(rng.randint(1, 12)):
        # Most corruptions land inside the walked range, the rest in the
        # look-ahead that only a6_relation and d_upper's mechanism read.
        n = rng.randrange(len(values)) if rng.random() < 0.25 else rng.randrange(CONFIG.max_n + 1)
        values[n] = _corrupt(rng, values[n])
    results = run_all(CONFIG, values)
    report = [[r.name, r.status, r.counterexamples] for r in results]
    return hashlib.sha256(json.dumps(report).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", range(RUNS))
def test_corrupted_run_reports_as_before(seed, golden):
    assert corpus_run(seed) == golden[str(seed)], f"corpus run {seed} reports differently"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps({str(s): corpus_run(s) for s in range(RUNS)}, indent=1) + "\n")
