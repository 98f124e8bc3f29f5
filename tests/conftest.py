import pytest
from hypothesis import Phase, settings

import _criteria
from seqlab import a_seq, rows_from_a

# Only the @example cases, never a random draw: `pytest --hypothesis-profile=explicit`.
# The mutation gate (tests/mutants.py) runs under it, so that no kill rests on luck.
settings.register_profile("explicit", phases=[Phase.explicit], database=None)


@pytest.fixture(scope="session")
def avalues():
    # One shared prefix covers every range the acceptance criteria touch.
    return a_seq(5006)


@pytest.fixture(scope="session")
def rows5000(avalues):
    return rows_from_a(avalues[:5001])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria.attempted:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criteria.attempted):
        status = "PASS" if num in _criteria.passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {status} {_criteria.TITLES[num]}")
