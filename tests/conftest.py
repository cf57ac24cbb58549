"""Suite-wide pytest plumbing.

Owns the ``--regen-golden`` flag used by the golden-trace regression
corpus (``tests/golden/``): when passed, the expected artifacts are
rewritten from the current code instead of being asserted against, so a
*deliberate* numerics change is a one-command regeneration plus a
reviewable diff of the checked-in fingerprints.

Also owns :func:`thread_pool_always`, the one way a test runs a small
matrix build on the thread pool.
"""

import pytest

from repro.core import matrix


def pytest_addoption(parser):
    group = parser.getgroup("repro golden corpus")
    group.addoption(
        "--regen-golden",
        action="store_true",
        help="rewrite tests/golden/expected/*.json from the current code "
        "instead of asserting against the checked-in artifacts",
    )


@pytest.fixture
def thread_pool_always(monkeypatch):
    """Run every tile queue of two or more tiles on the thread pool when
    more than one worker is resolved, however little work it holds.

    Parity tests compare threaded against inline builds on inputs far
    below :data:`repro.core.matrix.THREAD_POOL_MIN_CELLS`; this lowers
    it to 0 for the test.
    """
    monkeypatch.setattr(matrix, "THREAD_POOL_MIN_CELLS", 0)
