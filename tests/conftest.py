import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import settings

from seqlab.classical import bernoulli_upto, derived_bernoulli, euler_upto, sequence_e

# `pytest --hypothesis-profile=ci`: ten times the examples, fresh ones on
# every run.  Hypothesis loads a profile named "ci" by itself where it detects
# a CI service, so the suite loads its default profile unless the option
# names another, and tier-1 runs the default everywhere.
settings.register_profile("ci", max_examples=1000, derandomize=False, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("default")


@pytest.fixture(scope="session")
def btable300():
    return bernoulli_upto(300)


@pytest.fixture(scope="session")
def derived300():
    return derived_bernoulli(300)


@pytest.fixture(scope="session")
def etable200():
    return euler_upto(200)


@pytest.fixture(scope="session")
def e200():
    return sequence_e(200)


@dataclass
class Invocation:
    """What one `seqlab` command line did: its exit code and its two streams."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(argv) -> Invocation:
    """Run ``seqlab.cli.main(argv)`` in this process and capture what it did."""
    from seqlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            # sys.exit(None) is success, sys.exit("message") a failure
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return Invocation(code, out.getvalue(), err.getvalue())
