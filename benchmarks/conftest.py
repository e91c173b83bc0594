"""Shared configuration of the benchmark suite.

Every benchmark regenerates one figure of the paper at a reduced scale
(shorter measurement windows, smaller client counts) so that the whole suite
completes in minutes.  The ``--repro-full`` flag switches to the full-scale
parameters for an overnight reproduction run.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-full",
        action="store_true",
        default=False,
        help="run the full-scale experiments (much slower, closer to the paper's durations)",
    )
    parser.addoption(
        "--workers",
        type=int,
        default=None,
        help=(
            "run Figure 6's original shared-learner deployment on the sharded "
            "engine with this many worker processes"
        ),
    )


@pytest.fixture(scope="session")
def full_scale(request) -> bool:
    """Whether the full-scale experiment parameters were requested."""
    return request.config.getoption("--repro-full")


@pytest.fixture(scope="session")
def windows(full_scale):
    """(warmup, duration) used by the scaled-down benchmark runs."""
    if full_scale:
        return 2.0, 20.0
    return 0.5, 1.5


@pytest.fixture(scope="session")
def workers(request):
    """Worker-process count for the sharded figure points (None = skip them)."""
    return request.config.getoption("--workers")
