"""Repository-wide pytest fixtures (shared by ``tests/`` and ``benchmarks/``)."""

import pytest


@pytest.fixture(scope="session")
def fast_result():
    """``fast_result(figN)`` is ``figN.run(figN.fast_config())``, trained
    once per session however many suites assert on it.

    The paper-figure experiments are the slowest fixtures of tier-1 and
    ``tests/test_experiments.py`` and ``benchmarks/test_bench_fig*.py``
    check the same runs.  Results are shared: treat them as read-only.
    """
    results = {}

    def get(experiment):
        if experiment.__name__ not in results:
            results[experiment.__name__] = experiment.run(experiment.fast_config())
        return results[experiment.__name__]

    return get
