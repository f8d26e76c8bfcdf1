"""Run the benchmark's own tests after every other collected test.

Without this, `benchmarks/` sorts before `tests/`, and the project's
wall-clock acceptance tests would start only after the benchmark's tests
(two of which run a line-counted suite in subprocesses).  Moving these
tests last keeps the project's tests in the order and process state they
have without the benchmark.
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(session, config, items):
    items.sort(key=lambda item: Path(item.path).resolve().is_relative_to(HERE))
