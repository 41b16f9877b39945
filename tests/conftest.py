import os
import threading
from contextlib import contextmanager

import pytest

from fillflow import events
from fillflow.events import group_transactions
from fillflow.fixtures import fixture_fills, market_specs
from fillflow.synthetic import SyntheticScenario, generate_synthetic_ledger
from fillflow.units import parse_utc


def read_table(path, required):
    """Yield (line number, record) from a JSONL or CSV file, as ``events._table_records`` reads
    them: the records the tests build reference values from.

    A violation, or a byte that is not UTF-8, raises the ParseError the readers raise.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        yield from events._table_records(fh, required)


@contextmanager
def piped(data: bytes):
    """A ``/dev/fd/N`` path that reads ``data`` from a pipe, as a shell's ``<(...)`` passes
    one. A thread writes the data, so it may exceed the pipe's buffer."""
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)  # a writer the command left blocked gets a broken pipe
        writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.fixture(scope="session", autouse=True)
def shared_fill_cache(tmp_path_factory):
    """The parsed-table cache of fixtures shared between tests, which read ledgers too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache-shared")))
        yield


@pytest.fixture(autouse=True)
def fill_cache(tmp_path_factory, monkeypatch):
    """Each test's own parsed-table cache directory, empty when the test starts, so no entry
    written by another test, or by a user, can answer a read."""
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "fillflow"


@pytest.fixture(scope="session")
def markets():
    return market_specs()


@pytest.fixture(scope="session")
def example_fills():
    return fixture_fills()


@pytest.fixture(scope="session")
def example_transactions(example_fills):
    return group_transactions(example_fills)


@pytest.fixture(scope="session")
def small_ledger(markets):
    scenario = SyntheticScenario(
        seed=421,
        markets=markets[:2],
        start=parse_utc("2024-02-01T00:00:00Z"),
        end=parse_utc("2024-05-01T00:00:00Z"),
        n_transactions=1500,
    )
    return generate_synthetic_ledger(scenario)
