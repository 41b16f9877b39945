import pytest

from fillflow import events
from fillflow.events import group_transactions
from fillflow.fixtures import fixture_fills, market_specs
from fillflow.synthetic import SyntheticScenario, generate_synthetic_ledger
from fillflow.units import parse_utc


def read_table(path, required):
    """Yield (line number, record) from a ``.csv`` file or, for any other suffix, JSONL: the
    general reader, a dict per row, that the readers' fast paths are checked against.

    A violation, or a byte that is not UTF-8, raises the ParseError the readers raise.
    """
    is_csv = str(path).endswith(".csv")
    try:
        with open(path, encoding="utf-8", newline="" if is_csv else None) as fh:
            yield from table_records(fh, is_csv, required)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raise events._utf8_error(fh) from None


def table_records(fh, is_csv, required):
    """Yield (line number, record) from CSV (``is_csv``) or JSONL text file ``fh``.

    A CSV file starts with a header naming every ``required`` column, and
    each row has exactly as many values as the header; a JSONL line is one
    JSON object. Blank lines are skipped; violations raise ParseError with
    the line number.
    """
    if is_csv:
        rows = events._csv_rows(fh, required)
        header = next(rows, [])
        for line_no, row in rows:
            yield line_no, dict(zip(header, row))
    else:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield line_no, events._json_record(line, line_no)


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
