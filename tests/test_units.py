import calendar
import random
from datetime import datetime, timezone

import pytest

from fillflow.units import format_date, format_utc, month_floor, next_month, parse_utc


class TestParseUtc:
    @pytest.mark.parametrize("value", [
        "١٧٠٩",  # Arabic-Indic digits: str.isdigit() is true for them
        " 1709 ",
        1.9,
    ], ids=["non-ascii-digits", "surrounding-spaces", "fractional-float"])
    def test_rejected(self, value):
        with pytest.raises(ValueError):
            parse_utc(value)

    # The last second format_utc can write is 9999-12-31T23:59:59Z, 253402300799.
    @pytest.mark.parametrize("value", [253402300800, "253402300800", 253402300800.0,
                                       "9999-12-31T23:59:59-00:01"],
                             ids=["int", "digits", "float", "behind-utc"])
    def test_past_year_9999_rejected(self, value):
        assert format_utc(parse_utc("9999-12-31T23:59:59Z")) == "9999-12-31T23:59:59Z"
        with pytest.raises(ValueError, match=r"timestamp \d+ is past "
                                             "9999-12-31T23:59:59Z"):
            parse_utc(value)

    @pytest.mark.parametrize("value, expected", [
        ("2024-07-21", 1721520000),
        ("2024-07-21T17:46:00Z", 1721583960),
        ("2024-07-21T17:46:00+00:00", 1721583960),
        ("1709640000", 1709640000),
        (1.0, 1),
    ], ids=["date", "zulu", "utc-offset", "epoch-digits", "integral-float"])
    def test_accepted(self, value, expected):
        assert parse_utc(value) == expected


def strftime_utc(ts, form):
    """The reference: strftime of the UTC datetime of ``ts``."""
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(form)


class TestFormatUtc:
    # Each instant, one second either side of it and its day's first and last second.
    EDGES = [parse_utc(text) for text in (
        "1970-01-01", "1970-12-31T23:59:59Z", "1999-12-31T23:59:59Z", "2000-02-28T12:00:00Z",
        "2000-02-29T23:59:59Z", "2000-03-01", "2023-12-31T23:59:59Z", "2024-02-29T06:30:15Z",
        "2024-03-01", "2024-11-06T06:46:00Z", "2099-12-31T23:59:59Z", "2100-02-28T23:59:59Z",
        "2100-03-01", "2100-12-31T23:59:59Z")]

    def timestamps(self):
        rng = random.Random(20241106)
        near = [ts + delta for ts in self.EDGES for delta in (-1, 0, 1)]
        days = [ts - ts % 86400 + offset for ts in self.EDGES for offset in (0, 86399)]
        spread = [rng.randrange(0, parse_utc("2101-01-01")) for _ in range(10_000)]
        return [ts for ts in near + days + spread if ts >= 0]

    def test_labels_equal_strftime(self):
        for ts in self.timestamps():
            assert format_utc(ts) == strftime_utc(ts, "%Y-%m-%dT%H:%M:%SZ"), ts
            assert format_date(ts) == strftime_utc(ts, "%Y-%m-%d"), ts


def datetime_month_floor(ts):
    """The reference: the first second of the UTC month of ``ts``, through ``datetime``."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return int(datetime(dt.year, dt.month, 1, tzinfo=timezone.utc).timestamp())


def datetime_next_month(ts):
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return datetime_month_floor(ts) + calendar.monthrange(dt.year, dt.month)[1] * 86400


def test_month_bounds_equal_datetime_at_every_month_start_1970_to_2100():
    for year in range(1970, 2101):
        for month in range(1, 13):
            start = int(datetime(year, month, 1, tzinfo=timezone.utc).timestamp())
            for ts in (start - 1, start, start + 1):
                assert month_floor(ts) == datetime_month_floor(ts), ts
                assert next_month(ts) == datetime_next_month(ts), ts
