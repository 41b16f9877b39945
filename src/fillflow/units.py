"""Fixed-point money units and UTC calendar helpers.

All monetary and share amounts are carried as exact integers in 10^-6 units
(micro-USDC / micro-shares). Conversion to decimal USD strings happens only
at presentation time, so ledger arithmetic never touches floating point.
"""

from __future__ import annotations

from datetime import datetime, timezone
from functools import lru_cache

MICRO = 10**6
HOUR = 3600
DAY = 86400

# Analysis window end default: the first network call of the election outcome (UTC).
DEFAULT_WINDOW_END = "2024-11-06T06:46:00Z"


def micro_to_usd(amount: int) -> str:
    """Render integer micro-USDC as a decimal USD string with 6 digits."""
    sign = "-" if amount < 0 else ""
    amount = abs(amount)
    return f"{sign}{amount // MICRO}.{amount % MICRO:06d}"


def parse_utc(value: str | int | float) -> int:
    """Parse an ISO-8601 UTC instant (or epoch seconds) to epoch seconds.

    Accepts ``2024-07-21``, ``2024-07-21T17:46:00Z``, an explicit ``+00:00``
    offset, or epoch seconds as an int, an integral float or ASCII digits.
    Naive datetimes are taken as UTC. Anything else, surrounding whitespace
    included, raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"not a timestamp: {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not a whole number of seconds: {value!r}")
    if isinstance(value, (int, float)):
        return int(value)
    if value.isascii() and value.isdigit():
        return int(value)
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    dt = datetime.fromisoformat(value)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_utc(ts: int) -> str:
    second = ts % DAY
    return (f"{format_date(ts - second)}T"
            f"{second // HOUR:02d}:{second // 60 % 60:02d}:{second % 60:02d}Z")


@lru_cache(maxsize=1024)  # a series labels many instants of one day, by its first second
def format_date(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")


def hour_floor(ts: int) -> int:
    return ts - ts % HOUR


def day_floor(ts: int) -> int:
    return ts - ts % DAY


def month_floor(ts: int) -> int:
    """Start of the UTC month containing ``ts``, by exact integer civil-date arithmetic.

    Days are counted in 400-year eras of 146,097 days, each year taken from March 1
    so that a leap day ends it (the proleptic Gregorian calendar); the day of the
    month then follows from the day of that year.
    """
    days = ts // DAY + 719468  # days since 0000-03-01
    day_of_era = days % 146097
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36524
                   - day_of_era // 146096) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    month = (5 * day_of_year + 2) // 153  # 0 for March, ..., 11 for February
    month_start = (153 * month + 2) // 5  # the day of the year that month starts on
    return (ts - ts % DAY) - (day_of_year - month_start) * DAY


def next_month(ts: int) -> int:
    """Start of the month after the month containing ``ts``: no month is 32 days long."""
    return month_floor(month_floor(ts) + 32 * DAY)
