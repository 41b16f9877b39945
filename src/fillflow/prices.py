"""Per-token price series, arbitrage deviation, and disagreement analytics.

Transaction prices are exact rationals (collateral flow over share flow);
they only become floats inside the correlation layer. The YES+NO price sum
of a complementary pair is pinned to 1 by the split/merge arbitrage
mechanisms, so the deviation series delta = p_yes + p_no - 1 measures how
tightly that constraint binds between trade arrivals.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .decompose import DecomposedTransaction
from .errors import DataError
from .events import COLLATERAL_ID, Transaction
from .metrics import aggregate_components, side_measures
from .units import DAY, day_floor, parse_utc

# Biden's withdrawal date; the combined Democrat series switches source here.
DEFAULT_SPLICE_DAY = "2024-07-21"


# A NamedTuple class cannot define __new__, so the checked records validate in a subclass.
class _PricePointFields(NamedTuple):
    timestamp: int
    block: int
    tx_index: int
    usdc_micro: int
    share_micro: int


class PricePoint(_PricePointFields):
    """One transaction-level trade price for a token; an immutable named tuple.

    Outcome shares resolve to 0 or 1, so a tradable price lies strictly
    inside (0, 1): 0 < usdc_micro < share_micro.
    """

    __slots__ = ()

    def __new__(cls, timestamp, block, tx_index, usdc_micro, share_micro):
        if share_micro <= 0:
            raise DataError("price point needs a positive share quantity")
        if not 0 < usdc_micro < share_micro:
            raise DataError(f"price {usdc_micro}/{share_micro} outside (0, 1)")
        return tuple.__new__(cls, (timestamp, block, tx_index, usdc_micro, share_micro))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which must validate too.
        return cls(*iterable)

    @property
    def price(self) -> Fraction:
        """USD per share (micro units cancel)."""
        from fractions import Fraction

        return Fraction(self.usdc_micro, self.share_micro)


class DeviationPoint(NamedTuple):
    timestamp: int
    delta: float
    p_yes: float
    p_no: float
    yes_staleness: int
    no_staleness: int


class _InflowSeriesFields(NamedTuple):
    days: tuple[int, ...]
    values: tuple[int, ...]


class InflowSeries(_InflowSeriesFields):
    """Dense day-aligned net-inflow series, values in micro-USDC."""

    __slots__ = ()

    def __new__(cls, days, values):
        if len(days) != len(values):
            raise DataError("days and values differ in length")
        for prev, cur in zip(days, days[1:]):
            if cur - prev != DAY:
                raise DataError("inflow series must be dense and day-aligned")
        return tuple.__new__(cls, (days, values))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def build_price_series(transactions: Iterable[Transaction], token_id: str) -> list[PricePoint]:
    """One price point per transaction touching the token.

    Price is the transaction-level collateral flow over share flow for the
    token. When the token trades on both sides within one settlement, the
    side with the larger share total is the aggregate order that netted the
    partial fills, so only that side is used (summing both would double
    count the exchanged quantity). Zero-share and out-of-(0,1) prices are
    skipped with a warning.
    """
    new = tuple.__new__
    points: list[PricePoint] = []
    skipped = 0
    for tx in transactions:
        buy_usdc = buy_shares = sell_usdc = sell_shares = 0
        for _, _, _, _, _, maker_asset_id, taker_asset_id, maker_amount, taker_amount, _ \
                in tx.fills:
            if maker_asset_id == COLLATERAL_ID:
                if taker_asset_id == token_id:
                    buy_usdc += maker_amount
                    buy_shares += taker_amount
            elif maker_asset_id == token_id:
                sell_usdc += taker_amount
                sell_shares += maker_amount
        if buy_shares == 0 and sell_shares == 0:
            continue
        if buy_shares >= sell_shares:
            usdc, shares = buy_usdc, buy_shares
        else:
            usdc, shares = sell_usdc, sell_shares
        if not 0 < usdc < shares:
            skipped += 1
            continue
        # PricePoint's own check is the test above
        points.append(new(PricePoint, (tx.timestamp, tx.block, tx.tx_index, usdc, shares)))
    if skipped:
        import logging

        logging.getLogger(__name__).warning(
            "skipped %d transactions with degenerate prices for token %s", skipped, token_id)
    return points


def arbitrage_deviation(
    yes_series: Sequence[PricePoint],
    no_series: Sequence[PricePoint],
    grid_step: int = 3600,
) -> list[DeviationPoint]:
    """delta = p_yes + p_no - 1 on a fixed grid with last-trade carry-forward.

    The grid starts at the later of the two series' first observations (so
    both legs have a price) and ends at the last observation of either leg.
    Legs are piecewise-constant between trades; per-leg staleness is the
    seconds since the leg's latest trade at the grid time.
    """
    if not yes_series or not no_series:
        raise DataError("both legs need at least one trade")
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    start = max(yes_series[0].timestamp, no_series[0].timestamp)
    end = max(yes_series[-1].timestamp, no_series[-1].timestamp)

    yes_times = [p.timestamp for p in yes_series]
    no_times = [p.timestamp for p in no_series]
    last_yes, last_no = len(yes_times) - 1, len(no_times) - 1
    new = tuple.__new__
    out: list[DeviationPoint] = []
    i = j = 0
    legs = None
    for t in range(start, end + 1, grid_step):
        while i < last_yes and yes_times[i + 1] <= t:
            i += 1
        while j < last_no and no_times[j + 1] <= t:
            j += 1
        if legs != (i, j):  # the prices change only with a leg's trade
            legs = (i, j)
            _, _, _, uy, sy = yes_series[i]
            _, _, _, un, sn = no_series[j]
            # Exact rationals as integer ratios: int / int rounds correctly, so each
            # float equals float() of the Fraction.
            delta, p_yes, p_no = (uy * sn + un * sy - sy * sn) / (sy * sn), uy / sy, un / sn
        out.append(new(DeviationPoint, (t, delta, p_yes, p_no, t - yes_times[i], t - no_times[j])))
    return out


def daily_net_inflow(
    records: Iterable[DecomposedTransaction],
    market: str,
    side: str = "yes",
    start: int | None = None,
    end: int | None = None,
) -> InflowSeries:
    """Dense daily net inflow (mint - burn) for one token side of a market."""
    totals = aggregate_components(records, "day", market=market, dense=True, start=start, end=end)
    days = tuple(t.start for t in totals)
    values = tuple(side_measures(t.side(side)).f for t in totals)
    return InflowSeries(days=days, values=values)


def splice_inflow_series(before: InflowSeries, after: InflowSeries, splice_day: int) -> InflowSeries:
    """Days strictly before ``splice_day`` from one series, the rest from the other."""
    splice_day = day_floor(splice_day)
    by_day = {day: value for day, value in zip(before.days, before.values) if day < splice_day}
    by_day.update((day, value) for day, value in zip(after.days, after.values)
                  if day >= splice_day)
    if not by_day:
        raise DataError("splice produced an empty series")
    # The days between the two parts read 0; a day off their grid fails InflowSeries' check.
    days = tuple(sorted(by_day.keys() | range(min(by_day), max(by_day) + DAY, DAY)))
    return InflowSeries(days=days, values=tuple(by_day.get(day, 0) for day in days))


def splice_democrat_market(
    records: Iterable[DecomposedTransaction],
    first_market: str = "Biden",
    second_market: str = "Harris",
    splice_day: str | int = DEFAULT_SPLICE_DAY,
    side: str = "yes",
    start: int | None = None,
    end: int | None = None,
) -> InflowSeries:
    """Combined daily net-inflow series across the nominee hand-off.

    Uses ``first_market`` on days before the splice day (00:00 UTC) and
    ``second_market`` from that day on; the hand-off announcement happened
    mid-day but the series is spliced at the date boundary.
    """
    rows = list(records)
    boundary = day_floor(parse_utc(splice_day))
    before = daily_net_inflow(rows, first_market, side, start=start, end=end)
    after = daily_net_inflow(rows, second_market, side, start=start, end=end)
    return splice_inflow_series(before, after, boundary)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson correlation; None when either side has zero variance."""
    n = len(xs)
    if n != len(ys) or n < 2:
        raise DataError("correlation needs two equal-length series of >= 2 points")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def rolling_inflow_correlation(
    series_a: InflowSeries,
    series_b: InflowSeries,
    window_days: int = 90,
    step_days: int = 1,
) -> list[tuple[int, float | None]]:
    """Trailing-window Pearson correlation of two daily inflow series.

    Series are aligned on their common day span, which must cover at least
    one window. Each output (day, value) is the correlation over the
    ``window_days`` ending on that day; windows where either leg is
    constant yield None rather than 0.
    """
    if window_days < 2 or step_days < 1:
        raise ValueError("window must be >= 2 days and step >= 1 day")
    if not (series_a.days and series_b.days):
        raise DataError("an inflow series is empty: its market has no rows in range")
    lo = max(series_a.days[0], series_b.days[0])
    hi = min(series_a.days[-1], series_b.days[-1])
    if hi - lo < (window_days - 1) * DAY:
        raise DataError("common span shorter than the correlation window")

    a_by_day = dict(zip(series_a.days, series_a.values))
    b_by_day = dict(zip(series_b.days, series_b.values))
    days = list(range(lo, hi + DAY, DAY))
    raw_x = [a_by_day[d] for d in days]
    raw_y = [b_by_day[d] for d in days]
    xs = [v / 10**6 for v in raw_x]
    ys = [v / 10**6 for v in raw_y]

    out: list[tuple[int, float | None]] = []
    for i in range(window_days - 1, len(days), step_days):
        window = slice(i - window_days + 1, i + 1)
        # constancy decided on the exact integers, not their float images
        if min(raw_x[window]) == max(raw_x[window]) or min(raw_y[window]) == max(raw_y[window]):
            out.append((days[i], None))
            continue
        out.append((days[i], pearson(xs[window], ys[window])))
    return out
