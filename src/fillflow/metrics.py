"""Market-level measures aggregated over UTC calendar intervals.

Per token side and interval, three measures are derived from the summed
transaction components (all exact integer micro-USDC):

* exchange-equivalent volume: trade + min(mint, burn). Offsetting issuance
  and redemption inside the interval are treated as secondary-market
  turnover, since the matching engine's exchange-vs-mint split is an
  artifact of order routing.
* net inflow: mint - burn, signed. Positive means fresh collateral was
  committed on net to that side.
* gross activity: trade + max(mint, burn) = exchange-equivalent + |inflow|.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .decompose import DecomposedTransaction
from .units import DAY, HOUR, month_floor, next_month

# Each partition's key step; months are keyed by day first.
_STEPS = {"hour": HOUR, "day": DAY, "month": DAY}


class SideTotals(NamedTuple):
    """Summed components of one token side over one interval; ``+`` adds elementwise."""

    trade: int = 0
    mint: int = 0
    burn: int = 0

    def __add__(self, other: "SideTotals") -> "SideTotals":
        return SideTotals(self.trade + other.trade, self.mint + other.mint, self.burn + other.burn)


class IntervalTotals(NamedTuple):
    start: int
    partition: str
    yes: SideTotals
    no: SideTotals

    def side(self, side: str) -> SideTotals:
        if side == "yes":
            return self.yes
        if side == "no":
            return self.no
        if side == "combined":
            return self.yes + self.no
        raise ValueError(f"unknown side {side!r}")


class MarketMeasures(NamedTuple):
    """The three measures for one token side; v_g == v_e + |f| exactly."""

    v_e: int
    f: int
    v_g: int


def side_measures(totals: SideTotals) -> MarketMeasures:
    v_e = totals.trade + min(totals.mint, totals.burn)
    f = totals.mint - totals.burn
    return MarketMeasures(v_e=v_e, f=f, v_g=v_e + abs(f))


def aggregate_components(
    records: Iterable[DecomposedTransaction],
    partition: str,
    market: str | None = None,
    dense: bool = False,
    start: int | None = None,
    end: int | None = None,
) -> list[IntervalTotals]:
    """Sum decomposed components into UTC-aligned hour/day/month intervals.

    By default only intervals containing at least one transaction are
    emitted; with ``dense`` the full [start, end) grid is emitted with
    zero totals for empty intervals. A given bound holds; an unset one
    comes from the market's rows inside the window, and with no such row
    the grid is empty. An unknown partition raises ValueError.
    """
    if partition not in _STEPS:
        raise ValueError(f"unknown partition {partition!r}")
    step = _STEPS[partition]
    if market is not None:
        records = [r for r in records if r.market == market]
    if start is not None or end is not None:
        records = [r for r in records if (start is None or start <= r.timestamp)
                   and (end is None or r.timestamp < end)]

    # Months are summed by day, then each day's sums go to its month.
    sums: dict[int, list[int]] = {}
    for _, _, ts, _, _, (yes_trade, no_trade, yes_mint, no_mint, yes_burn, no_burn, _, _) \
            in records:
        key = ts - ts % step
        acc = sums.get(key)
        if acc is None:
            sums[key] = [yes_trade, yes_mint, yes_burn, no_trade, no_mint, no_burn]
        else:
            acc[0] += yes_trade
            acc[1] += yes_mint
            acc[2] += yes_burn
            acc[3] += no_trade
            acc[4] += no_mint
            acc[5] += no_burn
    if partition == "month":
        days, sums = sums, {}
        for day, acc in days.items():
            key = month_floor(day)
            sums[key] = list(map(add, sums[key], acc)) if key in sums else acc

    if not dense:
        keys: Iterable[int] = sorted(sums)
    else:
        lo = start if start is not None else min(sums, default=None)
        hi = end if end is not None else (max(sums) + 1 if sums else None)
        if lo is None or hi is None or hi <= lo:
            keys = ()
        elif partition != "month":
            keys = range(lo - lo % step, hi, step)
        else:
            keys, key = [], month_floor(lo)
            while key < hi:
                keys.append(key)
                key = next_month(key)

    zero = [0] * 6
    return [IntervalTotals(key, partition, SideTotals(*acc[:3]), SideTotals(*acc[3:]))
            for key, acc in zip(keys, map(sums.get, keys, repeat(zero)))]


def merge_totals(intervals: Sequence[IntervalTotals]) -> IntervalTotals:
    """Union of intervals as a single aggregate (exact integer addition)."""
    if not intervals:
        raise ValueError("nothing to merge")

    def side_totals(side: int) -> SideTotals:  # one C-level pass per component column
        totals = list(map(itemgetter(side), intervals))
        return SideTotals(*(sum(map(itemgetter(i), totals)) for i in range(3)))

    return IntervalTotals(min(map(itemgetter(0), intervals)), intervals[0].partition,
                          side_totals(2), side_totals(3))
