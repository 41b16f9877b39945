"""Participant-level statistics: activity profiles and market overlap.

A trader is "active" when appearing as maker or taker on at least one fill,
the weakest defensible criterion. Exchange and adapter contract addresses
(the taker on aggregate fills) are excluded through an explicit exclusion
list so settlement plumbing does not inflate participation counts.
Addresses are compared case-insensitively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .events import COLLATERAL_ID, MarketSpec, Transaction, market_slots
from .units import DAY, HOUR, day_floor, hour_floor


@dataclass
class MarketActivity:
    trade_count: int = 0
    usd_volume: int = 0  # micro-USDC
    hours: set[int] = field(default_factory=set)  # UTC hour starts with a fill


@dataclass
class TraderActivity:
    address: str
    per_market: dict[str, MarketActivity] = field(default_factory=dict)

    @property
    def trade_count(self) -> int:
        return sum(a.trade_count for a in self.per_market.values())

    @property
    def usd_volume(self) -> int:
        return sum(a.usd_volume for a in self.per_market.values())


@dataclass(frozen=True)
class ParticipationCell:
    """One exact-subset cell of the participation partition."""

    markets: frozenset[str]
    count: int
    share: float  # percent of all traders


def market_labels(markets: Sequence[MarketSpec]) -> dict[str, str]:
    """token id -> "<candidate> <SIDE>" label, read off the token's slot."""
    return {token: f"{markets[slot >> 1].candidate} {('YES', 'NO')[slot & 1]}"
            for token, slot in market_slots(markets).items()}


def cell_bitmask(cell: frozenset[str], markets: Sequence[MarketSpec]) -> int:
    """Subset-cell bitmask: each label sets its token's slot bit (2i = market i YES, 2i+1 NO)."""
    slots = market_slots(markets)
    bits = {label: slots[token] for token, label in market_labels(markets).items()}
    return sum(1 << bits[label] for label in cell)


def collect_trader_activity(
    transactions: Iterable[Transaction],
    markets: Sequence[MarketSpec],
    exclude: Iterable[str] = (),
) -> dict[str, TraderActivity]:
    """Per-address activity accumulated over fills of the given markets.

    Both counterparties of a fill are credited with its collateral amount
    and the UTC hour of its transaction; the accumulation is a commutative
    fold, so shards merge by address.
    """
    labels = market_labels(markets)
    excluded = {a.lower() for a in exclude}
    # raw address -> its lowercase form, or "" when it is empty or excluded
    parties: dict[str, str] = {}
    traders: dict[str, TraderActivity] = {}
    for tx in transactions:
        hour = hour_floor(tx.timestamp)
        for _, _, _, maker, taker, maker_asset_id, taker_asset_id, maker_amount, taker_amount, _ \
                in tx.fills:
            if maker_asset_id == COLLATERAL_ID:
                label, usdc = labels.get(taker_asset_id), maker_amount
            else:
                label, usdc = labels.get(maker_asset_id), taker_amount
            if label is None:
                continue
            for party in (maker, taker):
                addr = parties.get(party)
                if addr is None:
                    addr = party.lower()
                    addr = parties[party] = "" if addr in excluded else addr
                if not addr:
                    continue
                activity = traders.get(addr)
                if activity is None:
                    activity = traders[addr] = TraderActivity(address=addr)
                market_activity = activity.per_market.get(label)
                if market_activity is None:
                    market_activity = activity.per_market[label] = MarketActivity()
                market_activity.trade_count += 1
                market_activity.usd_volume += usdc
                market_activity.hours.add(hour)
    return traders


def hourly_active_traders(
    traders: Mapping[str, TraderActivity],
    start: int,
    end: int,
    per_market: bool = False,
) -> list[float]:
    """Mean unique active traders per UTC hour-of-day over [start, end).

    ``traders`` is the activity map of ``collect_trader_activity`` over the
    window's transactions; ``start`` and ``end`` set the number of days.
    For each hour h, the count of distinct addresses active during hour h
    of each day is averaged over all days overlapping the window (days with
    no activity count as zero, so the mean reflects the whole period).

    By default an address counts once per hour no matter how many of the
    selected markets it touched; ``per_market`` instead counts it once per
    (market, hour) and sums over markets.
    """
    if end <= start:
        raise DataError("empty window")
    totals = [0] * 24
    for trader in traders.values():
        hour_sets = [a.hours for a in trader.per_market.values()]
        if not per_market:
            hour_sets = [set().union(*hour_sets)]
        for hours in hour_sets:
            for hour in hours:
                totals[hour % DAY // HOUR] += 1
    n_days = len(range(day_floor(start), end, DAY))
    return [total / n_days for total in totals]


def top_decile_traders(traders: Mapping[str, TraderActivity], by: str = "volume") -> list[str]:
    """The ceil(0.1 * n) highest-ranked traders by frequency or volume.

    ``traders`` is the activity map of ``collect_trader_activity``.
    Boundary ties resolve by lexicographic address order so the selection
    is deterministic.
    """
    if by not in ("volume", "frequency"):
        raise ValueError(f"unknown ranking {by!r}")
    if len(traders) < 10:
        raise DataError(f"top-decile ranking needs >= 10 active traders, found {len(traders)}")
    metric = (lambda t: t.usd_volume) if by == "volume" else (lambda t: t.trade_count)
    ranked = sorted(traders.values(), key=lambda t: (-metric(t), t.address))
    k = math.ceil(0.1 * len(ranked))
    return [t.address for t in ranked[:k]]


def participation_sets(
    traders: Mapping[str, TraderActivity],
) -> tuple[list[ParticipationCell], dict[str, float], list[ParticipationCell]]:
    """Exact-subset participation decomposition across token markets.

    ``traders`` is the activity map of ``collect_trader_activity``.

    Returns (cells, marginals, candidate_cells): cells partition the trader
    universe by the exact set of token markets touched; marginals give the
    percent of traders active in each single market (equal to the sum of
    the cells containing it); candidate_cells aggregate YES and NO per
    candidate for the cross-candidate overlap view.
    """
    total = len(traders)
    if total == 0:
        return [], {}, []

    by_subset: dict[frozenset[str], int] = {}
    by_candidate_subset: dict[frozenset[str], int] = {}
    marginal_counts: dict[str, int] = {}
    for trader in traders.values():
        subset = frozenset(trader.per_market)
        by_subset[subset] = by_subset.get(subset, 0) + 1
        candidates = frozenset(label.rsplit(" ", 1)[0] for label in subset)
        by_candidate_subset[candidates] = by_candidate_subset.get(candidates, 0) + 1
        for label in subset:
            marginal_counts[label] = marginal_counts.get(label, 0) + 1

    def cells_of(table: Mapping[frozenset[str], int]) -> list[ParticipationCell]:
        cells = [
            ParticipationCell(markets=subset, count=count, share=100.0 * count / total)
            for subset, count in table.items()
        ]
        cells.sort(key=lambda c: (-c.count, sorted(c.markets)))
        return cells

    marginals = {
        label: 100.0 * count / total for label, count in sorted(marginal_counts.items())
    }
    return cells_of(by_subset), marginals, cells_of(by_candidate_subset)
