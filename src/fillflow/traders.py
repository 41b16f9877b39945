"""Participant-level statistics: activity profiles and market overlap.

A trader is "active" when appearing as maker or taker on at least one fill,
the weakest defensible criterion. Exchange and adapter contract addresses
(the taker on aggregate fills) are excluded through an explicit exclusion
list so settlement plumbing does not inflate participation counts.
Addresses are compared case-insensitively.

Activity is kept per token slot of ``events.market_slots`` (2i for the YES
token of ``markets[i]``, 2i + 1 for its NO), so a trader's token markets
are the bits of one integer; labels are rendered only for output.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import DataError
from .events import COLLATERAL_ID, MarketSpec, Transaction, market_slots
from .units import DAY, HOUR, day_floor, hour_floor


class TraderActivity(NamedTuple):
    """What ``collect_trader_activity`` accumulates over the fills of ``markets``.

    ``traders`` maps each address to its token slots, and each slot to
    ``[trade count, micro-USDC volume, set of UTC hour starts with a fill]``.
    """

    markets: Sequence[MarketSpec]
    traders: dict[str, dict[int, list]]


class ParticipationCell(NamedTuple):
    """One exact-subset cell of the participation partition."""

    markets: frozenset[str]
    count: int
    share: float  # percent of all traders
    bitmask: int  # the cell's token slot bits; a candidate cell sets both bits of a market


def market_labels(markets: Sequence[MarketSpec]) -> dict[str, str]:
    """token id -> "<candidate> <SIDE>" label, read off the token's slot."""
    return {token: f"{markets[slot >> 1].candidate} {('YES', 'NO')[slot & 1]}"
            for token, slot in market_slots(markets).items()}


def collect_trader_activity(
    transactions: Iterable[Transaction],
    markets: Sequence[MarketSpec],
    exclude: Iterable[str] = (),
) -> TraderActivity:
    """Per-address, per-token-slot activity accumulated over fills of the given markets.

    Both counterparties of a fill are credited with its collateral amount
    and the UTC hour of its transaction; the accumulation is a commutative
    fold, so shards merge by address and slot.
    """
    slots = market_slots(markets)
    excluded = {a.lower() for a in exclude}
    traders: dict[str, dict[int, list]] = {}
    skip: dict[int, list] = {}  # the slot map of empty and excluded addresses, never filled
    parties: dict[str, dict[int, list]] = {}  # raw address -> the slot map of its lowercase form
    for tx in transactions:
        hour = hour_floor(tx.timestamp)
        for _, _, _, maker, taker, maker_asset_id, taker_asset_id, maker_amount, taker_amount, _ \
                in tx.fills:
            if maker_asset_id == COLLATERAL_ID:
                slot, usdc = slots.get(taker_asset_id), maker_amount
            else:
                slot, usdc = slots.get(maker_asset_id), taker_amount
            if slot is None:
                continue
            for party in (maker, taker):
                cells = parties.get(party)
                if cells is None:
                    addr = party.lower()
                    cells = parties[party] = (skip if not addr or addr in excluded
                                              else traders.setdefault(addr, {}))
                if cells is skip:
                    continue
                cell = cells.get(slot)
                if cell is None:
                    cell = cells[slot] = [0, 0, set()]
                cell[0] += 1
                cell[1] += usdc
                cell[2].add(hour)
    return TraderActivity(markets, traders)


def hourly_active_traders(
    activity: TraderActivity,
    start: int,
    end: int,
    per_market: bool = False,
) -> list[float]:
    """Mean unique active traders per UTC hour-of-day over [start, end).

    ``activity`` is what ``collect_trader_activity`` collected over the
    window's transactions; ``start`` and ``end`` set the number of days.
    For each hour h, the count of distinct addresses active during hour h
    of each day is averaged over all days overlapping the window (days with
    no activity count as zero, so the mean reflects the whole period).

    By default an address counts once per hour no matter how many of the
    selected markets it touched; ``per_market`` instead counts it once per
    (token market, hour) and sums over token markets.
    """
    if end <= start:
        raise DataError("empty window")
    totals = [0] * 24
    for cells in activity.traders.values():
        hour_sets = [cell[2] for cell in cells.values()]
        if not per_market:
            hour_sets = [set().union(*hour_sets)]
        for hours in hour_sets:
            for hour in hours:
                totals[hour % DAY // HOUR] += 1
    n_days = len(range(day_floor(start), end, DAY))
    return [total / n_days for total in totals]


def top_decile_traders(activity: TraderActivity, by: str = "volume") -> list[str]:
    """The ceil(0.1 * n) highest-ranked traders by frequency or volume.

    ``activity`` is what ``collect_trader_activity`` collected. Boundary
    ties resolve by lexicographic address order so the selection is
    deterministic.
    """
    if by not in ("volume", "frequency"):
        raise ValueError(f"unknown ranking {by!r}")
    traders = activity.traders
    if len(traders) < 10:
        raise DataError(f"top-decile ranking needs >= 10 active traders, found {len(traders)}")
    column = 1 if by == "volume" else 0
    ranked = sorted(traders, key=lambda addr: (
        -sum(cell[column] for cell in traders[addr].values()), addr))
    return ranked[:math.ceil(0.1 * len(ranked))]


def participation_sets(
    activity: TraderActivity,
) -> tuple[list[ParticipationCell], dict[str, float], list[ParticipationCell]]:
    """Exact-subset participation decomposition across token markets.

    ``activity`` is what ``collect_trader_activity`` collected.

    Returns (cells, marginals, candidate_cells): cells partition the trader
    universe by the exact set of token markets touched; marginals give the
    percent of traders active in each single market (equal to the sum of
    the cells containing it); candidate_cells aggregate YES and NO per
    candidate for the cross-candidate overlap view.
    """
    total = len(activity.traders)
    if total == 0:
        return [], {}, []
    markets = activity.markets
    labels = market_labels(markets)
    slot_labels = {slot: labels[token] for token, slot in market_slots(markets).items()}
    yes_bits = sum(1 << 2 * i for i in range(len(markets)))

    by_mask = Counter(sum(1 << slot for slot in cells) for cells in activity.traders.values())
    by_candidate_mask: Counter[int] = Counter()
    marginal_counts: Counter[int] = Counter()
    for mask, count in by_mask.items():
        touched = (mask | mask >> 1) & yes_bits  # bit 2i: market i on either side
        by_candidate_mask[touched | touched << 1] += count
        for slot in slot_labels:
            if mask >> slot & 1:
                marginal_counts[slot] += count

    def cells_of(table: Counter[int], names: dict[int, str]) -> list[ParticipationCell]:
        cells = [
            ParticipationCell(markets=frozenset(names[slot] for slot in names if mask >> slot & 1),
                              count=count, share=100.0 * count / total, bitmask=mask)
            for mask, count in table.items()
        ]
        cells.sort(key=lambda c: (-c.count, sorted(c.markets)))
        return cells

    marginals = {
        label: 100.0 * count / total
        for label, count in sorted((slot_labels[slot], count)
                                   for slot, count in marginal_counts.items())
    }
    candidates = {slot: markets[slot >> 1].candidate for slot in slot_labels}
    return (cells_of(by_mask, slot_labels), marginals, cells_of(by_candidate_mask, candidates))
