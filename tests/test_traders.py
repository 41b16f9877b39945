import dataclasses

import pytest

from fillflow.errors import ConfigError, DataError
from fillflow.events import FillEvent, group_transactions
from fillflow.fixtures import EXCHANGE_ADDRESS
from fillflow.traders import (
    collect_trader_activity,
    hourly_active_traders,
    market_labels,
    participation_sets,
    top_decile_traders,
)
from fillflow.units import DAY, day_floor, hour_floor, parse_utc

START = parse_utc("2024-10-01T00:00:00Z")
USD = 10**6


def ledger_of(entries, markets):
    """entries: (day, hour, address, market_index, side, usdc)."""
    fills = []
    for i, (day, hour, address, market_index, side, usdc) in enumerate(entries):
        market = markets[market_index]
        token = market.yes_token_id if side == "yes" else market.no_token_id
        ts = START + day * DAY + hour * 3600
        fills.append(FillEvent(
            block=ts, tx_index=0, log_index=i, maker=address, taker=EXCHANGE_ADDRESS,
            maker_asset_id="0", taker_asset_id=token,
            maker_amount=usdc, taker_amount=2 * usdc, timestamp=ts,
        ))
    return group_transactions(fills)


def activity_of(transactions, markets):
    return collect_trader_activity(transactions, markets, exclude=[EXCHANGE_ADDRESS])


class TestHourlyProfile:
    def test_single_daily_trader(self, markets):
        entries = [(d, 14, "0xabc", 0, "yes", USD) for d in range(10)]
        txs = ledger_of(entries, markets)
        profile = hourly_active_traders(activity_of(txs, markets), START, START + 10 * DAY)
        assert profile[14] == pytest.approx(1.0)
        assert sum(profile) == pytest.approx(1.0)

    def test_same_trader_twice_in_hour_counted_once(self, markets):
        entries = [(0, 9, "0xabc", 0, "yes", USD), (0, 9, "0xabc", 0, "no", USD)]
        txs = ledger_of(entries, markets)
        profile = hourly_active_traders(activity_of(txs, markets), START, START + DAY)
        assert profile[9] == pytest.approx(1.0)

    def test_exchange_address_excluded(self, markets):
        entries = [(0, 9, "0xabc", 0, "yes", USD)]
        txs = ledger_of(entries, markets)
        activity = collect_trader_activity(txs, markets, exclude=[EXCHANGE_ADDRESS, "0xABC"])
        profile = hourly_active_traders(activity, START, START + DAY)
        assert sum(profile) == 0.0

    def test_per_market_mode_counts_per_market(self, markets):
        # one trader active in two token markets in the same hour
        entries = [(0, 9, "0xabc", 0, "yes", USD), (0, 9, "0xabc", 0, "no", USD)]
        txs = ledger_of(entries, markets)
        activity = activity_of(txs, markets)
        combined = hourly_active_traders(activity, START, START + DAY)
        split = hourly_active_traders(activity, START, START + DAY, per_market=True)
        assert combined[9] == pytest.approx(1.0)
        assert split[9] == pytest.approx(2.0)

    @pytest.mark.parametrize("span", [0, -DAY])
    def test_empty_window_rejected(self, markets, span):
        activity = activity_of(ledger_of([(0, 9, "0xabc", 0, "yes", USD)], markets), markets)
        with pytest.raises(DataError, match="empty window"):
            hourly_active_traders(activity, START, START + span)

    def test_recovers_generator_schedule(self, small_ledger):
        start = min(tx.timestamp for tx in group_transactions(small_ledger.fills))
        start -= start % DAY
        end = max(tx.timestamp for tx in group_transactions(small_ledger.fills)) + 1
        txs = group_transactions(small_ledger.fills)
        activity = collect_trader_activity(txs, small_ledger.markets,
                                           exclude=[small_ledger.exchange_address])
        got = hourly_active_traders(activity, start, end)
        n_days = len(range(start, end, DAY))
        for hour in range(24):
            want = sum(len(addresses)
                       for (day, h), addresses in small_ledger.hourly_participants.items()
                       if h == hour) / n_days
            assert got[hour] == pytest.approx(want, rel=1e-12)


def reference_hourly_active_traders(transactions, start, end, markets, exclude=(),
                                    per_market=False):
    """The profile as a second walk over the fills, keyed by (day, hour)."""
    labels = market_labels(markets)
    excluded = {a.lower() for a in exclude}
    per_day_hour = {}
    for tx in transactions:
        if not start <= tx.timestamp < end:
            continue
        day = day_floor(tx.timestamp)
        hour = (tx.timestamp % DAY) // 3600
        for fill in tx.fills:
            label = labels.get(fill.token_id)
            if label is None:
                continue
            for party in (fill.maker, fill.taker):
                addr = party.lower()
                if addr and addr not in excluded:
                    key = (addr, label) if per_market else addr
                    per_day_hour.setdefault((day, hour), set()).add(key)
    n_days = len(range(day_floor(start), end, DAY))
    means = []
    for hour in range(24):
        total = sum(len(v) for (d, h), v in per_day_hour.items() if h == hour)
        means.append(total / n_days)
    return means


def mixed_case(address):
    return address[:2] + address[2:].upper()


class TestHourlyAgainstReference:
    """The profile read from the activity map equals the two-walk reference exactly."""

    @pytest.mark.parametrize("per_market", [False, True], ids=["per-trader", "per-market"])
    @pytest.mark.parametrize("window", ["whole", "narrow"])
    def test_matches_reference(self, small_ledger, per_market, window):
        txs = group_transactions(small_ledger.fills)
        start, end = txs[0].timestamp, txs[-1].timestamp + 1
        if window == "narrow":  # mid-day bounds, clipped as the traders command clips
            start, end = start + 20 * DAY + 7 * 3600, start + 45 * DAY + 13 * 3600
        clipped = [tx for tx in txs if start <= tx.timestamp < end]
        # the exchange, and one trader written in mixed case
        exclude = [small_ledger.exchange_address, mixed_case(max(small_ledger.trader_markets))]
        activity = collect_trader_activity(clipped, small_ledger.markets, exclude)
        got = hourly_active_traders(activity, start, end, per_market=per_market)
        want = reference_hourly_active_traders(txs, start, end, small_ledger.markets,
                                               exclude, per_market=per_market)
        assert got == want
        assert sum(want) > 0

    def test_mixed_case_exclusion_removes_the_trader(self, small_ledger):
        txs = group_transactions(small_ledger.fills)
        start, end = txs[0].timestamp, txs[-1].timestamp + 1
        base = [small_ledger.exchange_address]
        trader = mixed_case(max(small_ledger.trader_markets))
        assert trader != trader.lower()
        with_trader = hourly_active_traders(
            collect_trader_activity(txs, small_ledger.markets, base), start, end)
        without = hourly_active_traders(
            collect_trader_activity(txs, small_ledger.markets, base + [trader]), start, end)
        assert sum(without) < sum(with_trader)


class TestTopDecile:
    def test_distinct_volumes_select_largest(self, markets):
        entries = [(0, 1, f"0x{i:03d}", 0, "yes", (i + 1) * USD) for i in range(100)]
        txs = ledger_of(entries, markets)
        top = top_decile_traders(activity_of(txs, markets), by="volume")
        assert len(top) == 10
        assert set(top) == {f"0x{i:03d}" for i in range(90, 100)}

    def test_boundary_tie_breaks_lexicographically(self, markets):
        # 20 traders, all equal volume: the decile keeps the 2 smallest addresses
        entries = [(0, 1, f"0x{i:02d}", 0, "yes", USD) for i in range(20)]
        txs = ledger_of(entries, markets)
        top = top_decile_traders(activity_of(txs, markets), by="volume")
        assert top == ["0x00", "0x01"]

    def test_frequency_and_volume_rankings_differ(self, markets):
        entries = []
        # whale: one huge trade; gnat: many small trades
        entries.append((0, 1, "0xwhale", 0, "yes", 1000 * USD))
        for i in range(30):
            entries.append((0, 2 + i % 20, "0xgnat", 0, "yes", USD))
        for i in range(10):
            entries.append((1, i, f"0xmid{i}", 0, "yes", 5 * USD))
        activity = activity_of(ledger_of(entries, markets), markets)
        by_volume = top_decile_traders(activity, by="volume")
        by_frequency = top_decile_traders(activity, by="frequency")
        assert "0xwhale" in by_volume
        assert "0xgnat" in by_frequency
        assert by_volume != by_frequency

    def test_too_few_traders_rejected(self, markets):
        entries = [(0, 1, f"0x{i}", 0, "yes", USD) for i in range(5)]
        with pytest.raises(DataError, match=">= 10"):
            top_decile_traders(activity_of(ledger_of(entries, markets), markets))

    def test_unknown_ranking_rejected(self, markets):
        entries = [(0, 1, f"0x{i:02d}", 0, "yes", USD) for i in range(20)]
        with pytest.raises(ValueError, match="unknown ranking 'count'"):
            top_decile_traders(activity_of(ledger_of(entries, markets), markets), by="count")


class TestParticipation:
    def test_single_trader_single_market(self, markets):
        txs = ledger_of([(0, 1, "0xabc", 1, "no", USD)], markets)
        cells, marginals, candidate_cells = participation_sets(activity_of(txs, markets))
        assert len(cells) == 1
        assert cells[0].markets == frozenset({"Biden NO"})
        assert cells[0].share == pytest.approx(100.0)
        assert marginals == {"Biden NO": pytest.approx(100.0)}
        assert candidate_cells[0].markets == frozenset({"Biden"})

    def test_cells_partition_and_marginals_sum(self, small_ledger):
        txs = group_transactions(small_ledger.fills)
        cells, marginals, candidate_cells = participation_sets(collect_trader_activity(
            txs, small_ledger.markets, exclude=[small_ledger.exchange_address]))
        total = len(small_ledger.trader_markets)
        assert sum(c.count for c in cells) == total
        assert sum(c.share for c in cells) == pytest.approx(100.0, abs=0.1)
        assert sum(c.count for c in candidate_cells) == total
        for label, pct in marginals.items():
            from_cells = sum(c.share for c in cells if label in c.markets)
            assert pct == pytest.approx(from_cells, rel=1e-9)

    def test_matches_generator_membership_oracle(self, small_ledger):
        txs = group_transactions(small_ledger.fills)
        cells, _, _ = participation_sets(collect_trader_activity(
            txs, small_ledger.markets, exclude=[small_ledger.exchange_address]))
        expected: dict[frozenset, int] = {}
        for labels in small_ledger.trader_markets.values():
            key = frozenset(labels)
            expected[key] = expected.get(key, 0) + 1
        assert {c.markets: c.count for c in cells} == expected

    def test_candidate_cells_aggregate_sides(self, markets):
        entries = [
            (0, 1, "0xa", 0, "yes", USD),
            (0, 2, "0xa", 0, "no", USD),
            (0, 3, "0xb", 0, "yes", USD),
        ]
        txs = ledger_of(entries, markets)
        _, _, candidate_cells = participation_sets(activity_of(txs, markets))
        assert len(candidate_cells) == 1
        assert candidate_cells[0].markets == frozenset({"Trump"})
        assert candidate_cells[0].count == 2


class TestBitmask:
    def test_bit_positions_follow_config_order(self, markets):
        entries = [
            (0, 1, "0xa", 0, "yes", USD),
            (0, 1, "0xb", 0, "no", USD), (0, 1, "0xb", 0, "no", USD),
            *[(0, 1, "0xc", 1, "yes", USD)] * 3,
            (0, 1, "0xd", 0, "yes", USD), (0, 1, "0xd", 1, "no", USD),
        ]
        cells, _, candidate_cells = participation_sets(activity_of(ledger_of(entries, markets),
                                                                   markets))
        assert {c.markets: c.bitmask for c in cells} == {
            frozenset({"Trump YES"}): 0b1,
            frozenset({"Trump NO"}): 0b10,
            frozenset({"Biden YES"}): 0b100,
            frozenset({"Trump YES", "Biden NO"}): 0b1001,
        }
        # a candidate cell sets both slot bits of each of its markets
        assert {c.markets: c.bitmask for c in candidate_cells} == {
            frozenset({"Trump"}): 0b11,
            frozenset({"Biden"}): 0b1100,
            frozenset({"Trump", "Biden"}): 0b1111,
        }

    def test_all_six_markets(self, markets):
        entries = [(0, 1, "0xa", i, side, USD) for i in range(3) for side in ("yes", "no")]
        cells, _, candidate_cells = participation_sets(activity_of(ledger_of(entries, markets),
                                                                   markets))
        assert [c.bitmask for c in cells] == [0b111111]
        assert cells[0].markets == frozenset(
            f"{m.candidate} {s}" for m in markets for s in ("YES", "NO"))
        assert [c.bitmask for c in candidate_cells] == [0b111111]


class TestActivityCollection:
    def test_volume_credits_both_parties(self, markets):
        token = markets[0].yes_token_id
        fills = [FillEvent(1, 0, 0, "0xbuyer", "0xseller", "0", token,
                           7 * USD, 10 * USD, START)]
        activity = collect_trader_activity(group_transactions(fills), markets)
        # token slot 0 is Trump YES: [trade count, micro-USDC volume, hour starts]
        assert activity.traders == {"0xbuyer": {0: [1, 7 * USD, {hour_floor(START)}]},
                                    "0xseller": {0: [1, 7 * USD, {hour_floor(START)}]}}
        assert activity.markets is markets

    def test_case_insensitive_addresses(self, markets):
        token = markets[0].yes_token_id
        fills = [
            FillEvent(1, 0, 0, "0xABC", "0xd", "0", token, USD, USD, START),
            FillEvent(1, 0, 1, "0xabc", "0xd", "0", token, USD, USD, START),
        ]
        activity = collect_trader_activity(group_transactions(fills), markets)
        assert set(activity.traders) == {"0xabc", "0xd"}
        assert activity.traders["0xabc"][0][0] == 2

    def test_two_markets_with_one_name_rejected(self, markets, example_transactions):
        twins = [markets[0], dataclasses.replace(markets[1], candidate=markets[0].candidate)]
        with pytest.raises(ConfigError, match="candidate 'Trump' names markets 0 and 1"):
            collect_trader_activity(example_transactions, twins)
