import random
from datetime import datetime, timezone

import pytest

from fillflow.decompose import DecomposedTransaction, TxKind, VolumeComponents
from fillflow.metrics import (
    IntervalTotals,
    SideTotals,
    aggregate_components,
    merge_totals,
    side_measures,
)
from fillflow.units import DAY, parse_utc

USD = 10**6


def row(ts, market="Trump", trade=0, mint=0, burn=0):
    return DecomposedTransaction(
        block=ts, tx_index=0, timestamp=ts, market=market, kind=TxKind.PURE_EXCHANGE,
        components=VolumeComponents(
            yes_trade=trade, yes_mint=mint, yes_burn=burn,
            buy_vol=trade + mint, sell_vol=trade + burn,
        ),
    )


def totals(trade=0, mint=0, burn=0):
    return IntervalTotals(0, "day", SideTotals(trade, mint, burn), SideTotals())


class TestMeasures:
    def test_exchange_equivalent_volume(self):
        t = totals(trade=5 * USD, mint=3 * USD, burn=1 * USD)
        assert side_measures(t.yes).v_e == 6 * USD
        assert side_measures(t.no).v_e == 0

    def test_v_e_reduces_to_trade_without_issuance(self):
        t = totals(trade=7 * USD)
        assert side_measures(t.yes).v_e == 7 * USD

    def test_net_inflow_signs(self):
        assert side_measures(totals(mint=10 * USD, burn=4 * USD).yes).f == 6 * USD
        assert side_measures(totals(burn=7 * USD).yes).f == -7 * USD

    def test_gross_activity_identity(self):
        t = totals(trade=5 * USD, mint=3 * USD, burn=1 * USD)
        m = side_measures(t.yes)
        assert m.v_g == 8 * USD
        assert m.v_g == m.v_e + abs(m.f)

    def test_all_zero(self):
        m = side_measures(SideTotals())
        assert (m.v_e, m.f, m.v_g) == (0, 0, 0)

    def test_identity_fuzz(self):
        rng = random.Random(12)
        for _ in range(10_000):
            t = SideTotals(rng.randrange(10**9), rng.randrange(10**9), rng.randrange(10**9))
            m = side_measures(t)
            assert m.v_g == m.v_e + abs(m.f)
            assert m.v_e >= t.trade
            assert m.v_g == t.trade + max(t.mint, t.burn)

    def test_side_totals_add_elementwise(self):
        assert SideTotals(1, 2, 3) + SideTotals(1, 1, 1) == SideTotals(2, 3, 4)
        t = IntervalTotals(0, "day", SideTotals(1, 2, 3), SideTotals(1, 1, 1))
        assert t.side("combined") == SideTotals(2, 3, 4)
        assert (t.side("yes"), t.side("no")) == (SideTotals(1, 2, 3), SideTotals(1, 1, 1))


class TestAggregation:
    def test_same_day_single_bucket(self):
        ts = parse_utc("2024-03-05T08:00:00Z")
        rows = [row(ts, trade=USD), row(ts + 7200, trade=2 * USD)]
        out = aggregate_components(rows, "day")
        assert len(out) == 1
        assert out[0].yes.trade == 3 * USD

    def test_day_boundary(self):
        before = parse_utc("2024-03-05T23:59:59Z")
        after = parse_utc("2024-03-06T00:00:00Z")
        out = aggregate_components([row(before), row(after)], "day")
        assert [t.start for t in out] == [parse_utc("2024-03-05"), parse_utc("2024-03-06")]

    def test_monthly_sums_match_bruteforce(self):
        rng = random.Random(3)
        lo = parse_utc("2024-01-05T00:00:00Z")
        hi = parse_utc("2024-11-01T00:00:00Z")
        rows = [
            row(rng.randrange(lo, hi), trade=rng.randrange(10**8),
                mint=rng.randrange(10**8), burn=rng.randrange(10**8))
            for _ in range(1000)
        ]
        out = aggregate_components(rows, "month")

        # independent single-pass accumulator keyed by calendar month
        expected = {}
        for r in rows:
            dt = datetime.fromtimestamp(r.timestamp, tz=timezone.utc)
            key = (dt.year, dt.month)
            acc = expected.setdefault(key, [0, 0, 0])
            acc[0] += r.components.yes_trade
            acc[1] += r.components.yes_mint
            acc[2] += r.components.yes_burn
        got = {}
        for t in out:
            dt = datetime.fromtimestamp(t.start, tz=timezone.utc)
            got[(dt.year, dt.month)] = [t.yes.trade, t.yes.mint, t.yes.burn]
        assert got == expected

    def test_dense_emits_zero_intervals(self):
        ts = parse_utc("2024-03-05")
        out = aggregate_components([row(ts), row(ts + 3 * DAY)], "day", dense=True)
        assert len(out) == 4
        assert out[1].yes == SideTotals()
        assert out[2].yes == SideTotals()

    def test_market_filter(self):
        ts = parse_utc("2024-03-05")
        rows = [row(ts, market="Trump", trade=USD), row(ts, market="Biden", trade=5 * USD)]
        out = aggregate_components(rows, "day", market="Trump")
        assert out[0].yes.trade == USD

    def test_hour_partition(self):
        ts = parse_utc("2024-03-05T10:15:00Z")
        out = aggregate_components([row(ts)], "hour")
        assert out[0].start == parse_utc("2024-03-05T10:00:00Z")


class TestIntervalAlgebra:
    @pytest.fixture
    def daily(self, small_ledger):
        return aggregate_components(small_ledger.truth, "day", market="Trump", dense=True)

    def test_inflow_additive_over_partitions(self, daily):
        whole = merge_totals(daily)
        assert side_measures(whole.yes).f == sum(side_measures(t.yes).f for t in daily)

    def test_v_e_superadditive_v_g_subadditive(self, daily):
        rng = random.Random(8)
        for _ in range(200):
            cut = rng.randrange(1, len(daily))
            left, right = daily[:cut], daily[cut:]
            for side in ("yes", "no"):
                merged = side_measures(merge_totals(daily).side(side))
                l = side_measures(merge_totals(left).side(side))
                r = side_measures(merge_totals(right).side(side))
                assert merged.v_e >= l.v_e + r.v_e
                assert merged.v_g <= l.v_g + r.v_g
                assert merged.f == l.f + r.f
