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
from fillflow.units import DAY, HOUR, month_floor, next_month, parse_utc

USD = 10**6


def row(ts, market="Trump", trade=0, mint=0, burn=0):
    return DecomposedTransaction(
        block=ts, tx_index=0, timestamp=ts, market=market, kind=TxKind.PURE_EXCHANGE,
        components=VolumeComponents(
            yes_trade=trade, yes_mint=mint, yes_burn=burn,
            buy_vol=trade + mint, sell_vol=trade + burn,
        ),
    )


def reference_interval_floor(ts, partition):
    if partition == "hour":
        return ts - ts % HOUR
    if partition == "day":
        return ts - ts % DAY
    if partition == "month":
        return month_floor(ts)
    raise ValueError(f"unknown partition {partition!r}")


def reference_interval_next(start, partition):
    if partition == "hour":
        return start + HOUR
    if partition == "day":
        return start + DAY
    if partition == "month":
        return next_month(start)
    raise ValueError(f"unknown partition {partition!r}")


def reference_interval_range(start, end, partition):
    if end <= start:
        return []
    out = []
    cur = reference_interval_floor(start, partition)
    while cur < end:
        out.append(cur)
        cur = reference_interval_next(cur, partition)
    return out


def reference_aggregate(records, partition, market=None, dense=False, start=None, end=None):
    """The per-row dispatch that ``aggregate_components`` replaced, kept as its oracle."""
    rows = [r for r in records if market is None or r.market == market]
    if start is not None or end is not None:
        lo = start if start is not None else min((r.timestamp for r in rows), default=0)
        hi = end if end is not None else max((r.timestamp for r in rows), default=0) + 1
        rows = [r for r in rows if lo <= r.timestamp < hi]
    sums = {}
    for r in rows:
        acc = sums.setdefault(reference_interval_floor(r.timestamp, partition), [0] * 6)
        c = r.components
        for i, value in enumerate((c.yes_trade, c.yes_mint, c.yes_burn,
                                   c.no_trade, c.no_mint, c.no_burn)):
            acc[i] += value
    if dense:
        # A given bound holds; an unset one comes from the rows kept, and without rows the
        # grid is empty.
        lo = start if start is not None else min(sums, default=None)
        hi = end if end is not None else (max(sums) + 1 if sums else None)
        keys = [] if lo is None or hi is None else reference_interval_range(lo, hi, partition)
    else:
        keys = sorted(sums)
    out = []
    for key in keys:
        acc = sums.get(key, [0] * 6)
        out.append(IntervalTotals(key, partition, SideTotals(*acc[:3]), SideTotals(*acc[3:])))
    return out


# Instants around which the random rows fall: a leap day, a year end, and month ends of
# 29, 30 and 31 days.
BOUNDARIES = [parse_utc(text) for text in (
    "2024-02-29", "2024-03-01", "2024-01-01", "2023-12-01", "2024-02-01")]


def random_rows(rng, n):
    rows = []
    for _ in range(n):
        # on a boundary, a second before it, an hour or a day after, or anywhere near it
        ts = rng.choice(BOUNDARIES) + rng.choice(
            [0, -1, HOUR, DAY, rng.randrange(-3 * DAY, 3 * DAY)])
        rows.append(DecomposedTransaction(
            block=ts, tx_index=0, timestamp=ts, market=rng.choice(["Trump", "Biden"]),
            kind=TxKind.PURE_EXCHANGE, components=VolumeComponents(
                *(rng.randrange(10**9) for _ in range(6)), buy_vol=0, sell_vol=0)))
    return rows


def random_bound(rng):
    """None, an instant near a boundary (aligned or not), or any instant of the span."""
    pick = rng.randrange(3)
    if pick == 0:
        return None
    base = rng.choice(BOUNDARIES)
    return base + rng.choice([0, HOUR, DAY, rng.randrange(-3 * DAY, 3 * DAY)]) if pick == 1 \
        else base + rng.randrange(-20 * DAY, 20 * DAY)


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


class TestKernelMatchesReference:
    """The kernel against the per-row dispatch it replaced, on seeded random rows."""

    def test_random_rows_windows_and_partitions(self):
        rng = random.Random(19)
        for _ in range(1000):
            rows = random_rows(rng, rng.randrange(0, 60))
            partition = rng.choice(["hour", "day", "month"])
            dense = rng.random() < 0.5
            market = rng.choice([None, "Trump", "Harris"])
            start, end = random_bound(rng), random_bound(rng)
            got = aggregate_components(iter(rows), partition, market, dense, start, end)
            assert got == reference_aggregate(rows, partition, market, dense, start, end), \
                (partition, market, dense, start, end)

    @pytest.mark.parametrize("partition", ["hour", "day", "month"])
    @pytest.mark.parametrize("dense", [False, True])
    def test_inverted_window_is_empty(self, partition, dense):
        rows = random_rows(random.Random(5), 50)
        for start, end in [(BOUNDARIES[0] + 1800, BOUNDARIES[0] + 900),
                           (BOUNDARIES[0] + DAY, BOUNDARIES[0]),
                           (BOUNDARIES[1], BOUNDARIES[1])]:
            assert aggregate_components(rows, partition, dense=dense, start=start, end=end) == []
            assert reference_aggregate(rows, partition, dense=dense, start=start, end=end) == []

    @pytest.mark.parametrize("partition", ["hour", "day", "month"])
    def test_empty_input(self, partition):
        assert aggregate_components([], partition) == []
        assert aggregate_components([], partition, dense=True) == []
        end = parse_utc("1970-03-02")  # no rows and no start: no grid
        assert aggregate_components([], partition, dense=True, end=end) == []
        assert reference_aggregate([], partition, dense=True, end=end) == []
        assert aggregate_components([], partition, dense=True, start=end) == []
        assert aggregate_components([], partition, dense=True, start=0, end=end) != []

    @pytest.mark.parametrize("partition", ["hour", "day", "month"])
    def test_one_unset_bound_comes_from_the_rows_in_the_window(self, partition):
        rows = [row(parse_utc("2024-03-05T10:15:00Z"), trade=USD),
                row(parse_utc("2024-05-20T08:00:00Z"), trade=USD),
                row(parse_utc("2024-03-07"), market="Biden")]
        first, second = parse_utc("2024-03-05T10:15:00Z"), parse_utc("2024-05-20")
        before = parse_utc("2024-01-01")
        # an ``end`` before every row of the market: no grid, not one from epoch 0
        assert aggregate_components(rows, partition, "Trump", True, end=before) == []
        # an ``end`` between the rows: the grid starts at the first row's interval
        got = aggregate_components(rows, partition, "Trump", True, end=second)
        assert got[0].start == reference_interval_floor(first, partition)
        assert got[-1].start < second and got[0].yes.trade == USD
        assert got == reference_aggregate(rows, partition, "Trump", True, end=second)
        # a ``start`` after every row: no grid
        assert aggregate_components(rows, partition, "Trump", True, start=second + DAY) == []

    def test_leap_day_and_year_end_keys(self):
        stamps = ["2024-02-28T23:59:59", "2024-02-29T00:00:00", "2024-02-29T23:59:59",
                  "2024-03-01T00:00:00", "2023-12-31T23:59:59", "2024-01-01T00:00:00"]
        rows = [row(parse_utc(text), trade=USD) for text in stamps]
        months = aggregate_components(rows, "month")
        assert [(t.start, t.yes.trade) for t in months] == [
            (parse_utc("2023-12-01"), USD), (parse_utc("2024-01-01"), USD),
            (parse_utc("2024-02-01"), 3 * USD), (parse_utc("2024-03-01"), USD)]
        days = aggregate_components(rows, "day", start=parse_utc("2024-02-29"),
                                    end=parse_utc("2024-03-01"))
        assert [(t.start, t.yes.trade) for t in days] == [(parse_utc("2024-02-29"), 2 * USD)]
        for partition in ("hour", "day", "month"):
            for dense in (False, True):
                assert aggregate_components(rows, partition, dense=dense) == \
                    reference_aggregate(rows, partition, dense=dense)

    @pytest.mark.parametrize("rows", [[], [row(parse_utc("2024-03-05"))]])
    def test_unknown_partition_raises_on_any_input(self, rows):
        with pytest.raises(ValueError, match="unknown partition"):
            aggregate_components(rows, "week")

    @pytest.mark.parametrize("partition", ["hour", "day", "month"])
    def test_window_splits_at_a_grid_point(self, partition):
        """For ``b`` on the partition grid, the intervals of [a, c) are those of [a, b)
        followed by those of [b, c)."""
        rng = random.Random(8)
        rows = random_rows(rng, 300)
        for _ in range(50):
            a, c = sorted(rng.choice(BOUNDARIES) + rng.randrange(-3 * DAY, 3 * DAY)
                          for _ in range(2))
            b = reference_interval_floor(rng.randrange(a, c + 1), partition)
            if not a <= b <= c:
                b = reference_interval_next(b, partition)
            if not a <= b <= c:
                continue
            for dense in (False, True):
                whole = aggregate_components(rows, partition, dense=dense, start=a, end=c)
                left = aggregate_components(rows, partition, dense=dense, start=a, end=b)
                right = aggregate_components(rows, partition, dense=dense, start=b, end=c)
                assert whole == left + right, (a, b, c, dense)


def reference_merge(intervals):
    """The per-interval attribute loop that ``merge_totals`` replaced, kept as its oracle."""
    if not intervals:
        raise ValueError("nothing to merge")
    yes_trade = yes_mint = yes_burn = no_trade = no_mint = no_burn = 0
    for it in intervals:
        yes_trade += it.yes.trade
        yes_mint += it.yes.mint
        yes_burn += it.yes.burn
        no_trade += it.no.trade
        no_mint += it.no.mint
        no_burn += it.no.burn
    return IntervalTotals(
        start=min(it.start for it in intervals),
        partition=intervals[0].partition,
        yes=SideTotals(yes_trade, yes_mint, yes_burn),
        no=SideTotals(no_trade, no_mint, no_burn),
    )


class TestMergeMatchesReference:
    def test_random_intervals(self):
        rng = random.Random(23)
        for _ in range(500):
            partition = rng.choice(["hour", "day", "month"])
            intervals = [IntervalTotals(
                rng.randrange(-DAY, 10**10), partition,
                SideTotals(*(rng.randrange(10**18) for _ in range(3))),
                SideTotals(*(rng.randrange(10**18) for _ in range(3))))
                for _ in range(rng.randrange(1, 40))]
            got = merge_totals(intervals)
            assert got == reference_merge(intervals)
            assert type(got) is IntervalTotals
            assert (type(got.yes), type(got.no)) == (SideTotals, SideTotals)

    def test_single_interval_is_itself(self):
        one = IntervalTotals(parse_utc("2024-03-05"), "day", SideTotals(1, 2, 3),
                             SideTotals(4, 5, 6))
        assert merge_totals([one]) == reference_merge([one]) == one

    def test_empty_input_raises(self):
        for merge in (merge_totals, reference_merge):
            with pytest.raises(ValueError, match="nothing to merge"):
                merge([])


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
