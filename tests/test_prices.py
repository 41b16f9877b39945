import random
import statistics
from fractions import Fraction

import pytest

from fillflow.decompose import DecomposedTransaction, TxKind, VolumeComponents
from fillflow.errors import DataError
from fillflow.events import FillEvent, group_transactions
from fillflow.prices import (
    DeviationPoint,
    InflowSeries,
    PricePoint,
    arbitrage_deviation,
    build_price_series,
    daily_net_inflow,
    pearson,
    rolling_inflow_correlation,
    splice_democrat_market,
    splice_inflow_series,
)
from fillflow.units import DAY, parse_utc

USD = 10**6
DAY0 = parse_utc("2024-02-01")


def inflow_row(ts, market, mint=0, burn=0):
    return DecomposedTransaction(
        block=ts, tx_index=0, timestamp=ts, market=market, kind=TxKind.SHARE_MINTING,
        components=VolumeComponents(yes_mint=mint, yes_burn=burn,
                                    buy_vol=mint, sell_vol=burn),
    )


def series(values, start=DAY0):
    return InflowSeries(
        days=tuple(start + i * DAY for i in range(len(values))),
        values=tuple(values),
    )


def reference_arbitrage_deviation(yes_series, no_series, grid_step):
    """Every grid point's prices and floats computed afresh."""
    start = max(yes_series[0].timestamp, no_series[0].timestamp)
    end = max(yes_series[-1].timestamp, no_series[-1].timestamp)
    out = []
    for t in range(start, end + 1, grid_step):
        yes = [p for p in yes_series if p.timestamp <= t][-1]
        no = [p for p in no_series if p.timestamp <= t][-1]
        out.append(DeviationPoint(t, float(yes.price + no.price - 1), float(yes.price),
                                  float(no.price), t - yes.timestamp, t - no.timestamp))
    return out


def reference_splice(before, after, splice_day):
    """The two-list splice that ``splice_inflow_series`` replaced, kept as its oracle."""
    splice_day -= splice_day % DAY
    days, values = [], []
    for day, value in zip(before.days, before.values):
        if day < splice_day:
            days.append(day)
            values.append(value)
    for day, value in zip(after.days, after.values):
        if day >= splice_day:
            days.append(day)
            values.append(value)
    if not days:
        raise DataError("splice produced an empty series")
    dense = {d: 0 for d in range(days[0], days[-1] + DAY, DAY)}
    for day, value in zip(days, values):
        dense[day] = value
    return InflowSeries(days=tuple(sorted(dense)), values=tuple(dense[d] for d in sorted(dense)))


def outcome(function, *args):
    try:
        return function(*args)
    except DataError as exc:
        return f"DataError: {exc}"


class TestPricePointContract:
    @pytest.mark.parametrize("usdc, shares", [(0, USD), (USD, USD), (2 * USD, USD), (1, 0)])
    def test_bad_price_rejected_on_every_construction(self, usdc, shares):
        good = PricePoint(DAY0, 1, 0, 1, 2)
        constructions = [
            lambda: PricePoint(DAY0, 1, 0, usdc, shares),
            lambda: PricePoint(timestamp=DAY0, block=1, tx_index=0, usdc_micro=usdc,
                               share_micro=shares),
            lambda: PricePoint._make((DAY0, 1, 0, usdc, shares)),
            lambda: good._replace(usdc_micro=usdc, share_micro=shares),
        ]
        for build in constructions:
            with pytest.raises(DataError):
                build()

    def test_named_tuple_of_its_values(self):
        point = PricePoint(timestamp=DAY0, block=1, tx_index=0, usdc_micro=59, share_micro=100)
        assert point == (DAY0, 1, 0, 59, 100)
        assert point._replace(usdc_micro=60) == PricePoint(DAY0, 1, 0, 60, 100)
        assert point.price == Fraction(59, 100)


class TestPriceSeries:
    def test_simple_trade_price(self, example_transactions, markets):
        trump = markets[0]
        points = build_price_series(example_transactions, trump.no_token_id)
        simple = next(p for p in points if p.block == 51953200)
        assert simple.price == Fraction(59, 100)
        # the aggregate buy fill nets the two partial sells: 210 shares, not 420
        assert simple.share_micro == 210 * 10**6

    def test_minting_leg_price(self, example_transactions, markets):
        biden = markets[1]
        points = build_price_series(example_transactions, biden.yes_token_id)
        assert points[0].price == Fraction(34, 100)

    def test_price_at_one_rejected(self):
        fills = [FillEvent(1, 0, 0, "a", "b", "0", "77", USD, USD, DAY0)]
        assert build_price_series(group_transactions(fills), "77") == []

    def test_zero_share_skipped(self):
        fills = [FillEvent(1, 0, 0, "a", "b", "0", "77", USD, 0, DAY0)]
        assert build_price_series(group_transactions(fills), "77") == []


class TestDeviation:
    def price_point(self, ts, price_pct):
        from fillflow.prices import PricePoint
        return PricePoint(timestamp=ts, block=1, tx_index=0,
                          usdc_micro=price_pct * 10**4, share_micro=USD)

    def test_complementary_prices_zero_delta(self):
        yes = [self.price_point(DAY0, 70)]
        no = [self.price_point(DAY0, 30)]
        out = arbitrage_deviation(yes, no, 3600)
        assert out[0].delta == 0.0

    def test_positive_delta(self):
        yes = [self.price_point(DAY0, 72)]
        no = [self.price_point(DAY0, 31)]
        out = arbitrage_deviation(yes, no, 3600)
        assert out[0].delta == pytest.approx(0.03, abs=1e-12)

    def test_grid_starts_at_later_first_observation(self):
        yes = [self.price_point(DAY0, 70), self.price_point(DAY0 + 7200, 75)]
        no = [self.price_point(DAY0 + 3600, 30)]
        out = arbitrage_deviation(yes, no, 3600)
        assert out[0].timestamp == DAY0 + 3600
        assert out[0].yes_staleness == 3600
        assert out[0].no_staleness == 0

    def test_piecewise_constant_between_trades(self):
        yes = [self.price_point(DAY0, 70), self.price_point(DAY0 + 10 * 3600, 80)]
        no = [self.price_point(DAY0, 30)]
        out = arbitrage_deviation(yes, no, 3600)
        deltas = [p.delta for p in out]
        assert deltas[:10] == [0.0] * 10
        assert deltas[10] == pytest.approx(0.10, abs=1e-12)

    def test_empty_leg_rejected(self):
        with pytest.raises(DataError):
            arbitrage_deviation([], [self.price_point(DAY0, 30)], 60)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_point_reference(self, seed):
        rng = random.Random(seed)

        def leg():
            times = sorted(rng.sample(range(DAY0, DAY0 + 5 * DAY), 40))
            return [PricePoint(t, 1, 0, rng.randrange(1, 10**6), 10**6) for t in times]

        yes, no = leg(), leg()
        step = rng.choice([60, 3600, 5000])
        assert arbitrage_deviation(yes, no, step) == reference_arbitrage_deviation(yes, no, step)

    def test_generator_ledger_matches_fraction_reference(self, small_ledger, markets):
        transactions = group_transactions(small_ledger.fills)
        yes = build_price_series(transactions, markets[0].yes_token_id)
        no = build_price_series(transactions, markets[0].no_token_id)
        assert len(yes) > 100 and len(no) > 100
        assert arbitrage_deviation(yes, no, 3600) == reference_arbitrage_deviation(yes, no, 3600)


class TestSplice:
    def test_splice_matches_manual_concatenation(self):
        rows = []
        rng = random.Random(4)
        for i in range(20):
            rows.append(inflow_row(DAY0 + i * DAY + 600, "Biden", mint=rng.randrange(USD)))
            rows.append(inflow_row(DAY0 + i * DAY + 700, "Harris", mint=rng.randrange(USD)))
        splice_day = DAY0 + 8 * DAY
        combined = splice_democrat_market(rows, "Biden", "Harris", splice_day)

        biden = daily_net_inflow(rows, "Biden")
        harris = daily_net_inflow(rows, "Harris")
        manual = [
            biden.values[i] if day < splice_day else harris.values[i]
            for i, day in enumerate(biden.days)
        ]
        assert list(combined.values) == manual
        assert combined.days == biden.days

    def test_splice_day_boundary_is_midnight(self):
        rows = [
            inflow_row(DAY0 + 600, "Biden", mint=USD),
            inflow_row(DAY0 + DAY + 600, "Biden", mint=2 * USD),
            inflow_row(DAY0 + 600, "Harris", mint=7 * USD),
            inflow_row(DAY0 + DAY + 600, "Harris", mint=9 * USD),
        ]
        # splice instant inside day 1: day 1 belongs to the second market
        combined = splice_democrat_market(rows, "Biden", "Harris", DAY0 + DAY + 4000)
        assert list(combined.values) == [USD, 9 * USD]

    def test_splice_before_both_series_gives_second_only(self):
        before = series([1, 2, 3])
        after = series([7, 8, 9])
        out = splice_inflow_series(before, after, DAY0 - 30 * DAY)
        assert list(out.values) == [7, 8, 9]

    def test_matches_reference_on_random_series(self):
        rng = random.Random(21)
        for _ in range(2000):
            before = series([rng.randrange(-9, 9) for _ in range(rng.randrange(0, 12))],
                            DAY0 + rng.randrange(-6, 6) * DAY)
            after = series([rng.randrange(-9, 9) for _ in range(rng.randrange(0, 12))],
                           DAY0 + rng.randrange(-6, 6) * DAY + rng.choice([0, 0, 0, 3600]))
            splice_day = DAY0 + rng.randrange(-10 * DAY, 20 * DAY)
            assert outcome(splice_inflow_series, before, after, splice_day) == \
                outcome(reference_splice, before, after, splice_day), (before, after, splice_day)

    def test_empty_splice_raises(self):
        with pytest.raises(DataError, match="empty series"):
            splice_inflow_series(series([1, 2]), series([]), DAY0 - DAY)

    def test_segments_match_daily_inflow_exactly(self, small_ledger):
        rows = small_ledger.truth
        splice_day = DAY0 + 30 * DAY
        combined = splice_democrat_market(rows, "Trump", "Biden", splice_day)
        trump = daily_net_inflow(rows, "Trump")
        biden = daily_net_inflow(rows, "Biden")
        for day, value in zip(combined.days, combined.values):
            source = trump if day < splice_day else biden
            assert value == dict(zip(source.days, source.values)).get(day, 0)


class TestRollingCorrelation:
    def test_affine_dependence_gives_one(self):
        rng = random.Random(11)
        base = [rng.randrange(-10**9, 10**9) for _ in range(200)]
        a = series(base)
        b = series([2 * v for v in base])
        for _, value in rolling_inflow_correlation(a, b, 90, 1):
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_negated_series_gives_minus_one(self):
        rng = random.Random(13)
        base = [rng.randrange(-10**9, 10**9) for _ in range(120)]
        out = rolling_inflow_correlation(series(base), series([-v for v in base]), 90, 1)
        assert all(v == pytest.approx(-1.0, abs=1e-9) for _, v in out)

    def test_zero_variance_window_is_null(self):
        flat = series([5 * USD] * 100)
        noisy = series([random.Random(1).randrange(USD) for _ in range(100)])
        out = rolling_inflow_correlation(flat, noisy, 90, 1)
        assert all(v is None for _, v in out)

    def test_matches_independent_implementation(self):
        rng = random.Random(17)
        a = series([rng.randrange(-10**8, 10**8) for _ in range(140)])
        b = series([rng.randrange(-10**8, 10**8) for _ in range(140)])
        ours = rolling_inflow_correlation(a, b, 90, 1)
        for i, (day, value) in enumerate(ours):
            xs = [v / USD for v in a.values[i:i + 90]]
            ys = [v / USD for v in b.values[i:i + 90]]
            assert value == pytest.approx(statistics.correlation(xs, ys), abs=1e-9)
        assert ours[0][0] == a.days[89]

    def test_emitted_at_window_end(self):
        a = series(list(range(100)))
        out = rolling_inflow_correlation(a, a, 90, 1)
        assert [day for day, _ in out] == [a.days[i] for i in range(89, 100)]

    def test_short_span_rejected(self):
        with pytest.raises(DataError):
            rolling_inflow_correlation(series([1, 2]), series([1, 2]), 90, 1)

    def test_empty_series_rejected(self):
        with pytest.raises(DataError, match="an inflow series is empty"):
            rolling_inflow_correlation(series([]), series([1, 2, 3]), 2, 1)

    def test_white_noise_mean_near_zero(self):
        rng = random.Random(23)
        n = 10_000
        a = series([rng.randrange(-10**6, 10**6) for _ in range(n)])
        b = series([rng.randrange(-10**6, 10**6) for _ in range(n)])
        out = [v for _, v in rolling_inflow_correlation(a, b, 90, 1)]
        assert abs(statistics.fmean(out)) < 0.05

    def test_pearson_bounds(self):
        rng = random.Random(29)
        for _ in range(300):
            xs = [rng.random() for _ in range(30)]
            ys = [rng.random() for _ in range(30)]
            value = pearson(xs, ys)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
