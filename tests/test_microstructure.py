import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from fillflow.errors import DataError
from fillflow.microstructure import (
    HourBar,
    SignedTrade,
    bar_log_odds,
    hourly_bars,
    inverse_log_odds,
    kyle_lambda,
    lambda_volume_regression,
    log_odds,
    price_impact_delta_p,
    rolling_avg_volume,
    rolling_kyle_lambda,
    sign_trades,
)
from fillflow.metrics import IntervalTotals, SideTotals
from fillflow.prices import (InflowSeries, PricePoint, arbitrage_deviation, pearson,
                             rolling_inflow_correlation)
from fillflow.units import DAY, HOUR, LAST_SECOND, parse_utc

T0 = parse_utc("2024-03-01T00:00:00Z")
USD = 10**6


def point(ts, price_micro, shares=100):
    return PricePoint(timestamp=ts, block=1, tx_index=0,
                      usdc_micro=shares * price_micro, share_micro=shares * USD)


def bar(i, vwap, flow_musd=0.0, carried=False):
    return HourBar(start=T0 + i * HOUR, vwap=Fraction(vwap).limit_denominator(10**12),
                   flow_micro=round(flow_musd * 10**12), trade_count=0 if carried else 1,
                   carried_forward=carried)


class TestTickRule:
    def test_rule_application(self):
        prices = [500_000, 520_000, 520_000, 510_000]
        trades = sign_trades([point(T0 + i, p) for i, p in enumerate(prices)])
        assert [t.direction for t in trades] == [0, 1, 1, -1]
        assert trades[0].flow_micro == 0  # leading trade excluded from flow

    def test_monotone_increasing(self):
        trades = sign_trades([point(T0 + i, 400_000 + i * 1000) for i in range(10)])
        assert all(t.direction == 1 for t in trades[1:])

    def test_flow_is_signed_notional(self):
        trades = sign_trades([point(T0, 500_000), point(T0 + 1, 400_000)])
        assert trades[1].flow_micro == -trades[1].usdc_micro

    def test_agreement_with_known_aggressor_sides(self):
        # construct a stream where the aggressor side is known: buys lift the
        # price one tick, sells drop it; repeats keep the same aggressor
        rng = random.Random(37)
        price = 500_000
        points, truth = [], []
        side = 1
        for i in range(2000):
            if rng.random() < 0.7:
                side = rng.choice([1, -1])
                price = min(max(price + side * 1000, 10_000), 990_000)
            points.append(point(T0 + i, price))
            truth.append(side)
        trades = sign_trades(points)
        agree = sum(1 for t, want in zip(trades[1:], truth[1:]) if t.direction == want)
        assert agree / (len(trades) - 1) > 0.95


class TestHourlyBars:
    def test_share_weighted_vwap(self):
        trades = sign_trades([
            point(T0 + 60, 400_000, shares=100),
            point(T0 + 120, 600_000, shares=300),
        ])
        bars = hourly_bars(trades)
        assert bars[0].vwap == Fraction(11, 20)

    def test_usd_weighted_vwap(self):
        trades = sign_trades([
            point(T0 + 60, 400_000, shares=100),
            point(T0 + 120, 600_000, shares=300),
        ])
        bars = hourly_bars(trades, weight="usd")
        # weights 40 and 180 USDC: (40*0.4 + 180*0.6) / 220
        assert bars[0].vwap == Fraction(31, 55)

    def test_empty_hour_carried_forward(self):
        trades = sign_trades([point(T0, 500_000), point(T0 + 2 * HOUR, 510_000)])
        bars = hourly_bars(trades)
        assert len(bars) == 3
        middle = bars[1]
        assert middle.carried_forward and middle.trade_count == 0
        assert middle.flow_micro == 0
        assert middle.vwap == bars[0].vwap

    def test_sums_match_bruteforce_over_720_hours(self):
        rng = random.Random(7)
        points = []
        for hour in range(720):
            for _ in range(rng.randrange(4)):
                ts = T0 + hour * HOUR + rng.randrange(HOUR)
                points.append(point(ts, rng.randrange(100_000, 900_000),
                                    shares=rng.randrange(1, 500)))
        points.sort(key=lambda p: p.timestamp)
        trades = sign_trades(points)
        bars = hourly_bars(trades)

        expected: dict[int, list] = {}
        for t in trades:
            acc = expected.setdefault((t.timestamp - T0) // HOUR, [0, 0, 0])
            acc[0] += t.usdc_micro
            acc[1] += t.share_micro
            acc[2] += t.flow_micro
        for b in bars:
            idx = (b.start - T0) // HOUR
            if idx in expected:
                usdc, shares, flow = expected[idx]
                assert b.vwap == Fraction(usdc, shares)
                assert b.flow_micro == flow
            else:
                assert b.carried_forward

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            hourly_bars([])


def reference_sign_trades(points):
    """The Fraction-comparing tick rule that ``sign_trades`` replaced, kept as its oracle."""
    out = []
    last_direction = 0
    prev_price = None
    for point in points:
        price = point.price
        if prev_price is None or price == prev_price:
            direction = last_direction
        else:
            direction = 1 if price > prev_price else -1
            last_direction = direction
        out.append(SignedTrade(timestamp=point.timestamp, price=price,
                               usdc_micro=point.usdc_micro, share_micro=point.share_micro,
                               direction=direction))
        prev_price = price
    return out


def reference_hourly_bars(trades, weight="shares"):
    """The keyword-built bars that ``hourly_bars`` replaced, kept as its oracle."""
    by_hour = {}
    for trade in trades:
        by_hour.setdefault(trade.timestamp - trade.timestamp % HOUR, []).append(trade)
    first, last = (t.timestamp - t.timestamp % HOUR for t in (trades[0], trades[-1]))
    bars = []
    prev_vwap = None
    for hour in range(first, last + HOUR, HOUR):
        group = by_hour.get(hour)
        if group:
            if weight == "shares":
                vwap = Fraction(sum(t.usdc_micro for t in group),
                                sum(t.share_micro for t in group))
            else:
                vwap = sum(Fraction(t.usdc_micro) * t.price for t in group) / sum(
                    t.usdc_micro for t in group)
            bars.append(HourBar(start=hour, vwap=vwap, flow_micro=sum(t.flow_micro for t in group),
                                trade_count=len(group), carried_forward=False))
        else:
            bars.append(HourBar(start=hour, vwap=prev_vwap, flow_micro=0, trade_count=0,
                                carried_forward=True))
        prev_vwap = bars[-1].vwap
    return bars


class TestPricePathMatchesReference:
    def test_random_series_with_equal_prices_in_other_terms(self):
        rng = random.Random(29)
        for _ in range(300):
            points, ts = [], T0 + rng.randrange(HOUR)
            for _ in range(rng.randrange(1, 60)):
                ts += rng.choice([0, 1, 600, HOUR, 3 * HOUR])
                # few prices, each in several scalings, so ties come in other terms
                num, den = rng.choice([(1, 2), (2, 5), (3, 5), (49, 100), (51, 100)])
                scale = rng.choice([1, 2, 3, 7, 10**6])
                points.append(PricePoint(ts, 1, 0, num * scale, den * scale))
            trades = sign_trades(points)
            assert trades == reference_sign_trades(points)
            assert [type(t.price) for t in trades] == [Fraction] * len(trades)
            for weight in ("shares", "usd"):
                bars = hourly_bars(trades, weight)
                assert bars == reference_hourly_bars(trades, weight)
                assert all(type(b) is HourBar and type(b.vwap) is Fraction for b in bars)


class TestLogOdds:
    def test_midpoint_is_zero(self):
        assert log_odds(0.5) == 0.0

    def test_roundtrip_accuracy(self):
        for pct in range(1, 100):
            p = pct / 100
            assert abs(inverse_log_odds(log_odds(p)) - p) < 1e-12

    def test_against_high_precision_oracle(self):
        getcontext().prec = 40
        want = Decimal(7).ln() - Decimal(3).ln()  # ln(0.7 / 0.3)
        assert log_odds(0.7) == pytest.approx(float(want), abs=1e-14)

    def test_clamping_flagged(self):
        bars = [bar(0, Fraction(1, 10**9)), bar(1, Fraction(1, 2))]
        thetas, clamped = bar_log_odds(bars)
        assert clamped == 1
        assert thetas[0] == log_odds(1e-6)

    def test_strictly_increasing(self):
        thetas = [log_odds(p / 1000) for p in range(1, 1000)]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))


class TestKyleLambda:
    def test_noiseless_recovery_exact(self):
        rng = random.Random(3)
        q = [rng.gauss(0, 1) for _ in range(720)]
        d_theta = [0.2 * x for x in q]
        lam, se = kyle_lambda(d_theta, q)
        assert lam == pytest.approx(0.2, rel=1e-14)
        assert se == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_matches_generic_solver(self):
        import numpy as np
        rng = random.Random(5)
        q = [rng.gauss(0, 1) for _ in range(500)]
        y = [0.1 * x + rng.gauss(0, 0.01) for x in q]
        lam, _ = kyle_lambda(y, q)
        solver = float(np.linalg.lstsq(
            np.asarray(q, dtype=float).reshape(-1, 1),
            np.asarray(y, dtype=float), rcond=None)[0][0])
        assert lam == pytest.approx(solver, rel=1e-10)

    def test_all_zero_flow_degenerate(self):
        assert kyle_lambda([0.1, -0.2, 0.3], [0.0, 0.0, 0.0]) is None

    def test_consistency_as_noise_vanishes(self):
        rng = random.Random(11)
        q = [rng.gauss(0, 1) for _ in range(720)]
        qq = sum(x * x for x in q)
        errors = []
        for sigma in (0.1, 0.01, 0.001):
            noise = [rng.gauss(0, sigma) for _ in range(720)]
            d_theta = [0.3 * x + e for x, e in zip(q, noise)]
            lam, _ = kyle_lambda(d_theta, q)
            error = abs(lam - 0.3)
            errors.append(error)
            assert error <= 5 * sigma / math.sqrt(qq)
        assert errors[2] < errors[0]


class TestRollingLambda:
    def make_bars(self, lam, hours, seed=1, q_scale=0.3):
        rng = random.Random(seed)
        theta = 0.0
        bars = []
        flows = []
        for i in range(hours):
            q = rng.gauss(0, q_scale) if i else 0.0
            theta += lam * q
            p = inverse_log_odds(theta)
            bars.append(HourBar(start=T0 + i * HOUR, vwap=Fraction(p),
                                flow_micro=round(q * 10**12), trade_count=1,
                                carried_forward=False))
            flows.append(q)
        return bars, flows

    def test_noiseless_full_path(self):
        bars, _ = self.make_bars(0.2, 24 * 32)
        estimates = rolling_kyle_lambda(bars, 720, 1)
        assert estimates
        for e in estimates:
            assert e.n_obs == 720
            assert e.value == pytest.approx(0.2, rel=1e-10)

    def test_estimates_start_after_full_window(self):
        bars, _ = self.make_bars(0.1, 24 * 32)
        estimates = rolling_kyle_lambda(bars, 720, 1)
        first = estimates[0].date
        assert first - 721 * HOUR >= bars[0].start
        assert (first - 720 * HOUR - bars[0].start) < DAY + HOUR

    def test_short_series_withheld(self):
        bars, _ = self.make_bars(0.1, 100)
        assert rolling_kyle_lambda(bars, 720, 1) == []

    def test_degenerate_window_is_null(self):
        bars = [bar(i, Fraction(1, 2)) for i in range(24 * 31)]
        estimates = rolling_kyle_lambda(bars, 720, 1)
        assert estimates and all(e.value is None and e.stderr is None for e in estimates)

    def test_carried_bars_never_affect_estimate(self):
        bars, flows = self.make_bars(0.25, 24 * 31 + 1)
        estimates = rolling_kyle_lambda(bars, 720, 1)

        d_theta = np.diff(bar_log_odds(bars)[0])
        pairs = list(zip(d_theta, flows[1:]))
        date = estimates[0].date
        lo = (date - 720 * HOUR - bars[0].start) // HOUR
        window = pairs[lo - 1: lo - 1 + 720]
        nonzero = [(dt, q) for dt, q in window if q != 0.0]
        lam_full, _ = kyle_lambda(*zip(*window))
        lam_nonzero, _ = kyle_lambda(*zip(*nonzero))
        assert lam_full == pytest.approx(lam_nonzero, rel=1e-12)
        assert lam_full == pytest.approx(estimates[0].value, rel=1e-12)

    def test_gap_in_grid_rejected(self):
        bars = [bar(0, Fraction(1, 2)), bar(2, Fraction(1, 2))]
        with pytest.raises(DataError):
            rolling_kyle_lambda(bars)

    def test_no_estimate_dated_past_the_last_writable_second(self):
        bars, _ = self.make_bars(0.2, 24 * 3)
        shift = LAST_SECOND + 1 - 3 * DAY - T0  # the grid ends in the last hour of 9999
        late = rolling_kyle_lambda([b._replace(start=b.start + shift) for b in bars], 24)
        early = rolling_kyle_lambda(bars, 24)
        assert early[-1].date + shift == LAST_SECOND + 1
        assert late == [e._replace(date=e.date + shift) for e in early[:-1]]

    def test_window_alignment_against_timestamp_oracle(self):
        # independent recomputation keyed purely by timestamps
        bars, _ = self.make_bars(0.15, 24 * 33, seed=21)
        estimates = rolling_kyle_lambda(bars, 720, 1)
        theta_at = {b.start: log_odds(float(b.vwap)) for b in bars}
        flow_at = {b.start: b.flow_micro / 10**12 for b in bars}
        for estimate in estimates[:3] + estimates[-1:]:
            assert estimate.date % DAY == 0
            num = den = 0.0
            for tau in range(estimate.date - 720 * HOUR, estimate.date, HOUR):
                d_theta = theta_at[tau] - theta_at[tau - HOUR]
                num += flow_at[tau] * d_theta
                den += flow_at[tau] ** 2
            assert estimate.value == pytest.approx(num / den, rel=1e-12)


class TestPriceImpact:
    def test_worked_values_exact(self):
        assert price_impact_delta_p(0.518, 0.5, 1.0) == 0.1295
        assert price_impact_delta_p(0.01, 0.5, 1.0) == 0.0025

    def test_zero_lambda(self):
        assert price_impact_delta_p(0.0, 0.3, 5.0) == 0.0

    def test_price_bounds(self):
        with pytest.raises(ValueError):
            price_impact_delta_p(0.1, 1.0)

    def test_taylor_remainder_bound(self):
        for p_pct in range(20, 85, 5):
            p = p_pct / 100
            theta = log_odds(p)
            for d_theta in (-0.2, -0.15, -0.1, -0.05, -0.02, -0.01, 0.01, 0.05, 0.1, 0.2):
                exact = inverse_log_odds(theta + d_theta) - p
                approx = p * (1 - p) * d_theta
                assert abs(exact - approx) <= 2 * d_theta * d_theta


class TestLambdaVolumeRegression:
    def test_exact_line(self):
        volumes = [float(v) for v in range(1, 40)]
        lambdas = [1 - 0.05 * v for v in volumes]
        fit = lambda_volume_regression(lambdas, volumes)
        assert fit.slope == pytest.approx(-0.05, rel=1e-12)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.n == 39

    def test_three_point_closed_form(self):
        # independent hand computation with exact rationals
        volumes = [1.0, 2.0, 4.0]
        lambdas = [2.0, 2.5, 5.0]
        n = 3
        vbar = Fraction(7, 3)
        lbar = Fraction(19, 6)
        sxx = sum((Fraction(v) - vbar) ** 2 for v in volumes)
        sxy = sum((Fraction(v) - vbar) * (Fraction(str(l)) - lbar)
                  for v, l in zip(volumes, lambdas))
        slope = sxy / sxx
        intercept = lbar - slope * vbar
        resid = [Fraction(str(l)) - intercept - slope * Fraction(v)
                 for v, l in zip(volumes, lambdas)]
        ssr = sum(e * e for e in resid)
        tss = sum((Fraction(str(l)) - lbar) ** 2 for l in lambdas)
        r2 = 1 - ssr / tss
        s2 = ssr / (n - 2)
        se_slope = math.sqrt(s2 / sxx)
        se_intercept = math.sqrt(s2 * (Fraction(1, 3) + vbar**2 / sxx))

        fit = lambda_volume_regression(lambdas, volumes)
        assert fit.slope == pytest.approx(float(slope), rel=1e-12)
        assert fit.intercept == pytest.approx(float(intercept), rel=1e-12)
        assert fit.r2 == pytest.approx(float(r2), rel=1e-12)
        assert fit.adj_r2 == pytest.approx(float(1 - (1 - r2) * 2), rel=1e-12)
        assert fit.t_slope == pytest.approx(float(slope) / se_slope, rel=1e-10)
        assert fit.t_intercept == pytest.approx(float(intercept) / se_intercept, rel=1e-10)

    def test_no_intercept_variant(self):
        volumes = [1.0, 2.0, 3.0, 4.0]
        lambdas = [-0.07 * v for v in volumes]
        fit = lambda_volume_regression(lambdas, volumes, intercept=False)
        assert fit.intercept is None and fit.t_intercept is None
        assert fit.slope == pytest.approx(-0.07, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_volume_rejected(self):
        with pytest.raises(DataError):
            lambda_volume_regression([0.1, 0.2, 0.3], [2.0, 2.0, 2.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(DataError):
            lambda_volume_regression([0.1, 0.2], [1.0, 2.0])


class TestRollingAvgVolume:
    def days(self, n):
        return [T0 + i * DAY for i in range(n)]

    def test_constant_series(self):
        out = rolling_avg_volume(self.days(40), [2.0] * 40, 30)
        assert len(out) == 11
        assert all(v == pytest.approx(2.0) for _, v in out)

    def test_step_ramps_over_window(self):
        values = [0.0] * 30 + [3.0] * 30
        out = dict(rolling_avg_volume(self.days(60), values, 30))
        assert out[T0 + 30 * DAY] == 0.0
        assert out[T0 + 45 * DAY] == pytest.approx(1.5)
        assert out[T0 + 60 * DAY] == pytest.approx(3.0)

    def test_matches_bruteforce_mean(self):
        rng = random.Random(2)
        values = [rng.random() * 5 for _ in range(120)]
        out = rolling_avg_volume(self.days(120), values, 30)
        for i, (date, got) in enumerate(out):
            window = values[i: i + 30]
            assert got == pytest.approx(sum(window) / 30, rel=1e-12)
            assert date == T0 + (i + 30) * DAY

    def test_sparse_series_rejected(self):
        with pytest.raises(DataError):
            rolling_avg_volume([T0, T0 + 2 * DAY], [1.0, 2.0], 1)


# Checks of a public function's arguments that the CLI's option types, or its callers'
# aligned series, rule out.
EMPTY_SERIES = InflowSeries((), ())


@pytest.mark.parametrize("call, error, message", [
    (lambda: IntervalTotals(T0, "day", SideTotals(), SideTotals()).side("both"), ValueError,
     "unknown side 'both'"),
    (lambda: arbitrage_deviation([point(T0, 400_000)], [point(T0, 600_000)], 0), ValueError,
     "grid step must be positive"),
    (lambda: hourly_bars(sign_trades([point(T0, 400_000)]), "notional"), ValueError,
     "unknown VWAP weight 'notional'"),
    (lambda: log_odds(0.5, 0), ValueError, "eps must be in (0, 0.5)"),
    (lambda: log_odds(0.5, 0.5), ValueError, "eps must be in (0, 0.5)"),
    (lambda: rolling_kyle_lambda([], 1), ValueError, "window must cover at least 2 hours"),
    (lambda: rolling_avg_volume([], [], 0), ValueError, "window must be at least 1 day"),
    (lambda: rolling_inflow_correlation(EMPTY_SERIES, EMPTY_SERIES, 1, 1), ValueError,
     "window must be >= 2 days and step >= 1 day"),
    (lambda: rolling_inflow_correlation(EMPTY_SERIES, EMPTY_SERIES, 2, 0), ValueError,
     "window must be >= 2 days and step >= 1 day"),
    (lambda: kyle_lambda([0.1], [1.0, 2.0]), DataError, "mismatched window lengths"),
    (lambda: kyle_lambda([0.1], [1.0]), DataError, "window needs at least 2 observations"),
    (lambda: InflowSeries((T0,), ()), DataError, "days and values differ in length"),
    (lambda: pearson([1.0], [1.0, 2.0]), DataError,
     "correlation needs two equal-length series of >= 2 points"),
    (lambda: lambda_volume_regression([1.0], [1.0, 2.0]), DataError,
     "series must be date-aligned with equal length"),
    (lambda: rolling_avg_volume([T0], [], 1), DataError, "days and volumes differ in length"),
], ids=["unknown-side", "grid-step-0", "unknown-weight", "eps-0", "eps-half", "lambda-window-1",
        "volume-window-0", "correlation-window-1", "correlation-step-0", "mismatched-lengths",
        "one-observation", "inflow-lengths", "correlation-lengths", "regression-lengths",
        "volume-lengths"])
def test_public_argument_check(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
