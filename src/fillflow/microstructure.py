"""Tick-rule signing, hourly bars, and rolling price-impact estimation.

The pipeline mirrors standard high-frequency practice adapted to a
probability-priced market: sign trades with the tick rule, aggregate to an
hourly VWAP / net-order-flow grid, move prices to log-odds so a cent move
means the same thing at 0.1 as at 0.5, and regress hourly log-odds changes
on net flow over a trailing window to get the price-impact coefficient.

Signed flow is kept in integer micro-USDC until the regression layer, so
bar construction is exact; log-odds and least squares are float. The least
squares are closed forms over exactly rounded sums (``math.fsum``), so
their results do not depend on a linear-algebra library or its build.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DataError
from .prices import PricePoint
from .units import DAY, HOUR, day_floor, hour_floor

MUSD_MICRO = 10**12  # micro-USDC per million USD
DEFAULT_WINDOW_HOURS = 720
DEFAULT_CLAMP_EPS = 1e-6


class SignedTrade(NamedTuple):
    """A trade with tick-rule direction; flow = direction * size.

    ``direction`` is +1/-1, or 0 for the leading trades before the first
    nonzero price change, which carry no inferable direction and contribute
    zero flow.
    """

    timestamp: int
    price: Fraction
    usdc_micro: int
    share_micro: int
    direction: int

    @property
    def flow_micro(self) -> int:
        return self.direction * self.usdc_micro


class HourBar(NamedTuple):
    """One hour of trading: VWAP price and net signed order flow.

    Hours without trades carry the previous VWAP forward with zero flow
    (``carried_forward``), keeping the grid dense; such bars contribute
    nothing to impact estimation since both the log-odds change and the
    flow are zero.
    """

    start: int
    vwap: Fraction
    flow_micro: int
    trade_count: int
    carried_forward: bool


class LambdaEstimate(NamedTuple):
    """Price impact for one estimation date, from the trailing window.

    ``value`` is in log-odds per million USD of net flow; None when every
    hour in the window had zero flow (degenerate regression).
    """

    date: int
    value: float | None
    stderr: float | None
    n_obs: int


class RegressionResult(NamedTuple):
    slope: float
    intercept: float | None
    t_slope: float
    t_intercept: float | None
    r2: float
    adj_r2: float
    n: int


def sign_trades(points: Sequence[PricePoint]) -> list[SignedTrade]:
    """Tick-rule classification over a chronological price series.

    Direction is the sign of the price change; unchanged prices carry the
    most recent nonzero direction forward. The change's sign is that of
    ``usdc * prev_shares - prev_usdc * shares`` (share totals are positive),
    so the zero-change test is exact.
    """
    from fractions import Fraction

    new = tuple.__new__
    out: list[SignedTrade] = []
    direction = prev_usdc = prev_shares = 0  # no previous price: no change
    for timestamp, _, _, usdc, shares in points:
        change = usdc * prev_shares - prev_usdc * shares
        if change:
            direction = 1 if change > 0 else -1
        out.append(new(SignedTrade, (timestamp, Fraction(usdc, shares), usdc, shares, direction)))
        prev_usdc, prev_shares = usdc, shares
    return out


def hourly_bars(trades: Sequence[SignedTrade], weight: str = "shares") -> list[HourBar]:
    """Dense hourly VWAP / net-flow grid from first to last trade.

    VWAP weights are share quantities by default ("shares"); "usd" weights
    by collateral notional instead. Both stay exact rationals.
    """
    if not trades:
        raise DataError("no trades to aggregate")
    if weight not in ("shares", "usd"):
        raise ValueError(f"unknown VWAP weight {weight!r}")
    from fractions import Fraction

    by_hour: dict[int, list[SignedTrade]] = {}
    for trade in trades:
        by_hour.setdefault(hour_floor(trade.timestamp), []).append(trade)

    first = hour_floor(trades[0].timestamp)
    last = hour_floor(trades[-1].timestamp)
    new = tuple.__new__
    bars: list[HourBar] = []
    vwap: Fraction | None = None
    for hour in range(first, last + HOUR, HOUR):
        group = by_hour.get(hour)
        if group:
            usdc = shares = flow = 0
            for _, _, trade_usdc, trade_shares, direction in group:
                usdc += trade_usdc
                shares += trade_shares
                flow += direction * trade_usdc
            if weight == "shares":
                # share-weighted mean of usdc/share ratios = total usdc / total shares
                vwap = Fraction(usdc, shares)
            else:
                vwap = sum(Fraction(t.usdc_micro) * t.price for t in group) / usdc
            bars.append(new(HourBar, (hour, vwap, flow, len(group), False)))
        else:  # the previous VWAP carried forward
            bars.append(new(HourBar, (hour, vwap, 0, 0, True)))
    return bars


def log_odds(p: float, eps: float = DEFAULT_CLAMP_EPS) -> float:
    """theta = ln(p / (1 - p)), with p clamped into [eps, 1 - eps]."""
    if not 0 < eps < 0.5:
        raise ValueError("eps must be in (0, 0.5)")
    p = min(max(float(p), eps), 1.0 - eps)
    return math.log(p / (1.0 - p))


def inverse_log_odds(theta: float) -> float:
    if theta >= 0:
        return 1.0 / (1.0 + math.exp(-theta))
    e = math.exp(theta)
    return e / (1.0 + e)


def bar_log_odds(bars: Sequence[HourBar], eps: float = DEFAULT_CLAMP_EPS) -> tuple[list[float], int]:
    """Log-odds of each bar VWAP; also reports how many needed clamping."""
    thetas: list[float] = []
    clamped = 0
    for bar in bars:
        p = float(bar.vwap)
        if not eps <= p <= 1 - eps:
            clamped += 1
        thetas.append(log_odds(p, eps))
    return thetas, clamped


def _through_origin(qq: float, qy: float, flows: Sequence[float],
                    d_thetas: Sequence[float]) -> tuple[float, float] | None:
    """(lambda_hat, stderr) from sum(Q^2) and sum(Q * dtheta); None when sum(Q^2) is 0.

    The residual sum of squares is summed from the residuals themselves:
    expanding it in the sums cancels catastrophically on a near-perfect fit.
    """
    if qq == 0.0:
        return None
    lam = qy / qq
    resid = [y - lam * q for q, y in zip(flows, d_thetas)]
    ssr = math.fsum(map(mul, resid, resid))
    return lam, math.sqrt(ssr / (len(flows) - 1) / qq)


def kyle_lambda(d_thetas: Sequence[float], flows: Sequence[float]) -> tuple[float, float] | None:
    """No-intercept least squares of log-odds changes on net flow.

    Returns (lambda_hat, stderr), or None for a degenerate window where
    every flow is zero. lambda_hat = sum(Q * dtheta) / sum(Q^2), each sum
    exactly rounded (``math.fsum``).
    """
    if len(d_thetas) != len(flows):
        raise DataError("mismatched window lengths")
    if len(flows) < 2:
        raise DataError("window needs at least 2 observations")
    return _through_origin(math.fsum([q * q for q in flows]),
                           math.fsum([q * y for q, y in zip(flows, d_thetas)]),
                           flows, d_thetas)


def rolling_kyle_lambda(
    bars: Sequence[HourBar],
    window_hours: int = DEFAULT_WINDOW_HOURS,
    step_days: int = 1,
    eps: float = DEFAULT_CLAMP_EPS,
) -> list[LambdaEstimate]:
    """Daily price-impact series from a dense hourly bar grid.

    For each estimation date T (00:00 UTC, stepping ``step_days``), the
    regression uses exactly the ``window_hours`` hourly observations before
    T. Dates without a full trailing window are withheld entirely;
    zero-flow windows yield a None estimate. Each window's estimate equals
    ``kyle_lambda`` over the window; the products Q^2 and Q * dtheta are
    formed once for all windows.
    """
    if window_hours < 2:
        raise ValueError("window must cover at least 2 hours")
    for prev, cur in zip(bars, bars[1:]):
        if cur.start - prev.start != HOUR:
            raise DataError("bar series must be a dense hourly grid")

    thetas, _ = bar_log_odds(bars, eps)
    # d_theta[k] is the change into bar k + 1, so flows[k] pairs with d_theta[k - 1].
    d_theta = [cur - prev for prev, cur in zip(thetas, thetas[1:])]
    flows = [b.flow_micro / MUSD_MICRO for b in bars]
    qq = [q * q for q in flows]
    qy = [q * y for q, y in zip(flows[1:], d_theta)]

    h0 = bars[0].start
    # First midnight where the window [T - window, T) sits fully inside the
    # grid and every window hour has a defined log-odds change (needs one
    # extra bar before the window).
    first_date = day_floor(h0 + (window_hours + 1) * HOUR + DAY - 1)
    last_hour = bars[-1].start

    out: list[LambdaEstimate] = []
    date = first_date
    while date - HOUR <= last_hour:
        lo = (date - window_hours * HOUR - h0) // HOUR
        hi = lo + window_hours  # exclusive
        fit = _through_origin(math.fsum(qq[lo:hi]), math.fsum(qy[lo - 1:hi - 1]),
                              flows[lo:hi], d_theta[lo - 1:hi - 1])
        if fit is None:
            out.append(LambdaEstimate(date, None, None, window_hours))
        else:
            lam, se = fit
            out.append(LambdaEstimate(date, lam, se, window_hours))
        date += step_days * DAY
    return out


def price_impact_delta_p(lam: float, p: float, flow_musd: float = 1.0) -> float:
    """Price-space impact of net flow via the log-odds Taylor expansion.

    d(theta)/d(p) = 1 / (p (1 - p)), so a log-odds move of lam * q shifts
    the price by approximately p (1 - p) * lam * q.
    """
    if not 0 < p < 1:
        raise ValueError("p must be inside (0, 1)")
    return p * (1 - p) * lam * flow_musd


def lambda_volume_regression(
    lambdas: Sequence[float],
    volumes: Sequence[float],
    intercept: bool = True,
) -> RegressionResult:
    """OLS of the price-impact series on average daily volume.

    Fits lambda_t = a + b * V_t (intercept optional). Reports slope and
    intercept with t-statistics, R-squared (uncentered when there is no
    intercept), adjusted R-squared, and N.
    """
    n = len(lambdas)
    if n != len(volumes):
        raise DataError("series must be date-aligned with equal length")
    if n < 3:
        raise DataError("regression needs at least 3 observations")
    y = [float(value) for value in lambdas]
    v = [float(value) for value in volumes]
    if min(v) == max(v):
        raise DataError("volume series is constant; slope is unidentified")

    fsum = math.fsum
    if intercept:
        # centred closed form: slope = Sxy / Sxx, a = mean(y) - slope * mean(v)
        mean_v, mean_y = fsum(v) / n, fsum(y) / n
        dv = [x - mean_v for x in v]
        dy = [x - mean_y for x in y]
        sxx = fsum(map(mul, dv, dv))
        slope = fsum(map(mul, dv, dy)) / sxx
        a = mean_y - slope * mean_v
        resid = [yi - a - slope * vi for vi, yi in zip(v, y)]
        tss = fsum(map(mul, dy, dy))
        dof = n - 2
    else:
        sxx = fsum(map(mul, v, v))
        slope = fsum(map(mul, v, y)) / sxx
        resid = [yi - slope * vi for vi, yi in zip(v, y)]
        tss = fsum(map(mul, y, y))
        dof = n - 1
    ssr = fsum(map(mul, resid, resid))
    s2 = ssr / dof
    se_slope = math.sqrt(s2 / sxx)
    r2 = 1.0 - ssr / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof

    def t_stat(estimate: float, se: float) -> float:
        if se == 0.0:  # perfect fit
            return math.copysign(math.inf, estimate) if estimate else 0.0
        return estimate / se

    if not intercept:
        return RegressionResult(slope, None, t_stat(slope, se_slope), None, r2, adj_r2, n)
    se_a = math.sqrt(s2 * (1.0 / n + mean_v * mean_v / sxx))
    return RegressionResult(slope, a, t_stat(slope, se_slope), t_stat(a, se_a), r2, adj_r2, n)


def rolling_avg_volume(
    days: Sequence[int],
    volumes: Sequence[float],
    window_days: int = 30,
) -> list[tuple[int, float]]:
    """Trailing mean of a dense daily volume series.

    The value reported for date T averages the ``window_days`` days before
    T (exclusive), matching the trailing convention of the price-impact
    window; the first report comes once a full window of history exists.
    """
    if len(days) != len(volumes):
        raise DataError("days and volumes differ in length")
    for prev, cur in zip(days, days[1:]):
        if cur - prev != DAY:
            raise DataError("volume series must be dense and day-aligned")
    if window_days < 1:
        raise ValueError("window must be at least 1 day")
    out: list[tuple[int, float]] = []
    for i in range(window_days, len(days) + 1):
        date = days[0] + i * DAY
        out.append((date, sum(volumes[i - window_days: i]) / window_days))
    return out
