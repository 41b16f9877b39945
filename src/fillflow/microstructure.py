"""Tick-rule signing, hourly bars, and rolling price-impact estimation.

The pipeline mirrors standard high-frequency practice adapted to a
probability-priced market: sign trades with the tick rule, aggregate to an
hourly VWAP / net-order-flow grid, move prices to log-odds so a cent move
means the same thing at 0.1 as at 0.5, and regress hourly log-odds changes
on net flow over a trailing window to get the price-impact coefficient.

Signed flow is kept in integer micro-USDC until the regression layer, so
bar construction is exact; log-odds and least squares are float. numpy is
imported inside the three least-squares functions only, so commands that
never estimate price impact start without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    most recent nonzero direction forward. Exact rational prices make the
    zero-change test exact.
    """
    out: list[SignedTrade] = []
    last_direction = 0
    prev_price: Fraction | None = None
    for point in points:
        price = point.price
        if prev_price is None or price == prev_price:
            direction = last_direction
        else:
            direction = 1 if price > prev_price else -1
            last_direction = direction
        out.append(SignedTrade(
            timestamp=point.timestamp,
            price=price,
            usdc_micro=point.usdc_micro,
            share_micro=point.share_micro,
            direction=direction,
        ))
        prev_price = price
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

    by_hour: dict[int, list[SignedTrade]] = {}
    for trade in trades:
        by_hour.setdefault(hour_floor(trade.timestamp), []).append(trade)

    first = hour_floor(trades[0].timestamp)
    last = hour_floor(trades[-1].timestamp)
    bars: list[HourBar] = []
    prev_vwap: Fraction | None = None
    for hour in range(first, last + HOUR, HOUR):
        group = by_hour.get(hour)
        if group:
            if weight == "shares":
                # share-weighted mean of usdc/share ratios = total usdc / total shares
                vwap = Fraction(sum(t.usdc_micro for t in group), sum(t.share_micro for t in group))
            else:
                num = sum(Fraction(t.usdc_micro) * t.price for t in group)
                vwap = num / sum(t.usdc_micro for t in group)
            bars.append(HourBar(
                start=hour,
                vwap=vwap,
                flow_micro=sum(t.flow_micro for t in group),
                trade_count=len(group),
                carried_forward=False,
            ))
        else:
            bars.append(HourBar(
                start=hour,
                vwap=prev_vwap,
                flow_micro=0,
                trade_count=0,
                carried_forward=True,
            ))
        prev_vwap = bars[-1].vwap
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


def kyle_lambda(d_thetas: Sequence[float], flows: Sequence[float]) -> tuple[float, float] | None:
    """No-intercept least squares of log-odds changes on net flow.

    Returns (lambda_hat, stderr), or None for a degenerate window where
    every flow is zero. lambda_hat = sum(Q * dtheta) / sum(Q^2).
    """
    import numpy as np

    if len(d_thetas) != len(flows):
        raise DataError("mismatched window lengths")
    n = len(flows)
    if n < 2:
        raise DataError("window needs at least 2 observations")
    q = np.asarray(flows, dtype=float)
    y = np.asarray(d_thetas, dtype=float)
    qq = float(q @ q)
    if qq == 0.0:
        return None
    lam = float(q @ y) / qq
    resid = y - lam * q
    s2 = float(resid @ resid) / (n - 1)
    return lam, math.sqrt(s2 / qq)


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
    zero-flow windows yield a None estimate.
    """
    import numpy as np

    if window_hours < 2:
        raise ValueError("window must cover at least 2 hours")
    for prev, cur in zip(bars, bars[1:]):
        if cur.start - prev.start != HOUR:
            raise DataError("bar series must be a dense hourly grid")

    thetas, _ = bar_log_odds(bars, eps)
    d_theta = np.diff(np.asarray(thetas))
    flows = np.asarray([b.flow_micro for b in bars], dtype=float) / MUSD_MICRO

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
        window_q = flows[lo:hi]
        window_dt = d_theta[lo - 1: hi - 1]
        fit = kyle_lambda(window_dt, window_q)
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
    import numpy as np

    n = len(lambdas)
    if n != len(volumes):
        raise DataError("series must be date-aligned with equal length")
    if n < 3:
        raise DataError("regression needs at least 3 observations")
    y = np.asarray(lambdas, dtype=float)
    v = np.asarray(volumes, dtype=float)
    if np.ptp(v) == 0.0:
        raise DataError("volume series is constant; slope is unidentified")

    x = np.column_stack([np.ones(n), v]) if intercept else v.reshape(-1, 1)
    p = x.shape[1]
    xtx = x.T @ x
    beta = np.linalg.solve(xtx, x.T @ y)
    resid = y - x @ beta
    ssr = float(resid @ resid)
    dof = n - p
    s2 = ssr / dof
    cov = s2 * np.linalg.inv(xtx)
    stderr = np.sqrt(np.diag(cov))

    if intercept:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    r2 = 1.0 - ssr / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof

    def t_stat(estimate: float, se: float) -> float:
        if se == 0.0:  # perfect fit
            return math.copysign(math.inf, estimate) if estimate else 0.0
        return estimate / se

    slope_idx = 1 if intercept else 0
    return RegressionResult(
        slope=float(beta[slope_idx]),
        intercept=float(beta[0]) if intercept else None,
        t_slope=t_stat(float(beta[slope_idx]), float(stderr[slope_idx])),
        t_intercept=t_stat(float(beta[0]), float(stderr[0])) if intercept else None,
        r2=r2,
        adj_r2=adj_r2,
        n=n,
    )


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
