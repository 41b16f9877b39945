"""Batch command-line interface: one subcommand per analysis.

Every run writes its outputs plus a ``manifest.json`` recording the
subcommand, analysis parameters, a hash of both, input digests, and the
package version. Outputs are deterministic functions of inputs and
parameters (paths excluded), so re-running a manifest reproduces its
artifacts byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 anomalous
transaction count exceeded the threshold.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import sys
from pathlib import Path

import click

from . import __version__
from .decompose import decompose_ledger, read_decomposed, write_decomposed
from .errors import ConfigError, DataError, FillflowError
from .events import (
    file_sha256,
    fill_from_record,
    fill_lines,
    group_transactions,
    load_block_times,
    load_market_config,
    read_fills,
    write_fills,
    write_market_config,
    write_table,
)
from .metrics import aggregate_components, side_measures
from .microstructure import (
    hourly_bars,
    lambda_volume_regression,
    price_impact_delta_p,
    rolling_avg_volume,
    rolling_kyle_lambda,
    sign_trades,
)
from .prices import (
    arbitrage_deviation,
    build_price_series,
    daily_net_inflow,
    rolling_inflow_correlation,
    splice_democrat_market,
)
from .traders import (
    cell_bitmask,
    collect_trader_activity,
    hourly_active_traders,
    participation_sets,
    top_decile_traders,
)
from .units import (
    DEFAULT_WINDOW_END,
    format_date,
    format_utc,
    micro_to_usd,
    parse_utc,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ANOMALIES = 4


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def guarded(fn):
    """Map package exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            _fail(EXIT_CONFIG, str(exc))
        except (FillflowError, FileNotFoundError, OSError, json.JSONDecodeError) as exc:
            _fail(EXIT_DATA, str(exc))

    return wrapper


def _utc(_ctx, _param, value):
    if value is None:
        return None
    try:
        return parse_utc(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _write_manifest(out_dir: Path, subcommand: str, params: dict, inputs: list) -> None:
    digests: dict[str, str] = {}
    for path in inputs:
        path = Path(path)
        name = path.name
        if name in digests:
            name = f"{name}#{len(digests)}"
        digests[name] = file_sha256(path)
    doc = {"subcommand": subcommand, "params": params}
    config_hash = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()
    doc.update({"configHash": config_hash, "inputs": digests, "version": __version__})
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt_float(value) -> str:
    return "" if value is None else repr(float(value))


@contextlib.contextmanager
def _gc_paused():
    """Run the block with the cyclic GC off, then exempt what it built from later collections.

    A loaded ledger is acyclic tuples, ints and strings: collecting while it
    loads finds nothing, and after ``gc.freeze`` later collections skip it.
    The GC's prior state is restored also when the block raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


def _load_transactions(inputs, markets_path):
    with _gc_paused():
        fills = []
        for path in inputs:
            fills.extend(read_fills(path))
        transactions = group_transactions(fills)
    markets = load_market_config(markets_path)
    return transactions, markets


def _check_range(start, end):
    if start is not None and end is not None and start >= end:
        raise ConfigError("date range start must be before end")


def _clip(transactions, start, end):
    _check_range(start, end)
    if start is None and end is None:
        return transactions
    lo = start if start is not None else float("-inf")
    hi = end if end is not None else float("inf")
    return [tx for tx in transactions if lo <= tx.timestamp < hi]


def _find_market(markets, name):
    for market in markets:
        if market.candidate == name:
            return market
    raise ConfigError(f"market {name!r} not in the configuration "
                      f"({', '.join(m.candidate for m in markets)})")


def _parse_excludes(value: str | None) -> list[str]:
    if not value:
        return []
    if value.startswith("@"):
        try:
            text = Path(value[1:]).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"--exclude-addresses file {value[1:]}: not valid UTF-8: {exc}") from exc
        return [line.strip() for line in text.splitlines() if line.strip()]
    return [item.strip() for item in value.split(",") if item.strip()]


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
def main():
    """Reconstruct prediction-market activity from fill-event ledgers."""


# ---------------------------------------------------------------- ingest


@main.command()
@click.option("--input", "inputs", multiple=True, type=click.Path(exists=True),
              help="Ledger shard (JSONL or CSV); repeatable.")
@click.option("--endpoint", help="Optional log endpoint to fetch from.")
@click.option("--from-block", type=int, help="Fetch range start (inclusive).")
@click.option("--to-block", type=int, help="Fetch range end (exclusive).")
@click.option("--page-size", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--checkpoint", type=click.Path(), help="Checkpoint file for resumable fetch.")
@click.option("--block-times", type=click.Path(exists=True),
              help="Block->timestamp sidecar JSON for records without timestamps.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@guarded
def ingest(inputs, endpoint, from_block, to_block, page_size, checkpoint,
           block_times, fmt, out):
    """Parse, validate, merge, and normalize fill ledgers."""
    if not inputs and not endpoint:
        raise ConfigError("nothing to ingest: give --input and/or --endpoint")
    if endpoint and (from_block is None or to_block is None):
        raise ConfigError("--endpoint needs --from-block and --to-block")
    block_map = load_block_times(block_times) if block_times else None
    fills = []
    with _gc_paused():
        for path in inputs:
            fills.extend(read_fills(path, block_times=block_map))
    out_dir = _out_dir(out)
    spool = out_dir / "fetched.jsonl"
    if endpoint:
        from .fetch import fetch_event_logs

        def encode(record):
            return next(fill_lines([fill_from_record(record, block_times=block_map)]))

        fetch_event_logs(endpoint, from_block, to_block, spool, encode, page_size,
                         checkpoint_path=checkpoint)
    with _gc_paused():
        if endpoint:
            fills.extend(read_fills(spool))
        transactions = group_transactions(fills)
    ordered = [fill for tx in transactions for fill in tx.fills]

    target = out_dir / ("fills.csv" if fmt == "csv" else "fills.jsonl")
    write_fills(target, ordered, fmt)
    _write_manifest(out_dir, "ingest",
                    {"format": fmt, "endpoint": endpoint, "fromBlock": from_block,
                     "toBlock": to_block, "pageSize": page_size},
                    list(inputs) + ([block_times] if block_times else []))
    click.echo(f"ingested {len(ordered)} fills in {len(transactions)} transactions -> {target}")


# ---------------------------------------------------------------- decompose


@main.command()
@click.option("--input", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--markets", "markets_path", required=True, type=click.Path(exists=True))
@click.option("--from", "start", callback=_utc, help="ISO-8601 UTC inclusive start.")
@click.option("--to", "end", callback=_utc, help="ISO-8601 UTC exclusive end.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--max-anomalies", type=click.IntRange(min=0), default=None,
              help="Fail with exit code 4 when more transactions are quarantined.")
@click.option("--out", required=True, type=click.Path())
@guarded
def decompose(inputs, markets_path, start, end, fmt, max_anomalies, out):
    """Decompose transactions into the six volume components."""
    transactions, markets = _load_transactions(inputs, markets_path)
    transactions = _clip(transactions, start, end)
    rows, anomalies = decompose_ledger(transactions, markets)

    out_dir = _out_dir(out)
    target = out_dir / ("decomposed.csv" if fmt == "csv" else "decomposed.jsonl")
    write_decomposed(target, rows, fmt)
    if anomalies:
        write_table(out_dir / "quarantine.jsonl",
                    ["block", "txIndex", "timestamp", "market", "reason"], anomalies, "jsonl")
    _write_manifest(out_dir, "decompose",
                    {"format": fmt, "from": start, "to": end,
                     "maxAnomalies": max_anomalies},
                    list(inputs) + [markets_path])
    click.echo(f"decomposed {len(rows)} rows from {len(transactions)} transactions; "
               f"{len(anomalies)} quarantined -> {target}")
    if max_anomalies is not None and len(anomalies) > max_anomalies:
        _fail(EXIT_ANOMALIES,
              f"{len(anomalies)} anomalous transactions exceed threshold {max_anomalies}")


# ---------------------------------------------------------------- metrics


@main.command()
@click.option("--input", "inputs", multiple=True, required=True, type=click.Path(exists=True),
              help="Decomposed ledger (CSV or JSONL) from the decompose step.")
@click.option("--market", required=True)
@click.option("--side", type=click.Choice(["yes", "no", "combined", "all"]), default="all",
              show_default=True)
@click.option("--partition", type=click.Choice(["hour", "day", "month"]), default="month",
              show_default=True)
@click.option("--from", "start", callback=_utc)
@click.option("--to", "end", callback=_utc)
@click.option("--dense", is_flag=True, help="Emit empty intervals with zero totals.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", required=True, type=click.Path())
@guarded
def metrics(inputs, market, side, partition, start, end, dense, fmt, out):
    """Exchange-equivalent volume, net inflow, and gross activity per interval."""
    _check_range(start, end)
    records = [row for path in inputs for row in read_decomposed(path)]
    present = {r.market for r in records}
    if market not in present:
        raise DataError(f"market {market!r} has no rows in the decomposed table "
                        f"(markets present: {', '.join(sorted(present)) or 'none'})")
    totals = aggregate_components(records, partition, market=market,
                                  dense=dense, start=start, end=end)
    sides = ["yes", "no", "combined"] if side == "all" else [side]
    fieldnames = ["interval"]
    for s in sides:
        fieldnames += [f"{s}VE", f"{s}F", f"{s}VG"]
    rows = []
    for t in totals:
        row = [_interval_label(t.start, partition)]
        for s in sides:
            row += map(micro_to_usd, side_measures(t.side(s)))
        rows.append(row)

    out_dir = _out_dir(out)
    target = out_dir / ("metrics.csv" if fmt == "csv" else "metrics.jsonl")
    write_table(target, fieldnames, rows, fmt)
    _write_manifest(out_dir, "metrics",
                    {"market": market, "side": side, "partition": partition,
                     "from": start, "to": end, "dense": dense, "format": fmt},
                    list(inputs))
    click.echo(f"{len(rows)} intervals -> {target}")


def _interval_label(ts: int, partition: str) -> str:
    if partition == "hour":
        return format_utc(ts)
    if partition == "day":
        return format_date(ts)
    return format_date(ts)[:7]


# ---------------------------------------------------------------- deviation


@main.command()
@click.option("--input", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--markets", "markets_path", required=True, type=click.Path(exists=True))
@click.option("--market", required=True)
@click.option("--grid-step", type=click.IntRange(min=1), default=3600, show_default=True,
              help="Grid step in seconds.")
@click.option("--max-staleness", type=click.IntRange(min=0), default=None,
              help="Drop grid points where either leg's last trade is older (seconds).")
@click.option("--from", "start", callback=_utc)
@click.option("--to", "end", callback=_utc)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", required=True, type=click.Path())
@guarded
def deviation(inputs, markets_path, market, grid_step, max_staleness, start, end, fmt, out):
    """Arbitrage deviation p_yes + p_no - 1 on a carry-forward price grid."""
    transactions, markets = _load_transactions(inputs, markets_path)
    transactions = _clip(transactions, start, end)
    spec = _find_market(markets, market)
    yes_series = build_price_series(transactions, spec.yes_token_id)
    no_series = build_price_series(transactions, spec.no_token_id)
    points = arbitrage_deviation(yes_series, no_series, grid_step)
    if max_staleness is not None:
        points = [p for p in points
                  if max(p.yes_staleness, p.no_staleness) <= max_staleness]

    rows = [(format_utc(t), repr(delta), repr(p_yes), repr(p_no), yes_staleness, no_staleness)
            for t, delta, p_yes, p_no, yes_staleness, no_staleness in points]
    out_dir = _out_dir(out)
    target = out_dir / ("deviation.csv" if fmt == "csv" else "deviation.jsonl")
    write_table(target, ["timestamp", "delta", "pYes", "pNo", "yesStaleness", "noStaleness"],
                rows, fmt)
    _write_manifest(out_dir, "deviation",
                    {"market": market, "gridStep": grid_step,
                     "maxStaleness": max_staleness, "from": start, "to": end,
                     "format": fmt},
                    list(inputs) + [markets_path])
    click.echo(f"{len(rows)} grid points -> {target}")


# ---------------------------------------------------------------- disagreement


@main.command()
@click.option("--input", "inputs", multiple=True, required=True, type=click.Path(exists=True),
              help="Decomposed ledger covering all involved markets.")
@click.option("--market-a", default="Trump", show_default=True)
@click.option("--first-democrat", default="Biden", show_default=True)
@click.option("--second-democrat", default="Harris", show_default=True)
@click.option("--splice-day", default="2024-07-21", show_default=True)
@click.option("--side", type=click.Choice(["yes", "no"]), default="yes", show_default=True)
@click.option("--corr-window-days", type=click.IntRange(min=2), default=90, show_default=True)
@click.option("--step-days", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--from", "start", callback=_utc)
@click.option("--to", "end", callback=_utc)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", required=True, type=click.Path())
@guarded
def disagreement(inputs, market_a, first_democrat, second_democrat, splice_day, side,
                 corr_window_days, step_days, start, end, fmt, out):
    """Rolling correlation of daily net inflow: one market vs a spliced pair."""
    _check_range(start, end)
    records = [row for path in inputs for row in read_decomposed(path)]
    series_a = daily_net_inflow(records, market_a, side, start=start, end=end)
    series_b = splice_democrat_market(records, first_democrat, second_democrat,
                                      splice_day, side, start=start, end=end)
    correlation = rolling_inflow_correlation(series_a, series_b,
                                             corr_window_days, step_days)

    out_dir = _out_dir(out)
    inflow_rows = []
    b_by_day = dict(zip(series_b.days, series_b.values))
    for day, value in zip(series_a.days, series_a.values):
        if day in b_by_day:
            inflow_rows.append((format_date(day), micro_to_usd(value),
                                micro_to_usd(b_by_day[day])))
    suffix = "csv" if fmt == "csv" else "jsonl"
    write_table(out_dir / f"inflows.{suffix}",
                ["day", f"{market_a}F", "democratF"], inflow_rows, fmt)
    corr_rows = [(format_date(day), _fmt_float(value)) for day, value in correlation]
    write_table(out_dir / f"correlation.{suffix}",
                ["day", "correlation"], corr_rows, fmt)
    _write_manifest(out_dir, "disagreement",
                    {"marketA": market_a, "firstDemocrat": first_democrat,
                     "secondDemocrat": second_democrat, "spliceDay": splice_day,
                     "side": side, "corrWindowDays": corr_window_days,
                     "stepDays": step_days, "from": start, "to": end, "format": fmt},
                    list(inputs))
    click.echo(f"{len(corr_rows)} correlation points -> {out_dir}")


# ---------------------------------------------------------------- lambda


@main.command(name="lambda")
@click.option("--input", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--markets", "markets_path", required=True, type=click.Path(exists=True))
@click.option("--market", required=True)
@click.option("--side", type=click.Choice(["yes", "no"]), default="yes", show_default=True)
@click.option("--window-hours", type=click.IntRange(min=2), default=720, show_default=True)
@click.option("--step-days", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--weight", type=click.Choice(["shares", "usd"]), default="shares",
              show_default=True, help="VWAP weight convention.")
@click.option("--clamp-eps", type=click.FloatRange(0, 0.5, min_open=True, max_open=True),
              default=1e-6, show_default=True)
@click.option("--vol-window-days", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--no-intercept", is_flag=True,
              help="Drop the intercept from the lambda-on-volume regression.")
@click.option("--from", "start", callback=_utc)
@click.option("--to", "end", callback=_utc)
@click.option("--out", required=True, type=click.Path())
@guarded
def lambda_(inputs, markets_path, market, side, window_hours, step_days, weight,
            clamp_eps, vol_window_days, no_intercept, start, end, out):
    """Rolling price-impact estimates and the impact-on-volume regression."""
    transactions, markets = _load_transactions(inputs, markets_path)
    transactions = _clip(transactions, start, end)
    spec = _find_market(markets, market)
    token = spec.yes_token_id if side == "yes" else spec.no_token_id

    points = build_price_series(transactions, token)
    if not points:
        raise DataError(f"no trades for {market} {side.upper()}")
    bars = hourly_bars(sign_trades(points), weight)
    estimates = rolling_kyle_lambda(bars, window_hours, step_days, clamp_eps)

    decomposed, anomalies = decompose_ledger(transactions, markets)
    if anomalies:
        click.echo(f"warning: {len(anomalies)} anomalous transactions skipped", err=True)
    daily = aggregate_components(decomposed, "day", market=market, dense=True)
    volume_by_date: dict[int, float] = {}
    if daily:
        days = [t.start for t in daily]
        volumes = [side_measures(t.side(side)).v_e / 10**12 for t in daily]
        volume_by_date = dict(rolling_avg_volume(days, volumes, vol_window_days))

    rows = [(format_date(e.date), _fmt_float(e.value), _fmt_float(e.stderr), e.n_obs,
             _fmt_float(volume_by_date.get(e.date))) for e in estimates]
    out_dir = _out_dir(out)
    write_table(out_dir / "lambda.csv", ["date", "lambda", "se", "n", "avgVolume"],
                rows, "csv")

    paired = [(e.value, volume_by_date[e.date]) for e in estimates
              if e.value is not None and e.date in volume_by_date]
    regression = None
    if len(paired) >= 3 and len({v for _, v in paired}) > 1:
        fit = lambda_volume_regression([p[0] for p in paired], [p[1] for p in paired],
                                       intercept=not no_intercept)
        regression = {
            "slope": fit.slope, "intercept": fit.intercept,
            "tSlope": fit.t_slope, "tIntercept": fit.t_intercept,
            "r2": fit.r2, "adjR2": fit.adj_r2, "n": fit.n,
        }
    with open(out_dir / "lambda_regression.json", "w", encoding="utf-8") as fh:
        json.dump({"regression": regression}, fh, sort_keys=True, indent=2)
        fh.write("\n")

    _write_manifest(out_dir, "lambda",
                    {"market": market, "side": side, "windowHours": window_hours,
                     "stepDays": step_days, "weight": weight, "clampEps": clamp_eps,
                     "volWindowDays": vol_window_days, "noIntercept": no_intercept,
                     "from": start, "to": end},
                    list(inputs) + [markets_path])
    click.echo(f"{len(rows)} estimates -> {out_dir / 'lambda.csv'}")


# ---------------------------------------------------------------- impact


@main.command()
@click.option("--lam", "lam", type=float, required=True,
              help="Price impact in log-odds per million USD.")
@click.option("--price", type=float, required=True)
@click.option("--flow", type=float, default=1.0, show_default=True,
              help="Net signed flow in million USD.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@guarded
def impact(lam, price, flow, fmt):
    """Convert a price-impact coefficient into a price move."""
    if not 0 < price < 1:
        raise ConfigError("--price must be inside (0, 1)")
    delta_p = price_impact_delta_p(lam, price, flow)
    if fmt == "json":
        click.echo(json.dumps({"lambda": lam, "price": price, "flow": flow,
                               "deltaP": delta_p}, sort_keys=True))
    else:
        click.echo(f"delta_p = {delta_p!r}")


# ---------------------------------------------------------------- traders


@main.command(name="traders")
@click.option("--input", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--markets", "markets_path", required=True, type=click.Path(exists=True))
@click.option("--quarter", help="Calendar quarter like 2024Q4 (capped at the sample end).")
@click.option("--from", "start", callback=_utc)
@click.option("--to", "end", callback=_utc)
@click.option("--by", type=click.Choice(["volume", "frequency"]), default="volume",
              show_default=True)
@click.option("--exclude-addresses", default="",
              help="Comma-separated addresses, or @file with one per line.")
@click.option("--per-market", is_flag=True,
              help="Count hourly activity once per (trader, market) instead of per trader.")
@click.option("--out", required=True, type=click.Path())
@guarded
def traders_cmd(inputs, markets_path, quarter, start, end, by, exclude_addresses,
                per_market, out):
    """Hourly activity profile, top-decile traders, and participation cells."""
    transactions, markets = _load_transactions(inputs, markets_path)
    if quarter:
        q_start, q_end = _quarter_bounds(quarter, end)
        start = q_start if start is None else max(start, q_start)
        end = q_end if end is None else min(end, q_end)
    if (start is None or end is None) and not transactions:
        raise DataError("the ledger has no transactions to take the window bounds from; "
                        "give --from and --to, or --quarter")
    if start is None:
        start = min(tx.timestamp for tx in transactions)
    if end is None:
        end = max(tx.timestamp for tx in transactions) + 1
    window = _clip(transactions, start, end)
    exclude = _parse_excludes(exclude_addresses)

    out_dir = _out_dir(out)
    activity = collect_trader_activity(window, markets, exclude)
    hourly = hourly_active_traders(activity, start, end, per_market=per_market)
    write_table(out_dir / "hourly.csv", ["hour", "meanActiveTraders"],
                [(h, _fmt_float(v)) for h, v in enumerate(hourly)], "csv")

    try:
        top = top_decile_traders(activity, by)
    except DataError as exc:
        top = []
        click.echo(f"warning: {exc}", err=True)
    (out_dir / "top_decile.txt").write_text("".join(a + "\n" for a in top), encoding="utf-8")

    cells, marginals, candidate_cells = participation_sets(activity)
    write_table(out_dir / "participation.csv",
                ["bitmask", "markets", "count", "sharePct"],
                [(cell_bitmask(c.markets, markets), "|".join(sorted(c.markets)), c.count,
                  _fmt_float(c.share)) for c in cells], "csv")
    write_table(out_dir / "marginals.csv", ["market", "sharePct"],
                [(name, _fmt_float(pct)) for name, pct in marginals.items()], "csv")
    write_table(out_dir / "candidate_overlap.csv", ["candidates", "count", "sharePct"],
                [("|".join(sorted(c.markets)), c.count, _fmt_float(c.share))
                 for c in candidate_cells], "csv")

    _write_manifest(out_dir, "traders",
                    {"quarter": quarter, "from": start, "to": end, "by": by,
                     "excludeAddresses": sorted(exclude), "perMarket": per_market},
                    list(inputs) + [markets_path])
    click.echo(f"{len(cells)} participation cells -> {out_dir}")


def _quarter_bounds(quarter: str, explicit_end: int | None) -> tuple[int, int]:
    try:
        year, number = quarter.upper().split("Q")
        year, number = int(year), int(number)
        if not 1 <= number <= 4:
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad quarter {quarter!r}; expected e.g. 2024Q4")
    start_month = 3 * (number - 1) + 1
    start = parse_utc(f"{year:04d}-{start_month:02d}-01")
    if number == 4:
        end = parse_utc(f"{year + 1:04d}-01-01")
    else:
        end = parse_utc(f"{year:04d}-{start_month + 3:02d}-01")
    cutoff = explicit_end if explicit_end is not None else parse_utc(DEFAULT_WINDOW_END)
    if start < cutoff < end:
        end = cutoff
    return start, end


# ---------------------------------------------------------------- simulate


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, help="Override the scenario seed.")
@click.option("--out", required=True, type=click.Path())
@guarded
def simulate(scenario_path, seed, out):
    """Generate a synthetic ledger plus its ground-truth sidecar."""
    from .synthetic import generate_synthetic_ledger, load_scenario

    scenario = load_scenario(scenario_path, seed=seed)
    ledger = generate_synthetic_ledger(scenario)

    out_dir = _out_dir(out)
    write_fills(out_dir / "fills.jsonl", ledger.fills)
    write_decomposed(out_dir / "ground_truth.jsonl", ledger.truth, "jsonl")
    write_market_config(out_dir / "markets.json", ledger.markets)
    meta = {
        "exchangeAddress": ledger.exchange_address,
        "transactions": ledger.transaction_count(),
        "fills": len(ledger.fills),
        "arbitrageEvents": [
            {"timestamp": e.timestamp, "market": e.market, "action": e.action,
             "quantity": e.quantity, "deltaBefore": e.delta_before,
             "deltaAfter": e.delta_after}
            for e in ledger.arbitrage_events
        ],
        "seed": scenario.seed,
    }
    with open(out_dir / "simulation.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out_dir, "simulate", {"seed": scenario.seed}, [scenario_path])
    click.echo(f"{ledger.transaction_count()} transactions, {len(ledger.fills)} fills -> {out_dir}")


if __name__ == "__main__":
    main()
