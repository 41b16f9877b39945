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

import functools
import gc
import hashlib
import json
import math
import sys
from pathlib import Path

import click

from . import __version__
from .decompose import decompose_ledger, read_decomposed, write_decomposed
from .errors import ConfigError, DataError, FillflowError, ParseError, SchemaError
from .events import (_INPUT_DIGESTS, _load_text, fill_from_record, fill_lines,
                     group_transactions, load_block_times, load_market_config, read_fills,
                     write_fills, write_market_config, write_table)
from .metrics import aggregate_components, side_measures
from .microstructure import (hourly_bars, lambda_volume_regression, price_impact_delta_p,
                             rolling_avg_volume, rolling_kyle_lambda, sign_trades)
from .prices import (arbitrage_deviation, build_price_series, daily_net_inflow,
                     rolling_inflow_correlation, splice_democrat_market)
from .traders import (collect_trader_activity, hourly_active_traders, participation_sets,
                      top_decile_traders)
from .units import DAY, DEFAULT_WINDOW_END, format_date, format_utc, micro_to_usd, parse_utc

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ANOMALIES = 4


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir: Path, subcommand: str, params: dict, inputs: list) -> None:
    """Write ``manifest.json``, with the digest of the bytes the command read from each of
    its ``inputs``: the digests its readers recorded, so no input is opened again."""
    digests: dict[str, str] = {}
    for path in inputs:
        name = Path(path).name
        name = f"{name}#{len(digests)}" if name in digests else name
        digests[name] = _INPUT_DIGESTS[str(path)]
    doc = {"subcommand": subcommand, "params": params}
    config_hash = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
    doc.update({"configHash": config_hash, "inputs": digests, "version": __version__})
    _write_json(out_dir / "manifest.json", doc)


# The options that name a command's input files, in the order its manifest lists them; the
# options recorded under another key; and the options no manifest records.
_INPUT_OPTIONS = ("inputs", "markets_path", "block_times", "scenario_path")
_PARAM_KEYS = {"fmt": "format", "start": "from", "end": "to"}
_UNRECORDED = {"out", "checkpoint", *_INPUT_OPTIONS}


def _finish(artifacts, **resolved) -> Path:
    """Write the running command's ``--out`` directory: each ``(name, write, *args)`` artifact
    as ``write(out_dir / name, *args)``, then ``manifest.json``, the last file of a run.

    The manifest takes the subcommand and its options from the parsed command line: the files
    its input options name, and every other option but ``--out`` and ``--checkpoint``, keyed
    in camelCase. ``resolved`` holds the option values the command worked out for itself,
    recorded in place of the given ones. Returns the directory.
    """
    ctx = click.get_current_context()
    options = {**ctx.params, **resolved}
    out_dir = Path(options["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write, *args in artifacts:
        write(out_dir / name, *args)
    inputs = [*options.get("inputs", ()), *filter(None, map(options.get, _INPUT_OPTIONS[1:]))]
    params = {_PARAM_KEYS.get(key) or _camel(key): value
              for key, value in options.items() if key not in _UNRECORDED}
    _write_manifest(out_dir, ctx.info_name, params, inputs)
    return out_dir


def _camel(name: str) -> str:
    head, *words = name.split("_")
    return head + "".join(word.capitalize() for word in words)


def _fmt_float(value) -> str:
    return "" if value is None else repr(float(value))


def _read_table(read, path, *args):
    """``read(path, *args)``; a ParseError or SchemaError it raises names ``path`` as given."""
    try:
        return read(path, *args)
    except (ParseError, SchemaError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _load_transactions(inputs, markets_path=None, block_times=None):
    """The transactions of every ledger in ``inputs``, read in order with the ``block_times``
    sidecar, and the market config at ``markets_path`` (None without one)."""
    fills = []
    for path in inputs:
        fills.extend(_read_table(read_fills, path, block_times))
    return group_transactions(fills), load_market_config(markets_path) if markets_path else None


def _load_decomposed(inputs):
    """The rows of every decomposed table in ``inputs``, read in order."""
    return [row for path in inputs for row in _read_table(read_decomposed, path)]


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


def _parse_excludes(value: str) -> list[str]:
    """Comma-separated addresses, or ``@FILE`` with one per line."""
    items = value.split(",")
    if value.startswith("@"):
        try:
            items = _load_text(value[1:], str.splitlines)
        except ParseError as exc:  # a byte that is not UTF-8, named by its line
            raise ConfigError(f"--exclude-addresses file {value[1:]}: {exc}") from exc
        except OSError as exc:  # missing or unreadable: a bad option value, as for --input
            raise ConfigError(f"--exclude-addresses file {value[1:]}: {exc.strerror}") from exc
    return [item.strip() for item in items if item.strip()]


@click.group(context_settings={"help_option_names": ["-h", "--help"],
                               "show_default": True})
@click.version_option(__version__)
def main():
    """Reconstruct prediction-market activity from fill-event ledgers."""


def _command(name=None):
    """Register the function as subcommand ``name`` of ``main``, mapping package exceptions
    onto the documented exit codes.

    The command runs with the cyclic garbage collector off: what it builds (ledgers, tables,
    series) is acyclic, so no collection could free any of it. On every exit, what the
    process still holds is frozen, so the collection at interpreter exit skips it (about
    12 ms of CPU per command on a 2-vCPU VM), and the collector's prior state is restored.
    """
    def register(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            enabled = gc.isenabled()
            gc.disable()
            try:
                return fn(*args, **kwargs)
            except ConfigError as exc:
                _fail(EXIT_CONFIG, str(exc))
            except (FillflowError, OSError, json.JSONDecodeError) as exc:
                _fail(EXIT_DATA, str(exc))
            finally:
                gc.freeze()
                if enabled:
                    gc.enable()
        return main.command(name)(guarded)
    return register


# Options shared by subcommands; a command passes the help text, type or default it shows.
_inputs = functools.partial(click.option, "--input", "inputs", multiple=True, required=True,
                            type=click.Path(exists=True))
_markets = functools.partial(click.option, "--markets", "markets_path", required=True,
                             type=click.Path(exists=True))
_market = functools.partial(click.option, "--market", required=True)
_step_days = functools.partial(click.option, "--step-days", type=click.IntRange(min=1), default=1)
_format = functools.partial(click.option, "--format", "fmt", type=click.Choice(["csv", "json"]),
                            default="csv")
_out = functools.partial(click.option, "--out", required=True, type=click.Path())


def _utc(_ctx, _param, value):
    """Option callback: ISO-8601 UTC text parsed to epoch seconds; other text exits 2."""
    try:
        return None if value is None else parse_utc(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _finite(_ctx, _param, value):
    """Option callback: a number, which must be finite; NaN or an infinity exits 2."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number")
    return value


def _utc_text(ctx, param, value):
    """Option callback: the text as given, once ``_utc`` accepts it."""
    _utc(ctx, param, value)
    return value


def _window(help_from=None, help_to=None):
    """``--from`` and ``--to`` as ``start`` and ``end``, ISO-8601 UTC parsed to epoch seconds."""
    def decorate(fn):
        fn = click.option("--to", "end", callback=_utc, help=help_to)(fn)
        return click.option("--from", "start", callback=_utc, help=help_from)(fn)
    return decorate


def _suffix(fmt: str) -> str:
    return "csv" if fmt == "csv" else "jsonl"


@_command()
@_inputs(help="Ledger shard (JSONL or CSV); repeatable.", required=False)
@click.option("--endpoint", help="Optional log endpoint to fetch from.")
@click.option("--from-block", type=int, help="Fetch range start (inclusive).")
@click.option("--to-block", type=int, help="Fetch range end (exclusive).")
@click.option("--page-size", type=click.IntRange(min=1), default=1000)
@click.option("--checkpoint", type=click.Path(), help="Checkpoint file for resumable fetch.")
@click.option("--block-times", type=click.Path(exists=True),
              help="Block->timestamp sidecar JSON for records without timestamps.")
@_format(type=click.Choice(["jsonl", "csv"]), default="jsonl")
@_out(help="Output directory.")
def ingest(inputs, endpoint, from_block, to_block, page_size, checkpoint, block_times, fmt, out):
    """Parse, validate, merge, and normalize fill ledgers."""
    if not inputs and not endpoint:
        raise ConfigError("nothing to ingest: give --input and/or --endpoint")
    if endpoint and (from_block is None or to_block is None):
        raise ConfigError("--endpoint needs --from-block and --to-block")
    block_map = load_block_times(block_times) if block_times else None

    def ledgers():  # every shard is parsed before the endpoint is contacted
        yield from inputs
        if endpoint:
            from .fetch import fetch_event_logs

            def encode(record):
                return next(fill_lines([fill_from_record(record, block_times=block_map)]))

            spool = Path(out, "fetched.jsonl")
            spool.parent.mkdir(parents=True, exist_ok=True)
            fetch_event_logs(endpoint, from_block, to_block, spool, encode, page_size,
                             checkpoint_path=checkpoint)
            yield spool

    transactions, _ = _load_transactions(ledgers(), block_times=block_map)
    ordered = [fill for tx in transactions for fill in tx.fills]
    name = f"fills.{_suffix(fmt)}"
    out_dir = _finish([(name, write_fills, ordered, fmt)])
    click.echo(f"ingested {len(ordered)} fills in {len(transactions)} transactions "
               f"-> {out_dir / name}")


@_command()
@_inputs()
@_markets()
@_window("ISO-8601 UTC inclusive start.", "ISO-8601 UTC exclusive end.")
@_format()
@click.option("--max-anomalies", type=click.IntRange(min=0), default=None,
              help="Fail with exit code 4 when more transactions are quarantined.")
@_out()
def decompose(inputs, markets_path, start, end, fmt, max_anomalies, out):
    """Decompose transactions into the six volume components."""
    transactions, markets = _load_transactions(inputs, markets_path)
    transactions = _clip(transactions, start, end)
    rows, anomalies = decompose_ledger(transactions, markets)

    name = f"decomposed.{_suffix(fmt)}"
    quarantine = ("quarantine.jsonl", write_table,
                  ["block", "txIndex", "timestamp", "market", "reason"], anomalies, "jsonl")
    out_dir = _finish([(name, write_decomposed, rows, fmt), *([quarantine] if anomalies else [])])
    click.echo(f"decomposed {len(rows)} rows from {len(transactions)} transactions; "
               f"{len(anomalies)} quarantined -> {out_dir / name}")
    if max_anomalies is not None and len(anomalies) > max_anomalies:
        _fail(EXIT_ANOMALIES,
              f"{len(anomalies)} anomalous transactions exceed threshold {max_anomalies}")


@_command()
@_inputs(help="Decomposed ledger (CSV or JSONL) from the decompose step.")
@_market()
@click.option("--side", type=click.Choice(["yes", "no", "combined", "all"]), default="all")
@click.option("--partition", type=click.Choice(["hour", "day", "month"]), default="month")
@_window()
@click.option("--dense", is_flag=True, help="Emit empty intervals with zero totals.")
@_format()
@_out()
def metrics(inputs, market, side, partition, start, end, dense, fmt, out):
    """Exchange-equivalent volume, net inflow, and gross activity per interval."""
    _check_range(start, end)
    records = _load_decomposed(inputs)
    present = {r.market for r in records}
    if market not in present:
        raise DataError(f"market {market!r} has no rows in the decomposed table "
                        f"(markets present: {', '.join(sorted(present)) or 'none'})")
    totals = aggregate_components(records, partition, market=market,
                                  dense=dense, start=start, end=end)
    label = {"hour": format_utc, "day": format_date}.get(partition, lambda ts: format_date(ts)[:7])
    sides = ["yes", "no", "combined"] if side == "all" else [side]
    fields = ["interval", *(f"{s}{m}" for s in sides for m in ("VE", "F", "VG"))]
    zero = [micro_to_usd(0)] * (3 * len(sides))  # the cells of each interval without components
    rows = []
    for t in totals:
        cells = zero if t.yes == t.no == (0, 0, 0) else [
            cell for s in sides for cell in map(micro_to_usd, side_measures(t.side(s)))]
        rows.append([label(t.start), *cells])

    name = f"metrics.{_suffix(fmt)}"
    out_dir = _finish([(name, write_table, fields, rows, fmt)])
    click.echo(f"{len(rows)} intervals -> {out_dir / name}")


@_command()
@_inputs()
@_markets()
@_market()
@click.option("--grid-step", type=click.IntRange(min=1), default=3600,
              help="Grid step in seconds.")
@click.option("--max-staleness", type=click.IntRange(min=0), default=None,
              help="Drop grid points where either leg's last trade is older (seconds).")
@_window()
@_format()
@_out()
def deviation(inputs, markets_path, market, grid_step, max_staleness, start, end, fmt, out):
    """Arbitrage deviation p_yes + p_no - 1 on a carry-forward price grid."""
    transactions, markets = _load_transactions(inputs, markets_path)
    transactions = _clip(transactions, start, end)
    spec = _find_market(markets, market)
    points = arbitrage_deviation(build_price_series(transactions, spec.yes_token_id),
                                 build_price_series(transactions, spec.no_token_id), grid_step)
    if max_staleness is not None:
        points = [p for p in points if max(p.yes_staleness, p.no_staleness) <= max_staleness]

    rows = [(format_utc(t), repr(delta), repr(p_yes), repr(p_no), yes_staleness, no_staleness)
            for t, delta, p_yes, p_no, yes_staleness, no_staleness in points]
    name = f"deviation.{_suffix(fmt)}"
    out_dir = _finish([(name, write_table, ["timestamp", "delta", "pYes", "pNo", "yesStaleness",
                                            "noStaleness"], rows, fmt)])
    click.echo(f"{len(rows)} grid points -> {out_dir / name}")


@_command()
@_inputs(help="Decomposed ledger covering all involved markets.")
@click.option("--market-a", default="Trump")
@click.option("--first-democrat", default="Biden")
@click.option("--second-democrat", default="Harris")
@click.option("--splice-day", default="2024-07-21", callback=_utc_text)
@click.option("--side", type=click.Choice(["yes", "no"]), default="yes")
@click.option("--corr-window-days", type=click.IntRange(min=2), default=90)
@_step_days()
@_window()
@_format()
@_out()
def disagreement(inputs, market_a, first_democrat, second_democrat, splice_day, side,
                 corr_window_days, step_days, start, end, fmt, out):
    """Rolling correlation of daily net inflow: one market vs a spliced pair."""
    _check_range(start, end)
    records = _load_decomposed(inputs)
    series_a = daily_net_inflow(records, market_a, side, start=start, end=end)
    series_b = splice_democrat_market(records, first_democrat, second_democrat,
                                      splice_day, side, start=start, end=end)
    correlation = rolling_inflow_correlation(series_a, series_b, corr_window_days, step_days)

    b_by_day = dict(zip(series_b.days, series_b.values))
    inflow_rows = [(format_date(day), micro_to_usd(value), micro_to_usd(b_by_day[day]))
                   for day, value in zip(series_a.days, series_a.values) if day in b_by_day]
    corr_rows = [(format_date(day), _fmt_float(value)) for day, value in correlation]
    suffix = _suffix(fmt)
    out_dir = _finish([
        (f"inflows.{suffix}", write_table, ["day", f"{market_a}F", "democratF"], inflow_rows,
         fmt),
        (f"correlation.{suffix}", write_table, ["day", "correlation"], corr_rows, fmt)])
    click.echo(f"{len(corr_rows)} correlation points -> {out_dir}")


@_command("lambda")
@_inputs()
@_markets()
@_market()
@click.option("--side", type=click.Choice(["yes", "no"]), default="yes")
@click.option("--window-hours", type=click.IntRange(min=2), default=720)
@_step_days()
@click.option("--weight", type=click.Choice(["shares", "usd"]), default="shares",
              help="VWAP weight convention.")
@click.option("--clamp-eps", type=click.FloatRange(0, 0.5, min_open=True, max_open=True),
              default=1e-6, callback=_finite)
@click.option("--vol-window-days", type=click.IntRange(min=1), default=30)
@click.option("--no-intercept", is_flag=True,
              help="Drop the intercept from the lambda-on-volume regression.")
@_window()
@_out()
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
    volume_by_date = dict(rolling_avg_volume(
        [t.start for t in daily], [side_measures(t.side(side)).v_e / 10**12 for t in daily],
        vol_window_days))

    rows = [(format_date(e.date), _fmt_float(e.value), _fmt_float(e.stderr), e.n_obs,
             _fmt_float(volume_by_date.get(e.date))) for e in estimates]
    paired = [(e.value, volume_by_date[e.date]) for e in estimates
              if e.value is not None and e.date in volume_by_date]
    regression = None
    if len(paired) >= 3 and len({v for _, v in paired}) > 1:
        fit = lambda_volume_regression([p[0] for p in paired], [p[1] for p in paired],
                                       intercept=not no_intercept)
        regression = {"slope": fit.slope, "intercept": fit.intercept, "tSlope": fit.t_slope,
                      "tIntercept": fit.t_intercept, "r2": fit.r2, "adjR2": fit.adj_r2,
                      "n": fit.n}
    out_dir = _finish([
        ("lambda_regression.json", _write_json, {"regression": regression}),
        ("lambda.csv", write_table, ["date", "lambda", "se", "n", "avgVolume"], rows, "csv")])
    click.echo(f"{len(rows)} estimates -> {out_dir / 'lambda.csv'}")


@_command()
@click.option("--lam", "lam", type=float, required=True, callback=_finite,
              help="Price impact in log-odds per million USD.")
@click.option("--price", type=float, required=True)
@click.option("--flow", type=float, default=1.0, callback=_finite,
              help="Net signed flow in million USD.")
@_format(type=click.Choice(["text", "json"]), default="text")
def impact(lam, price, flow, fmt):
    """Convert a price-impact coefficient into a price move."""
    if not 0 < price < 1:
        raise ConfigError("--price must be inside (0, 1)")
    delta_p = price_impact_delta_p(lam, price, flow)
    if not math.isfinite(delta_p):
        raise ConfigError(f"--lam {lam!r} and --flow {flow!r} move the price past the float range")
    if fmt == "json":
        click.echo(json.dumps({"lambda": lam, "price": price, "flow": flow,
                               "deltaP": delta_p}, sort_keys=True))
    else:
        click.echo(f"delta_p = {delta_p!r}")


@_command("traders")
@_inputs()
@_markets()
@click.option("--quarter", help="Calendar quarter like 2024Q4 (capped at the sample end).")
@_window()
@click.option("--by", type=click.Choice(["volume", "frequency"]), default="volume")
@click.option("--exclude-addresses", default="", show_default=False,
              help="Comma-separated addresses, or @file with one per line.")
@click.option("--per-market", is_flag=True,
              help="Count hourly activity once per (trader, market) instead of per trader.")
@_out()
def traders_cmd(inputs, markets_path, quarter, start, end, by, exclude_addresses,
                per_market, out):
    """Hourly activity profile, top-decile traders, and participation cells."""
    exclude = _parse_excludes(exclude_addresses)  # a bad option exits before the ledger is read
    transactions, markets = _load_transactions(inputs, markets_path)
    if quarter:
        q_start, q_end = _quarter_bounds(quarter, end)
        start = q_start if start is None else max(start, q_start)
        end = q_end if end is None else min(end, q_end)
    if (start is None or end is None) and not transactions:
        raise DataError("the ledger has no transactions to take the window bounds from; "
                        "give --from and --to, or --quarter")
    start = min(tx.timestamp for tx in transactions) if start is None else start
    end = max(tx.timestamp for tx in transactions) + 1 if end is None else end
    window = _clip(transactions, start, end)

    activity = collect_trader_activity(window, markets, exclude)
    hourly = hourly_active_traders(activity, start, end, per_market=per_market)
    try:
        top = top_decile_traders(activity, by)
    except DataError as exc:
        top = []
        click.echo(f"warning: {exc}", err=True)
    cells, marginals, candidate_cells = participation_sets(activity)

    out_dir = _finish([
        ("top_decile.txt", Path.write_text, "".join(a + "\n" for a in top), "utf-8"),
        ("hourly.csv", write_table, ["hour", "meanActiveTraders"],
         [(h, _fmt_float(v)) for h, v in enumerate(hourly)], "csv"),
        ("participation.csv", write_table, ["bitmask", "markets", "count", "sharePct"],
         [(c.bitmask, "|".join(sorted(c.markets)), c.count, _fmt_float(c.share))
          for c in cells], "csv"),
        ("marginals.csv", write_table, ["market", "sharePct"],
         [(name, _fmt_float(pct)) for name, pct in marginals.items()], "csv"),
        ("candidate_overlap.csv", write_table, ["candidates", "count", "sharePct"],
         [("|".join(sorted(c.markets)), c.count, _fmt_float(c.share))
          for c in candidate_cells], "csv"),
    ], start=start, end=end, exclude_addresses=sorted(exclude))
    click.echo(f"{len(cells)} participation cells -> {out_dir}")


def _quarter_bounds(quarter: str, explicit_end: int | None) -> tuple[int, int]:
    try:
        year, number = map(int, quarter.upper().split("Q"))
        if not 1 <= number <= 4:
            raise ValueError
        # A year whose quarter has no ISO date, such as 0 or -5, is a bad quarter too.
        start = parse_utc(f"{year:04d}-{3 * number - 2:02d}-01")
        # The quarter's last day, plus one: so 9999Q4 ends at units.LAST_SECOND + 1.
        end = parse_utc(f"{year:04d}-{('03-31', '06-30', '09-30', '12-31')[number - 1]}") + DAY
    except ValueError:
        raise ConfigError(f"bad quarter {quarter!r}; expected e.g. 2024Q4")
    cutoff = explicit_end if explicit_end is not None else parse_utc(DEFAULT_WINDOW_END)
    if start < cutoff < end:
        end = cutoff
    return start, end


@_command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, help="Override the scenario seed.")
@_out()
def simulate(scenario_path, seed, out):
    """Generate a synthetic ledger plus its ground-truth sidecar."""
    from .synthetic import generate_synthetic_ledger, load_scenario

    scenario = load_scenario(scenario_path, seed=seed)
    ledger = generate_synthetic_ledger(scenario)

    out_dir = _finish([
        ("fills.jsonl", write_fills, ledger.fills),
        ("ground_truth.jsonl", write_decomposed, ledger.truth, "jsonl"),
        ("markets.json", write_market_config, ledger.markets),
        ("simulation.json", _write_json, {
            "exchangeAddress": ledger.exchange_address,
            "transactions": ledger.transaction_count(),
            "fills": len(ledger.fills),
            "arbitrageEvents": [{"timestamp": e.timestamp, "market": e.market,
                                 "action": e.action, "quantity": e.quantity,
                                 "deltaBefore": e.delta_before, "deltaAfter": e.delta_after}
                                for e in ledger.arbitrage_events],
            "seed": scenario.seed,
        }),
    ], seed=scenario.seed)
    click.echo(f"{ledger.transaction_count()} transactions, {len(ledger.fills)} fills "
               f"-> {out_dir}")


if __name__ == "__main__":
    main()
