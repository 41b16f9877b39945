"""Run one fillflow CLI command with its layer calls timed from outside.

    python traced_cli.py SPANS_OUT SPAWNED RUN_ID -- FILLFLOW_ARGS...

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so the start-up span covers interpreter start and the import of
``fillflow.cli``. The public layer functions that ``fillflow.cli`` imports
are replaced, in that module only, by wrappers that record a span around
each call; counts are taken from the call's arguments and result after
the span has closed. Spans stay in memory and are written to SPANS_OUT as
one JSON list when the command ends. The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time


def _count_token_fills(args, result, market):
    transactions, token = args
    return {"points": len(result),
            "token_fills": sum(1 for tx in transactions for f in tx.fills if f.token_id == token)}


# cli-module name -> (span name, counter over (args, result, --market value)).
LAYERS = {
    "read_fills": ("events.read_fills", lambda a, r, m: {"fills": len(r)}),
    "group_transactions": ("events.group_transactions",
                           lambda a, r, m: {"fills_in": len(a[0]), "transactions_out": len(r)}),
    "write_fills": ("events.write_fills", None),
    "decompose_ledger": ("decompose.decompose_ledger",
                         lambda a, r, m: {"transactions_in": len(a[0]), "rows_out": len(r[0]),
                                          "quarantined": len(r[1]),
                                          "market_rows": sum(1 for row in r[0]
                                                             if row.market == m)}),
    "write_decomposed": ("decompose.write_decomposed", None),
    "read_decomposed": ("decompose.read_decomposed", lambda a, r, m: {"rows": len(r)}),
    "aggregate_components": ("metrics.aggregate_components", None),
    "daily_net_inflow": ("prices.daily_net_inflow", None),
    "rolling_inflow_correlation": ("prices.rolling_inflow_correlation",
                                   lambda a, r, m: {"none": sum(1 for _, v in r if v is None)}),
    "build_price_series": ("prices.build_price_series", _count_token_fills),
    "arbitrage_deviation": ("prices.arbitrage_deviation", None),
    "sign_trades": ("microstructure.sign_trades", None),
    "hourly_bars": ("microstructure.hourly_bars",
                    lambda a, r, m: {"carried": sum(1 for b in r if b.carried_forward)}),
    "rolling_kyle_lambda": ("microstructure.rolling_kyle_lambda",
                            lambda a, r, m: {"none": sum(1 for e in r if e.value is None)}),
    "hourly_active_traders": ("traders.hourly_active_traders", None),
    "top_decile_traders": ("traders.top_decile_traders", None),
    "participation_sets": ("traders.participation_sets",
                           lambda a, r, m: {"addresses": sum(c.count for c in r[0])}),
    "_write_manifest": ("cli.manifest", None),
}


class Tracer:
    def __init__(self, run_id: str, market: str | None):
        self.run_id = run_id
        self.market = market
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: int | None,
            counts: dict | None = None) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id, "counts": counts or {}})
        return len(self.spans) - 1

    def wrap(self, fn, name: str, counter, parent: int):
        def traced(*args, **kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            end = time.monotonic()
            counts = counter(args, result, self.market) if counter else None
            self.add(name, start, end, parent, counts)
            return result
        return traced


def main(argv: list[str]) -> int:
    out_path, spawned, run_id = argv[0], float(argv[1]), argv[2]
    args = argv[4:]
    import fillflow.cli as cli
    imported = time.monotonic()

    market = args[args.index("--market") + 1] if "--market" in args else None
    tracer = Tracer(run_id, market)
    root = tracer.add(f"cli.{args[0]}", spawned, spawned, None)
    tracer.add("cli.startup", spawned, imported, root)
    for attr, (name, counter) in LAYERS.items():
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.wrap(getattr(cli, attr), name, counter, root))

    code = 0
    try:
        cli.main.main(args=args, prog_name="fillflow", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.spans[root]["end"] = time.monotonic()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
