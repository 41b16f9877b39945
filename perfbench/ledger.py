"""Seeded benchmark inputs and the expected outputs they imply.

Inputs are written by this file's own writers, not by fillflow's, so the
bytes a workload reads stay the same when a change alters fillflow's
writers. Expected rows and fills are rendered from the generator's
constructive ground truth with the same independence.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

from fillflow.fixtures import market_specs
from fillflow.synthetic import SyntheticScenario, generate_synthetic_ledger
from fillflow.units import format_utc, parse_utc

START = "2024-01-05T00:00:00Z"
END = "2024-11-01T00:00:00Z"

FILL_COLUMNS = (
    "block", "txIndex", "logIndex", "maker", "taker", "makerAssetId",
    "takerAssetId", "makerAmountFilled", "takerAmountFilled", "timestamp",
)
DECOMPOSED_COLUMNS = (
    "block", "txIndex", "timestamp", "market", "kind", "buyVol", "sellVol",
    "yesTradeVol", "noTradeVol", "yesMintVol", "noMintVol", "yesBurnVol", "noBurnVol",
)
# Market left out of the ingest-quarantine workload's decompose config, so
# its transactions take the quarantine path.
OMITTED_MARKET = "Harris"


@dataclass(frozen=True)
class Size:
    transactions: int
    traders: int


def generate(seed: int, size: Size):
    """The three fixture markets, an arbitrageur, and ``size`` at ``seed``."""
    scenario = SyntheticScenario(
        seed=seed, markets=market_specs(), start=parse_utc(START), end=parse_utc(END),
        n_transactions=size.transactions, n_traders=size.traders, arbitrageur=True)
    return generate_synthetic_ledger(scenario)


def fill_row(fill) -> tuple:
    return (fill.block, fill.tx_index, fill.log_index, fill.maker, fill.taker,
            fill.maker_asset_id, fill.taker_asset_id, fill.maker_amount,
            fill.taker_amount, fill.timestamp)


def decomposed_row(row) -> tuple[str, ...]:
    c = row.components
    return tuple(str(v) for v in (
        row.block, row.tx_index, row.timestamp, row.market, row.kind.value,
        c.buy_vol, c.sell_vol, c.yes_trade, c.no_trade, c.yes_mint, c.no_mint,
        c.yes_burn, c.no_burn))


def _fill_record(fill) -> dict:
    record = dict(zip(FILL_COLUMNS, fill_row(fill)))
    record["makerAmountFilled"] = str(fill.maker_amount)
    record["takerAmountFilled"] = str(fill.taker_amount)
    return record


def write_jsonl(path: Path, fills) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for fill in fills:
            fh.write(json.dumps(_fill_record(fill)) + "\n")


def write_csv(path: Path, fills) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FILL_COLUMNS)
        writer.writerows(fill_row(fill) for fill in fills)


def write_decomposed_csv(path: Path, truth) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DECOMPOSED_COLUMNS)
        writer.writerows(decomposed_row(row) for row in truth)


def write_markets(path: Path, markets) -> None:
    doc = {"markets": [
        {"candidate": m.candidate, "yesTokenId": m.yes_token_id, "noTokenId": m.no_token_id,
         "launch": format_utc(m.launch), "resolution": format_utc(m.resolution)}
        for m in markets]}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_decomposed_rows(path: Path) -> list[tuple[str, ...]]:
    """Rows of a decomposed table, by column name, in DECOMPOSED_COLUMNS order."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if sorted(reader.fieldnames or ()) != sorted(DECOMPOSED_COLUMNS):
            return []
        return [tuple(record[c] for c in DECOMPOSED_COLUMNS) for record in reader]


def read_jsonl_fills(path: Path) -> list[tuple]:
    """Fills of a JSONL ledger as ``fill_row`` tuples, in file order."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            rows.append(tuple(
                int(record[c]) if c in ("block", "txIndex", "logIndex", "makerAmountFilled",
                                        "takerAmountFilled", "timestamp")
                else record[c]
                for c in FILL_COLUMNS))
    return rows


def check_decomposed(expected_rows, expected_quarantine):
    """decomposed.csv equals ``expected_rows``; quarantine.jsonl lists exactly those keys."""
    def check(out: Path):
        if read_decomposed_rows(out / "decomposed.csv") != expected_rows:
            return "decomposed rows differ from the generator's ground truth"
        quarantine = out / "quarantine.jsonl"
        keys = []
        if quarantine.exists():
            with open(quarantine, encoding="utf-8") as fh:
                keys = [(r["block"], r["txIndex"]) for r in map(json.loads, fh)]
        if keys != expected_quarantine:
            return (f"quarantined {len(keys)} transactions, "
                    f"expected {len(expected_quarantine)} of the omitted market")
        return None
    return check


def check_ingested(expected_fills):
    """The ingested fills.jsonl re-reads as exactly ``expected_fills``, in order."""
    def check(out: Path):
        if read_jsonl_fills(out / "fills.jsonl") != expected_fills:
            return "ingested fills differ from the generator's fills"
        return None
    return check


def _usd(amount: int) -> str:
    sign = "-" if amount < 0 else ""
    return f"{sign}{abs(amount) // 10**6}.{abs(amount) % 10**6:06d}"


def check_monthly(truth, market: str):
    """metrics --partition month for ``market``, summed here from the ground truth."""
    months: dict[str, list[int]] = {}
    for row in truth:
        if row.market != market:
            continue
        c = row.components
        acc = months.setdefault(time.strftime("%Y-%m", time.gmtime(row.timestamp)), [0] * 6)
        for j, v in enumerate((c.yes_trade, c.yes_mint, c.yes_burn,
                               c.no_trade, c.no_mint, c.no_burn)):
            acc[j] += v
    expected = []
    for label in sorted(months):
        acc = months[label]
        row = {"interval": label}
        for side, (trade, mint, burn) in (("yes", acc[0:3]), ("no", acc[3:6]),
                                          ("combined", [a + b for a, b in zip(acc[0:3], acc[3:6])])):
            v_e, f = trade + min(mint, burn), mint - burn
            row.update({f"{side}VE": _usd(v_e), f"{side}F": _usd(f), f"{side}VG": _usd(v_e + abs(f))})
        expected.append(row)

    def check(out: Path):
        with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
            if list(csv.DictReader(fh)) != expected:
                return "monthly measures differ from the ground-truth sums"
        return None
    return check
