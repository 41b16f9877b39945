"""Transaction classification and six-component volume decomposition.

Each settlement transaction is split into trade/mint/burn volume per token
side, in exact integer micro-USDC:

* ``buy_vol``  = sum of makerAmountFilled over fills paying collateral,
* ``sell_vol`` = sum of takerAmountFilled over fills receiving collateral.

Equal gross flows mean a pure token exchange. A buy surplus means new full
sets were minted against fresh collateral; a sell surplus means full sets
were burned back into collateral. Mixed transactions carry an exchange leg
alongside the mint/burn: the exchange volume is min(buy_vol, sell_vol) and
is attributed to the token of the single-token side, with the per-token
mint/burn components taken from the surplus side's sums.

The identity buy_vol - sell_vol = total mint - total burn holds exactly for
every decomposed transaction, and all six components are non-negative;
shapes for which this cannot hold (e.g. simultaneous mint and burn) raise
DecompositionAnomalyError instead of guessing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import DecompositionAnomalyError, ParseError
from .events import COLLATERAL_ID, MarketSpec, Transaction, _to_amount, read_table, write_table

logger = logging.getLogger(__name__)


class TxKind(str, Enum):
    PURE_EXCHANGE = "pure_exchange"
    SHARE_MINTING = "share_minting"
    SHARE_BURNING = "share_burning"
    MIXED_MINT = "mixed_mint"
    MIXED_BURN = "mixed_burn"


@dataclass(frozen=True)
class VolumeComponents:
    """Per-transaction volume split, all in micro-USDC integers."""

    yes_trade: int = 0
    no_trade: int = 0
    yes_mint: int = 0
    no_mint: int = 0
    yes_burn: int = 0
    no_burn: int = 0
    buy_vol: int = 0
    sell_vol: int = 0


@dataclass(frozen=True)
class DecomposedTransaction:
    block: int
    tx_index: int
    timestamp: int
    market: str
    kind: TxKind
    components: VolumeComponents

    def check(self) -> None:
        """Raise DecompositionAnomalyError unless the decomposition invariants hold."""
        c = self.components
        mint = c.yes_mint + c.no_mint
        burn = c.yes_burn + c.no_burn
        if min(c.yes_trade, c.no_trade, c.yes_mint, c.no_mint, c.yes_burn, c.no_burn) < 0:
            problem = "negative component"
        elif c.yes_trade and c.no_trade:
            problem = "trade volume on both tokens"
        elif c.yes_trade + c.no_trade != min(c.buy_vol, c.sell_vol):
            problem = "trade volume differs from the smaller gross flow"
        elif c.buy_vol - c.sell_vol != mint - burn:
            problem = "conservation violated"
        elif burn and c.buy_vol >= c.sell_vol:
            problem = "burn volume without a sell surplus"
        elif mint and c.buy_vol <= c.sell_vol:
            problem = "mint volume without a buy surplus"
        else:
            return
        raise DecompositionAnomalyError(f"{problem} in {c}", self.block, self.tx_index)


@dataclass(frozen=True)
class AnomalyRecord:
    block: int
    tx_index: int
    timestamp: int
    market: str
    reason: str


def _decompose_slice(
    tx: Transaction, market: MarketSpec, buy: dict[str, int], sell: dict[str, int],
) -> DecomposedTransaction:
    """Kind and six components of one market's slice of a transaction.

    ``buy`` maps each token bought in the slice to the collateral paid for
    it, ``sell`` each token sold to the collateral received. Equal gross
    flows are a pure exchange; a buy surplus is minting, mixed when the
    slice also sells; a sell surplus is burning, mixed when it also buys.
    The exchange volume min(buy_vol, sell_vol) is attributed to a single
    token: the exchange-leg token of a mixed transaction (the token on the
    smaller side), else the bought token. When the choice is ambiguous the
    lexicographically smallest token id is used, which only happens on
    equal-flow transactions spanning both tokens (flagged in logs).
    """
    if len(buy) > 1 and len(sell) > 1:
        raise DecompositionAnomalyError(
            "simultaneous mint and burn (both sides span multiple tokens)",
            tx.block, tx.tx_index,
        )
    buy_vol, sell_vol = sum(buy.values()), sum(sell.values())
    trade_vol = min(buy_vol, sell_vol)
    trade: dict[str, int] = {}
    mint: dict[str, int] = {}
    burn: dict[str, int] = {}

    if buy_vol == sell_vol:
        kind = TxKind.PURE_EXCHANGE
        if trade_vol:
            if len(buy) > 1:
                logger.warning(
                    "equal-flow tx %s spans tokens %s; attributing exchange volume "
                    "to the lexicographically smallest id", tx.key, sorted(buy))
            trade[min(buy)] = trade_vol
    elif buy_vol > sell_vol:
        kind = TxKind.MIXED_MINT if sell else TxKind.SHARE_MINTING
        mint = dict(buy)
        if trade_vol:
            leg = min(sell)  # the exchanged token: the one sold for collateral
            trade[leg] = trade_vol
            mint[leg] = mint.get(leg, 0) - trade_vol
    else:
        kind = TxKind.MIXED_BURN if buy else TxKind.SHARE_BURNING
        burn = dict(sell)
        if trade_vol:
            leg = min(buy)  # the exchanged token: the one bought with collateral
            trade[leg] = trade_vol
            burn[leg] = burn.get(leg, 0) - trade_vol

    for name, sums in (("mint", mint), ("burn", burn)):
        for token, value in sums.items():
            if value < 0:
                raise DecompositionAnomalyError(
                    f"negative {name} component on token {token}", tx.block, tx.tx_index
                )

    yes, no = market.yes_token_id, market.no_token_id
    row = DecomposedTransaction(
        block=tx.block,
        tx_index=tx.tx_index,
        timestamp=tx.timestamp,
        market=market.candidate,
        kind=kind,
        components=VolumeComponents(
            yes_trade=trade.get(yes, 0),
            no_trade=trade.get(no, 0),
            yes_mint=mint.get(yes, 0),
            no_mint=mint.get(no, 0),
            yes_burn=burn.get(yes, 0),
            no_burn=burn.get(no, 0),
            buy_vol=buy_vol,
            sell_vol=sell_vol,
        ),
    )
    row.check()
    return row


def decompose_ledger(
    transactions: Iterable[Transaction],
    markets: Sequence[MarketSpec],
) -> tuple[list[DecomposedTransaction], list[AnomalyRecord]]:
    """Decompose a ledger in one pass over each transaction's fills.

    Each fill's collateral is summed per token into the slice of the
    token's market; every touched market then yields one row, in market
    configuration order. A transaction either decomposes cleanly or is
    quarantined whole: fills on unconfigured token ids and shapes outside
    the taxonomy yield one anomaly record (naming the first configured
    market whose slice fails) and no rows, so quarantined plus decomposed
    transaction counts always equal the input count.
    """
    market_of = {token: i for i, market in enumerate(markets) for token in market.token_ids}
    decomposed: list[DecomposedTransaction] = []
    anomalies: list[AnomalyRecord] = []
    for tx in transactions:
        slices: dict[int, tuple[dict[str, int], dict[str, int]]] = {}
        unknown: set[str] = set()
        for fill in tx.fills:
            if fill.maker_asset_id == COLLATERAL_ID:
                token, usdc, side = fill.taker_asset_id, fill.maker_amount, 0
            else:
                token, usdc, side = fill.maker_asset_id, fill.taker_amount, 1
            i = market_of.get(token)
            if i is None:
                unknown.add(token)
                continue
            sums = slices.setdefault(i, ({}, {}))[side]
            sums[token] = sums.get(token, 0) + usdc
        if unknown:
            anomalies.append(AnomalyRecord(
                tx.block, tx.tx_index, tx.timestamp, "",
                f"unconfigured token ids {sorted(unknown)}",
            ))
            continue
        rows: list[DecomposedTransaction] = []
        for i in sorted(slices):
            try:
                rows.append(_decompose_slice(tx, markets[i], *slices[i]))
            except DecompositionAnomalyError as exc:
                anomalies.append(AnomalyRecord(
                    tx.block, tx.tx_index, tx.timestamp, markets[i].candidate, str(exc)
                ))
                break
        else:
            decomposed.extend(rows)
    return decomposed, anomalies


# Decomposed-ledger wire schema: micro-USDC integer columns.
DECOMPOSED_FIELDS = (
    "block", "txIndex", "timestamp", "market", "kind",
    "buyVol", "sellVol",
    "yesTradeVol", "noTradeVol", "yesMintVol", "noMintVol", "yesBurnVol", "noBurnVol",
)


def decomposed_to_record(row: DecomposedTransaction) -> dict[str, str | int]:
    c = row.components
    return {
        "block": row.block,
        "txIndex": row.tx_index,
        "timestamp": row.timestamp,
        "market": row.market,
        "kind": row.kind.value,
        "buyVol": str(c.buy_vol),
        "sellVol": str(c.sell_vol),
        "yesTradeVol": str(c.yes_trade),
        "noTradeVol": str(c.no_trade),
        "yesMintVol": str(c.yes_mint),
        "noMintVol": str(c.no_mint),
        "yesBurnVol": str(c.yes_burn),
        "noBurnVol": str(c.no_burn),
    }


def decomposed_from_record(record: dict) -> DecomposedTransaction:
    """Build a row from a decoded record; integers as ``_to_amount`` reads them."""
    row = DecomposedTransaction(
        block=_to_amount(record["block"], "block"),
        tx_index=_to_amount(record["txIndex"], "txIndex"),
        timestamp=_to_amount(record["timestamp"], "timestamp"),
        market=record["market"],
        kind=TxKind(record["kind"]),
        components=VolumeComponents(
            yes_trade=_to_amount(record["yesTradeVol"], "yesTradeVol"),
            no_trade=_to_amount(record["noTradeVol"], "noTradeVol"),
            yes_mint=_to_amount(record["yesMintVol"], "yesMintVol"),
            no_mint=_to_amount(record["noMintVol"], "noMintVol"),
            yes_burn=_to_amount(record["yesBurnVol"], "yesBurnVol"),
            no_burn=_to_amount(record["noBurnVol"], "noBurnVol"),
            buy_vol=_to_amount(record["buyVol"], "buyVol"),
            sell_vol=_to_amount(record["sellVol"], "sellVol"),
        ),
    )
    if type(row.market) is not str:
        raise ValueError(f"market: not a string: {row.market!r}")
    return row


def write_decomposed(path, rows: Iterable[DecomposedTransaction], fmt: str = "csv") -> None:
    write_table(path, DECOMPOSED_FIELDS, (decomposed_to_record(row) for row in rows), fmt)


def read_decomposed(path) -> list[DecomposedTransaction]:
    """Read a decomposed table (CSV, or JSONL).

    Every row must satisfy the decomposition invariants (``check``); a
    malformed or inconsistent row raises ParseError naming its file line.
    """
    rows: list[DecomposedTransaction] = []
    for line_no, record in read_table(path, DECOMPOSED_FIELDS):
        try:
            row = decomposed_from_record(record)
            row.check()
        except KeyError as exc:
            raise ParseError(f"missing field {exc.args[0]!r}", line_no) from exc
        except (TypeError, ValueError, DecompositionAnomalyError) as exc:
            raise ParseError(str(exc), line_no) from exc
        rows.append(row)
    return rows
