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

from enum import Enum
from itertools import repeat
from operator import attrgetter, itemgetter
from sys import intern
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DecompositionAnomalyError, ParseError
from .events import (COLLATERAL_ID, MarketSpec, Transaction, _read_cached, _table_records,
                     _to_amount, market_slots, write_table)


class TxKind(str, Enum):
    PURE_EXCHANGE = "pure_exchange"
    SHARE_MINTING = "share_minting"
    SHARE_BURNING = "share_burning"
    MIXED_MINT = "mixed_mint"
    MIXED_BURN = "mixed_burn"


class VolumeComponents(NamedTuple):
    """Per-transaction volume split, all in micro-USDC integers."""

    yes_trade: int = 0
    no_trade: int = 0
    yes_mint: int = 0
    no_mint: int = 0
    yes_burn: int = 0
    no_burn: int = 0
    buy_vol: int = 0
    sell_vol: int = 0


class DecomposedTransaction(NamedTuple):
    block: int
    tx_index: int
    timestamp: int
    market: str
    kind: TxKind
    components: VolumeComponents

    def check(self) -> None:
        """Raise DecompositionAnomalyError unless the decomposition invariants hold."""
        c = self.components
        yes_trade, no_trade, yes_mint, no_mint, yes_burn, no_burn, buy_vol, sell_vol = c
        mint = yes_mint + no_mint
        burn = yes_burn + no_burn
        if min(yes_trade, no_trade, yes_mint, no_mint, yes_burn, no_burn) < 0:
            problem = "negative component"
        elif yes_trade and no_trade:
            problem = "trade volume on both tokens"
        elif yes_trade + no_trade != min(buy_vol, sell_vol):
            problem = "trade volume differs from the smaller gross flow"
        elif buy_vol - sell_vol != mint - burn:
            problem = "conservation violated"
        elif burn and buy_vol >= sell_vol:
            problem = "burn volume without a sell surplus"
        elif mint and buy_vol <= sell_vol:
            problem = "mint volume without a buy surplus"
        else:
            return
        raise DecompositionAnomalyError(f"{problem} in {c}", self.block, self.tx_index)


class AnomalyRecord(NamedTuple):
    block: int
    tx_index: int
    timestamp: int
    market: str
    reason: str


def decompose_ledger(
    transactions: Iterable[Transaction],
    markets: Sequence[MarketSpec],
) -> tuple[list[DecomposedTransaction], list[AnomalyRecord]]:
    """Decompose a ledger in one pass over each transaction's fills.

    Each fill's collateral is summed into one of four sums of its token's
    market: YES bought, NO bought, YES sold, NO sold (``None`` while no fill
    touches it, so a zero-collateral fill still marks its token present).
    Every touched market then yields one row, in market configuration order.
    Equal gross flows are a pure exchange; a buy surplus is minting, mixed
    when the slice also sells; a sell surplus is burning, mixed when it also
    buys. The exchange volume min(buy_vol, sell_vol) is attributed to one
    token: the exchange-leg token of a mixed transaction (the token on the
    smaller side), else the bought token. When that side spans both tokens,
    the lexicographically smaller token id is used, which only happens on
    equal-flow transactions (flagged in logs).

    A transaction either decomposes cleanly or is quarantined whole: fills
    on unconfigured token ids and shapes outside the taxonomy yield one
    anomaly record (naming the first configured market whose slice fails)
    and no rows, so quarantined plus decomposed transaction counts always
    equal the input count.
    """
    slots = market_slots(markets)
    # Per market: candidate, (YES id, NO id), and the side (0 YES, 1 NO) of the
    # lexicographically smaller id.
    specs = [(m.candidate, (m.yes_token_id, m.no_token_id), int(m.no_token_id < m.yes_token_id))
             for m in markets]
    new = tuple.__new__
    decomposed: list[DecomposedTransaction] = []
    anomalies: list[AnomalyRecord] = []
    for tx in transactions:
        block, tx_index, timestamp, fills = tx
        # market -> [YES bought, NO bought, YES sold, NO sold]: ``slot & 1`` plus 2 for a sale
        slices: dict[int, list[int | None]] = {}
        unknown: set[str] = set()
        for _, _, _, _, _, maker_asset_id, taker_asset_id, maker_amount, taker_amount, _ \
                in fills:
            if maker_asset_id == COLLATERAL_ID:
                token, usdc, side = taker_asset_id, maker_amount, 0
            else:
                token, usdc, side = maker_asset_id, taker_amount, 2
            slot = slots.get(token)
            if slot is None:
                unknown.add(token)
                continue
            sums = slices.get(slot >> 1)
            if sums is None:
                sums = slices[slot >> 1] = [None, None, None, None]
            side |= slot & 1
            total = sums[side]
            sums[side] = usdc if total is None else total + usdc
        if unknown:
            anomalies.append(new(AnomalyRecord, (
                block, tx_index, timestamp, "", f"unconfigured token ids {sorted(unknown)}")))
            continue
        rows: list[DecomposedTransaction] = []
        for i in sorted(slices):
            sums = slices[i]
            buy_yes, buy_no, sell_yes, sell_no = sums
            candidate, token_ids, low = specs[i]
            buy_vol = (buy_yes or 0) + (buy_no or 0)
            sell_vol = (sell_yes or 0) + (sell_no or 0)
            # trade YES/NO, mint YES/NO, burn YES/NO, then the gross flows
            components = [0, 0, 0, 0, 0, 0, buy_vol, sell_vol]
            try:
                if None not in sums:
                    raise DecompositionAnomalyError(
                        "simultaneous mint and burn (both sides span multiple tokens)",
                        block, tx_index)
                # ``leg``: the side whose token takes the exchange volume (0 bought, 2 sold);
                # ``surplus``: the mint (2) or burn (4) pair of the components, or 0.
                if buy_vol > sell_vol:
                    sold = sell_yes is not None or sell_no is not None
                    kind = TxKind.MIXED_MINT if sold else TxKind.SHARE_MINTING
                    name, surplus, leg = "mint", 2, 2
                    components[2:4] = buy_yes or 0, buy_no or 0
                elif buy_vol < sell_vol:
                    bought = buy_yes is not None or buy_no is not None
                    kind = TxKind.MIXED_BURN if bought else TxKind.SHARE_BURNING
                    name, surplus, leg = "burn", 4, 0
                    components[4:6] = sell_yes or 0, sell_no or 0
                else:
                    kind, surplus, leg = TxKind.PURE_EXCHANGE, 0, 0
                trade_vol = min(buy_vol, sell_vol)
                if trade_vol:
                    if sums[leg] is None:
                        token = 1
                    elif sums[leg + 1] is None:
                        token = 0
                    else:
                        token = low
                        if not surplus:
                            import logging

                            logging.getLogger(__name__).warning(
                                "equal-flow tx %s spans tokens %s; attributing exchange volume "
                                "to the lexicographically smallest id",
                                (block, tx_index), sorted(token_ids))
                    components[token] = trade_vol
                    if surplus:
                        components[surplus + token] -= trade_vol
                        if components[surplus + token] < 0:
                            raise DecompositionAnomalyError(
                                f"negative {name} component on token {token_ids[token]}",
                                block, tx_index)
                row = new(DecomposedTransaction, (block, tx_index, timestamp, candidate, kind,
                                                  new(VolumeComponents, components)))
                row.check()
            except DecompositionAnomalyError as exc:
                anomalies.append(new(AnomalyRecord,
                                     (block, tx_index, timestamp, candidate, str(exc))))
                break
            rows.append(row)
        else:
            decomposed += rows
    return decomposed, anomalies


# Decomposed-ledger wire schema: micro-USDC integer columns.
DECOMPOSED_FIELDS = (
    "block", "txIndex", "timestamp", "market", "kind",
    "buyVol", "sellVol",
    "yesTradeVol", "noTradeVol", "yesMintVol", "noMintVol", "yesBurnVol", "noBurnVol",
)


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
    if min(row.block, row.tx_index, row.timestamp) < 0:
        raise ValueError(f"block, txIndex and timestamp must be non-negative, got "
                         f"{row.block}, {row.tx_index}, {row.timestamp}")
    return row


def write_decomposed(path, rows: Iterable[DecomposedTransaction], fmt: str = "csv") -> None:
    """Write rows in DECOMPOSED_FIELDS order; JSONL amounts are strings, as in the fill schema.

    ``kind`` is written as is: a TxKind is a ``str`` whose text is its value,
    which is what the csv and json modules write for a ``str`` subclass.
    """
    write_table(path, DECOMPOSED_FIELDS, (
        (block, tx_index, timestamp, market, kind, str(buy_vol), str(sell_vol),
         str(yes_trade), str(no_trade), str(yes_mint), str(no_mint), str(yes_burn), str(no_burn))
        for block, tx_index, timestamp, market, kind,
        (yes_trade, no_trade, yes_mint, no_mint, yes_burn, no_burn, buy_vol, sell_vol) in rows
    ), fmt)


_KINDS = {kind.value: kind for kind in TxKind}


def read_decomposed(path) -> list[DecomposedTransaction]:
    """Read a decomposed table (CSV, or JSONL).

    Each line or row is read as a record by ``_table_records`` and built by
    ``decomposed_from_record``, and must satisfy the decomposition invariants
    (``check``); a malformed or inconsistent row raises ParseError naming its
    file line.

    The rows of a regular file are cached by its bytes and this module's
    source (README, "Parsed-table cache"): a first read parses and stores
    them, and a later read of the same bytes skips the parse.
    """
    return _read_cached(path, _parse_decomposed,
                        lambda digest, is_csv: digest.update(
                            b"decomposed %r " % is_csv + __loader__.get_data(__file__)),
                        _decomposed_columns,
                        _decomposed_from_columns)


def _parse_decomposed(fh, is_csv: bool) -> list[DecomposedTransaction]:
    """Parse text file ``fh``: ``read_decomposed`` without its cache."""
    rows: list[DecomposedTransaction] = []
    for line_no, record in _table_records(fh, is_csv, DECOMPOSED_FIELDS):
        try:
            row = decomposed_from_record(record)
            row.check()
        except KeyError as exc:
            raise ParseError(f"missing field {exc.args[0]!r}", line_no) from exc
        except (TypeError, ValueError, DecompositionAnomalyError) as exc:
            raise ParseError(str(exc), line_no) from exc
        rows.append(row)
    return rows


def _decomposed_columns(rows: list[DecomposedTransaction]) -> Iterator[tuple]:
    """A cache entry's columns, one built at a time: block, txIndex, timestamp, market
    (equal ones as one interned string), kind's value, then the eight components."""
    yield from (tuple(map(itemgetter(i), rows)) for i in range(3))
    yield tuple(map(intern, map(itemgetter(3), rows)))
    yield tuple(map(attrgetter("value"), map(itemgetter(4), rows)))
    for i in range(len(VolumeComponents._fields)):
        yield tuple(map(itemgetter(i), map(itemgetter(5), rows)))


def _decomposed_from_columns(columns: list[tuple]) -> list[DecomposedTransaction]:
    """The rows of a cache entry's columns; an unknown kind raises KeyError."""
    new = tuple.__new__
    block, tx_index, timestamp, market, kind, *components = columns
    return list(map(new, repeat(DecomposedTransaction), zip(
        block, tx_index, timestamp, market, map(_KINDS.__getitem__, kind),
        map(new, repeat(VolumeComponents), zip(*components, strict=True)), strict=True)))
