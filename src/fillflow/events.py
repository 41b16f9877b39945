"""Fill-event data model, ledger file parsing, and market configuration.

A ledger is a list of OrderFilled records. Every fill swaps collateral
(asset id "0", USDC) against exactly one outcome token; amounts are integers
in 10^-6 units. Fills sharing (block, txIndex) form one settlement
transaction, the unit of the volume decomposition.

File shards can be parsed independently and merged: ``group_transactions``
gives the same partition for any input permutation, so a deterministic
merge by (block, txIndex, logIndex) is just concatenation.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from operator import attrgetter
from sys import intern
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DuplicateEventError, ParseError, SchemaError
from .units import parse_utc

COLLATERAL_ID = "0"

# Canonical wire schema: JSONL object keys / CSV columns, in order.
FILL_FIELDS = (
    "block",
    "txIndex",
    "logIndex",
    "maker",
    "taker",
    "makerAssetId",
    "takerAssetId",
    "makerAmountFilled",
    "takerAmountFilled",
    "timestamp",
)


# A NamedTuple class cannot define __new__, so FillEvent validates in a subclass.
class _FillFields(NamedTuple):
    block: int
    tx_index: int
    log_index: int
    maker: str
    taker: str
    maker_asset_id: str
    taker_asset_id: str
    maker_amount: int
    taker_amount: int
    timestamp: int


_INTEGER_FIELDS = ("block", "tx_index", "log_index", "maker_amount", "taker_amount", "timestamp")


def _is_decimal(text) -> bool:
    """True when ``text`` is a string of ASCII digits: a token id, or a collateral id."""
    return type(text) is str and text.isascii() and text.isdigit()


class FillEvent(_FillFields):
    """One OrderFilled record, an immutable named tuple.

    ``maker_amount`` is in micro-USDC when ``maker_asset_id`` is "0", else
    micro-shares; symmetrically for the taker side. The six integer fields
    are plain non-negative ints (no bool or other int subclass), the
    addresses strings and the asset ids strings of ASCII digits, exactly one
    of them the collateral id: what one canonical wire line can encode.
    Construction raises SchemaError otherwise.
    """

    __slots__ = ()

    def __new__(cls, block, tx_index, log_index, maker, taker, maker_asset_id,
                taker_asset_id, maker_amount, taker_amount, timestamp):
        integers = (block, tx_index, log_index, maker_amount, taker_amount, timestamp)
        for value in integers:
            if type(value) is not int or value < 0:
                # A bad value is never identical to a good one, so it names its own field.
                name = next(n for n, v in zip(_INTEGER_FIELDS, integers) if v is value)
                raise SchemaError(f"{name} must be a non-negative integer, got {value!r}")
        if type(maker) is not str or type(taker) is not str:
            name, value = ("maker", maker) if type(maker) is not str else ("taker", taker)
            raise SchemaError(f"{name} must be a string, got {value!r}")
        maker_is_cash = maker_asset_id == COLLATERAL_ID
        # The collateral id is decimal, so a good fill needs only the other id checked.
        if maker_is_cash == (taker_asset_id == COLLATERAL_ID) or not _is_decimal(
                taker_asset_id if maker_is_cash else maker_asset_id):
            for name, value in (("maker_asset_id", maker_asset_id),
                                ("taker_asset_id", taker_asset_id)):
                if not _is_decimal(value):
                    raise SchemaError(f"{name} must be a decimal string, got {value!r}")
            raise SchemaError(
                f"{'both' if maker_is_cash else 'neither'} asset ids are collateral in fill "
                f"({block}, {tx_index}, {log_index}); "
                "every fill must exchange collateral against one outcome token"
            )
        return tuple.__new__(cls, (block, tx_index, log_index, maker, taker, maker_asset_id,
                                   taker_asset_id, maker_amount, taker_amount, timestamp))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which must validate too.
        return cls(*iterable)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.block, self.tx_index, self.log_index)

    @property
    def is_buy(self) -> bool:
        """True when the maker pays collateral for outcome tokens."""
        return self.maker_asset_id == COLLATERAL_ID

    @property
    def token_id(self) -> str:
        return self.taker_asset_id if self.is_buy else self.maker_asset_id

    @property
    def usdc_amount(self) -> int:
        return self.maker_amount if self.is_buy else self.taker_amount

    @property
    def share_amount(self) -> int:
        return self.taker_amount if self.is_buy else self.maker_amount

    def to_record(self) -> dict[str, str | int]:
        """Canonical wire record; amounts as integer strings."""
        return {
            "block": self.block,
            "txIndex": self.tx_index,
            "logIndex": self.log_index,
            "maker": self.maker,
            "taker": self.taker,
            "makerAssetId": self.maker_asset_id,
            "takerAssetId": self.taker_asset_id,
            "makerAmountFilled": str(self.maker_amount),
            "takerAmountFilled": str(self.taker_amount),
            "timestamp": self.timestamp,
        }


class _TransactionFields(NamedTuple):
    block: int
    tx_index: int
    timestamp: int
    fills: tuple[FillEvent, ...]


class Transaction(_TransactionFields):
    """All fills sharing (block, txIndex), ordered by logIndex; an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, block, tx_index, timestamp, fills):
        if not fills:
            raise SchemaError(f"transaction ({block}, {tx_index}) has no fills")
        return tuple.__new__(cls, (block, tx_index, timestamp, fills))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def key(self) -> tuple[int, int]:
        return (self.block, self.tx_index)


@dataclass(frozen=True)
class MarketSpec:
    """A binary market: one candidate, complementary YES/NO token pair."""

    candidate: str
    yes_token_id: str
    no_token_id: str
    launch: int
    resolution: int | None = None

    def __post_init__(self):
        for name in ("yes_token_id", "no_token_id"):
            if not _is_decimal(getattr(self, name)):
                raise ConfigError(f"market {self.candidate!r}: {name} must be a decimal "
                                  f"string, got {getattr(self, name)!r}")
        if self.yes_token_id == self.no_token_id:
            raise ConfigError(f"market {self.candidate!r}: YES and NO token ids are equal")
        if COLLATERAL_ID in (self.yes_token_id, self.no_token_id):
            raise ConfigError(f"market {self.candidate!r}: token id clashes with collateral id")

    @property
    def token_ids(self) -> tuple[str, str]:
        return (self.yes_token_id, self.no_token_id)

    def side_of(self, token_id: str) -> str:
        if token_id == self.yes_token_id:
            return "yes"
        if token_id == self.no_token_id:
            return "no"
        raise KeyError(f"token {token_id} not in market {self.candidate!r}")

    def complement(self, token_id: str) -> str:
        if token_id == self.yes_token_id:
            return self.no_token_id
        if token_id == self.no_token_id:
            return self.yes_token_id
        raise KeyError(f"token {token_id} not in market {self.candidate!r}")


def _to_amount(value, field: str) -> int:
    # The one integer rule of fills and decomposed tables: a plain int, or ASCII
    # digits with an optional leading minus (amounts may exceed 64 bits, which
    # Python ints carry exactly). Plain ints and plain digit strings come first.
    if type(value) is int:
        return value
    if type(value) is str and value.isascii() and (
            value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
        return int(value)
    raise ValueError(f"{field}: not an integer: {value!r}")


def fill_from_record(
    record: Mapping,
    line_no: int | None = None,
    block_times: Mapping[int, int] | None = None,
) -> FillEvent:
    """Build a FillEvent from a decoded wire record.

    ``timestamp`` may be omitted when a block->time sidecar mapping is
    supplied; one timestamp per block is the unit of time assignment.
    Addresses and asset ids are passed as read, interned when all are
    strings, so equal strings share one object. Errors name ``line_no``
    when it is given.
    """
    try:
        block = _to_amount(record["block"], "block")
        timestamp = record.get("timestamp")
        if timestamp in (None, "") and block_times is not None:
            timestamp = block_times.get(block)
        if timestamp in (None, ""):
            raise ValueError("missing timestamp (no inline value, no sidecar entry)")
        tx_index = _to_amount(record["txIndex"], "txIndex")
        log_index = _to_amount(record["logIndex"], "logIndex")
        texts = (record["maker"], record["taker"], record["makerAssetId"], record["takerAssetId"])
        if type(texts[0]) is type(texts[1]) is type(texts[2]) is type(texts[3]) is str:
            texts = map(intern, texts)  # intern() takes only strings; FillEvent names the others
        return FillEvent(block, tx_index, log_index, *texts,
                         _to_amount(record["makerAmountFilled"], "makerAmountFilled"),
                         _to_amount(record["takerAmountFilled"], "takerAmountFilled"),
                         _to_amount(timestamp, "timestamp"))
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}", line_no) from exc
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from exc
    except SchemaError as exc:
        if line_no is None:
            raise
        raise SchemaError(f"line {line_no}: {exc}") from exc


def read_table(path, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) from a ``.csv`` file or, for any other suffix, JSONL.

    A CSV file starts with a header naming every ``required`` column, and
    each row has exactly as many values as the header; a JSONL line is one
    JSON object. Blank lines are skipped; violations, and bytes that are not
    UTF-8, raise ParseError with the line number.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            if str(path).endswith(".csv"):
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    return
                missing = [c for c in required if c not in header]
                if missing:
                    raise ParseError(f"CSV header missing columns: {missing}", 1)
                for row in reader:
                    if not row:
                        continue
                    if len(row) != len(header):
                        raise ParseError(
                            f"expected {len(header)} columns, got {len(row)}", reader.line_num)
                    yield reader.line_num, dict(zip(header, row))
            else:
                for line_no, line in enumerate(fh, start=1):
                    if line.strip():
                        yield line_no, _json_record(line, line_no)
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def _utf8_error(path) -> ParseError:
    """ParseError naming the first line of ``path`` with a byte that is not UTF-8.

    Text files decode ahead of the line being read, so the file is read again
    with each bad byte b escaped to U+DC00+b, splitting lines as before.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                return ParseError(f"not valid UTF-8 (byte 0x{ord(bad[0]) - 0xDC00:02x})", line_no)
    return ParseError("not valid UTF-8")


def _json_record(line: str, line_no: int) -> dict:
    """Decode one non-blank JSONL line, which must hold one JSON object."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line_no) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit; deep nesting
        raise ParseError(str(exc), line_no) from exc
    if not isinstance(record, dict):
        raise ParseError("record is not an object", line_no)
    return record


def write_table(path, fields: Sequence[str], records: Iterable[Mapping], fmt: str) -> None:
    """Write records as CSV with a ``fields`` header when ``fmt`` is "csv", else as JSONL."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fields)
            writer.writerows([record[f] for f in fields] for record in records)
        else:
            fh.writelines(json.dumps(record) + "\n" for record in records)


# CSV ledgers may leave timestamps to a block->time sidecar.
_REQUIRED_FILL_FIELDS = tuple(f for f in FILL_FIELDS if f != "timestamp")


# One fill line exactly as ``write_fills`` writes it: ``json.dumps`` separators,
# keys in FILL_FIELDS order, bare JSON integers (no sign, fraction, exponent or
# leading zero), strings with no escape or control character, and amounts and
# asset ids as ASCII digit strings. json.loads decodes every matching line to
# the captured values, in FillEvent field order.
_CANONICAL_FILL = re.compile(
    r'\{"block": (0|[1-9][0-9]*), "txIndex": (0|[1-9][0-9]*), '
    r'"logIndex": (0|[1-9][0-9]*), "maker": "([^"\\\x00-\x1f]*)", '
    r'"taker": "([^"\\\x00-\x1f]*)", "makerAssetId": "([0-9]+)", '
    r'"takerAssetId": "([0-9]+)", "makerAmountFilled": "([0-9]+)", '
    r'"takerAmountFilled": "([0-9]+)", "timestamp": (0|[1-9][0-9]*)\}\n?')


def read_fills(path, block_times: Mapping[int, int] | None = None) -> list[FillEvent]:
    """Read a ledger shard (JSONL, or CSV with a header row).

    JSONL lines in the layout ``write_fills`` emits are read by one regex
    match; any other line is decoded as JSON, with the same result or error.
    The match already proves every FillEvent invariant but one, exactly one
    collateral id: six plain non-negative ints, timestamp included, string
    addresses and ASCII-digit asset ids. So a matched line is checked for
    that one alone, and its fill is built exactly as ``FillEvent`` would
    build it, without repeating the other checks. Addresses and asset ids
    are interned on every path.
    """
    if str(path).endswith(".csv"):
        return [fill_from_record(record, line_no, block_times)
                for line_no, record in read_table(path, _REQUIRED_FILL_FIELDS)]
    canonical = _CANONICAL_FILL.fullmatch
    new = tuple.__new__
    fills: list[FillEvent] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                match = canonical(line)
                if match is not None:
                    block, tx_index, log_index, maker, taker, maker_asset_id, taker_asset_id, \
                        maker_amount, taker_amount, timestamp = match.groups()
                    # A matched line this leaves is rejected below, naming the line.
                    if (maker_asset_id == COLLATERAL_ID) != (taker_asset_id == COLLATERAL_ID):
                        try:
                            fills.append(new(FillEvent, (
                                int(block), int(tx_index), int(log_index), intern(maker),
                                intern(taker), intern(maker_asset_id), intern(taker_asset_id),
                                int(maker_amount), int(taker_amount), int(timestamp))))
                            continue
                        except ValueError:  # an integer past the digit limit
                            pass
                if line.strip():
                    fills.append(fill_from_record(_json_record(line, line_no), line_no,
                                                  block_times))
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    return fills


class _JsonStrings(dict):
    """Memo of ``json.dumps`` over strings: each distinct key is encoded once."""

    def __missing__(self, text):
        encoded = self[text] = json.dumps(text)
        return encoded


def fill_lines(fills: Iterable[FillEvent]) -> Iterator[str]:
    """Yield ``json.dumps(fill.to_record()) + "\\n"`` for each fill, formatted directly.

    Keys follow FILL_FIELDS with ``json.dumps`` separators, and each distinct
    address and asset id is encoded once per call. A FillEvent's integers
    are plain ints, whose ``str`` is the JSON integer ``json.dumps`` writes.
    """
    strings = _JsonStrings()
    for fill in fills:
        block, tx_index, log_index, maker, taker, maker_asset_id, taker_asset_id, \
            maker_amount, taker_amount, timestamp = fill
        yield (f'{{"block": {block}, "txIndex": {tx_index}, "logIndex": {log_index}, '
               f'"maker": {strings[maker]}, "taker": {strings[taker]}, '
               f'"makerAssetId": {strings[maker_asset_id]}, '
               f'"takerAssetId": {strings[taker_asset_id]}, '
               f'"makerAmountFilled": "{maker_amount}", "takerAmountFilled": "{taker_amount}", '
               f'"timestamp": {timestamp}}}\n')


def write_fills(path, fills: Iterable[FillEvent], fmt: str = "jsonl") -> None:
    """Write fills in the canonical wire schema (round-trips bit-exactly)."""
    if fmt == "csv":
        write_table(path, FILL_FIELDS, (fill.to_record() for fill in fills), fmt)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(fill_lines(fills))


def load_block_times(path) -> dict[int, int]:
    """Block->timestamp sidecar: JSON object of block number to UTC seconds.

    Keys must be ASCII decimal block numbers and values UTC instants that
    ``parse_utc`` accepts; anything else raises ParseError naming the key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"block-times sidecar: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"block-times sidecar must be a JSON object, got {type(raw).__name__}")
    times: dict[int, int] = {}
    for block, ts in raw.items():
        try:
            if not (block.isascii() and block.isdigit()):
                raise ValueError("not a decimal block number")
            times[int(block)] = parse_utc(ts)
        except ValueError as exc:
            raise ParseError(f"block-times key {block!r}: {exc}") from exc
    return times


_COORDINATES = attrgetter("block", "tx_index", "log_index")


def _group_ascending(fills: Iterable[FillEvent]) -> tuple[list[Transaction], int | None] | None:
    """Group fills that come in strictly ascending coordinate order, in one scan.

    Returns the transactions and the position of the first one whose fills
    disagree on the timestamp (None when every one agrees), or None at the
    first fill that does not come after the one before it.
    """
    new = tuple.__new__
    transactions: list[Transaction] = []
    conflict = None
    group: list[FillEvent] = []
    block = tx_index = log_index = timestamp = -1  # coordinates are non-negative
    for fill in fills:
        if fill.block == block and fill.tx_index == tx_index:
            if fill.log_index <= log_index:
                return None
            if fill.timestamp != timestamp and conflict is None:
                conflict = len(transactions)
        elif fill.block > block or (fill.block == block and fill.tx_index > tx_index):
            if group:
                transactions.append(new(Transaction, (block, tx_index, timestamp, tuple(group))))
            block, tx_index, timestamp = fill.block, fill.tx_index, fill.timestamp
            group = []
        else:
            return None
        log_index = fill.log_index
        group.append(fill)
    if group:
        transactions.append(new(Transaction, (block, tx_index, timestamp, tuple(group))))
    return transactions, conflict


def group_transactions(fills: Iterable[FillEvent]) -> list[Transaction]:
    """Partition fills into transactions keyed by (block, txIndex).

    Within each transaction fills are ordered by logIndex; transactions are
    ordered by (block, txIndex). The partition is permutation-invariant and
    loses or duplicates nothing. Exact duplicate coordinates are rejected:
    fill streams are assumed pre-deduplicated. Duplicates are reported
    before conflicting timestamps, wherever either occurs in the ledger.
    Fills already in (block, txIndex, logIndex) order, as ``write_fills``
    leaves an ingested ledger, are grouped in one scan; others are sorted
    first.
    """
    if not isinstance(fills, (list, tuple)):
        fills = list(fills)
    grouped = _group_ascending(fills)
    if grouped is None:
        ordered = sorted(fills, key=_COORDINATES)
        grouped = _group_ascending(ordered)
        if grouped is None:  # in sorted order, only equal coordinates stop the scan
            keys = list(map(_COORDINATES, ordered))
            duplicate = next(key for prev, key in zip(keys, keys[1:]) if key == prev)
            raise DuplicateEventError(f"duplicate fill coordinates {duplicate}")
    transactions, conflict = grouped
    if conflict is not None:
        tx = transactions[conflict]
        timestamps = sorted({fill.timestamp for fill in tx.fills})
        raise SchemaError(f"transaction ({tx.block}, {tx.tx_index}) "
                          f"has conflicting timestamps {timestamps}")
    return transactions


def markets_from_entries(entries) -> list[MarketSpec]:
    """Build validated MarketSpecs from decoded config entries."""
    if not isinstance(entries, list):
        raise ConfigError("market config must contain a 'markets' list")
    markets: list[MarketSpec] = []
    claimed: dict[str, str] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"market entry {i}: not an object")
        try:
            spec = MarketSpec(
                candidate=str(entry["candidate"]),
                yes_token_id=entry["yesTokenId"],
                no_token_id=entry["noTokenId"],
                launch=parse_utc(entry["launch"]),
                resolution=parse_utc(entry["resolution"]) if entry.get("resolution") else None,
            )
        except KeyError as exc:
            raise ConfigError(f"market entry {i}: missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ConfigError(f"market entry {i}: bad launch or resolution: {exc}") from exc
        for token in spec.token_ids:
            if token in claimed:
                raise ConfigError(
                    f"token id {token} claimed by both {claimed[token]!r} and {spec.candidate!r}"
                )
            claimed[token] = spec.candidate
        markets.append(spec)
    return markets


def load_market_config(path) -> list[MarketSpec]:
    """Load the market configuration document.

    One JSON document listing markets; every token id may appear in at most
    one market, and each market must pair YES and NO explicitly.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also a byte that is not UTF-8
            raise ConfigError(f"invalid market config JSON: {exc}") from exc
    entries = doc.get("markets") if isinstance(doc, dict) else doc
    return markets_from_entries(entries)


def write_market_config(path, markets: Sequence[MarketSpec]) -> None:
    from .units import format_utc

    doc = {
        "markets": [
            {
                "candidate": m.candidate,
                "yesTokenId": m.yes_token_id,
                "noTokenId": m.no_token_id,
                "launch": format_utc(m.launch),
                **({"resolution": format_utc(m.resolution)} if m.resolution else {}),
            }
            for m in markets
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
