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

import contextlib
import csv
import hashlib
import io
import json
import marshal
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from itertools import islice, repeat
from operator import attrgetter, itemgetter
from stat import S_ISREG
from sys import intern
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DataError, DuplicateEventError, ParseError, SchemaError
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
    def is_buy(self) -> bool:
        """True when the maker pays collateral for outcome tokens."""
        return self.maker_asset_id == COLLATERAL_ID

    @property
    def token_id(self) -> str:
        return self.taker_asset_id if self.is_buy else self.maker_asset_id


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


@dataclass(frozen=True)
class MarketSpec:
    """A binary market: one candidate, complementary YES/NO token pair."""

    candidate: str
    yes_token_id: str
    no_token_id: str
    launch: int
    resolution: int | None = None

    def __post_init__(self):
        if type(self.candidate) is not str or not self.candidate:
            raise ConfigError(f"candidate must be a non-empty string, got {self.candidate!r}")
        for name in ("yes_token_id", "no_token_id"):
            if not _is_decimal(getattr(self, name)):
                raise ConfigError(f"market {self.candidate!r}: {name} must be a decimal "
                                  f"string, got {getattr(self, name)!r}")
        if self.yes_token_id == self.no_token_id:
            raise ConfigError(f"market {self.candidate!r}: YES and NO token ids are equal")
        if COLLATERAL_ID in (self.yes_token_id, self.no_token_id):
            raise ConfigError(f"market {self.candidate!r}: token id clashes with collateral id")


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


def _table_records(fh, is_csv: bool, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) per non-blank JSONL line or CSV row of text file ``fh``:
    the one reader of both table formats.

    A JSONL line must hold one JSON object. A CSV file starts with a header
    naming every ``required`` column, and each row has exactly as many cells
    as the header; its record maps the header's names to its cells (a
    repeated name counts its last column), and its line number is the line
    where the row ends. A violation, or text the CSV reader rejects (such as
    a cell past its field size limit), raises ParseError naming the line.
    """
    if not is_csv:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON: {exc}", line_no) from exc
                except (ValueError, RecursionError) as exc:  # past the digit limit; deep nesting
                    raise ParseError(str(exc), line_no) from exc
                if not isinstance(record, dict):
                    raise ParseError("record is not an object", line_no)
                yield line_no, record
        return
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            return
        missing = [c for c in required if c not in header]
        if missing:
            raise ParseError(f"CSV header missing columns: {missing}", 1)
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ParseError(
                        f"expected {len(header)} columns, got {len(row)}", reader.line_num)
                yield reader.line_num, dict(zip(header, row))
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from exc


def _utf8_error(fh) -> ParseError:
    """ParseError naming the first line of seekable binary file ``fh`` with a byte that is
    not UTF-8.

    Text files decode ahead of the line being read, so the file is read again
    from its start with each bad byte b escaped to U+DC00+b, splitting lines
    as before.
    """
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape")
    try:
        for line_no, line in enumerate(text, start=1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                return ParseError(f"not valid UTF-8 (byte 0x{ord(bad[0]) - 0xDC00:02x})", line_no)
        return ParseError("not valid UTF-8")
    finally:
        text.detach()


_ALL_BUT_LAST = itemgetter(slice(None, -1))


def write_table(path, fields: Sequence[str], rows: Iterable[Sequence], fmt: str) -> None:
    """Write rows, each a sequence of values in ``fields`` order.

    CSV (``fmt`` "csv") gets a ``fields`` header and each row as given, each
    line ending in LF and every cell holding a CR or an LF quoted; JSONL gets
    one object per row, keyed by ``fields`` in order.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            # Rows ending in LF leave a lone CR bare, which no reader takes back; LF CR quotes
            # it. Lines are gathered 1,024 at a time, and written without the CR, all in C.
            lines: list[str] = []
            writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n\r")
            writer.writerow(fields)
            rows = iter(rows)
            while lines:
                fh.write("".join(map(_ALL_BUT_LAST, lines)))
                lines.clear()
                writer.writerows(islice(rows, 1024))
        else:
            fh.writelines(json.dumps(dict(zip(fields, row))) + "\n" for row in rows)


# CSV ledgers may leave timestamps to a block->time sidecar.
_REQUIRED_FILL_FIELDS = tuple(f for f in FILL_FIELDS if f != "timestamp")


def read_fills(path, block_times: Mapping[int, int] | None = None) -> list[FillEvent]:
    """Read a ledger shard (JSONL, or CSV with a header row).

    Each line or row is read as a record by ``_table_records`` and built by
    ``fill_from_record``, which takes a missing or empty timestamp from
    ``block_times``; an error names the line.

    The fills of a regular file are cached by its bytes (README, "Parsed-table
    cache"): a first read parses and stores them, and a later read of the same
    bytes, under any name or file time, skips the parse. A pipe is parsed,
    uncached.
    """
    return _read_cached(path, lambda fh, is_csv: _parse_fills(fh, is_csv, block_times),
                        lambda digest, is_csv: _fill_key_parts(digest, is_csv, block_times),
                        lambda fills: (tuple(map(itemgetter(i), fills))
                                       for i in range(len(FILL_FIELDS))),
                        lambda columns: list(map(tuple.__new__, repeat(FillEvent), zip(*columns))))


def _read_cached(path, parse_text, key_parts, columns, rows) -> list:
    """``parse_text(text file, is_csv)`` of the file at ``path`` (CSV when it ends in ".csv"),
    through the parsed-table cache. ``key_parts(digest, is_csv)`` feeds the key's hash what
    the parse depends on besides this module and the file; ``columns(table)`` yields its
    columns, each a tuple ``marshal`` takes, and ``rows(columns)`` builds it back or raises."""
    is_csv = str(path).endswith(".csv")

    def parse(fh):  # the binary file stays open
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="" if is_csv else None)
        try:
            return parse_text(text, is_csv)
        except UnicodeDecodeError:
            pass  # rescanned below, once the wrapper has let go of the file
        finally:
            text.detach()
        raise _utf8_error(fh)

    directory = os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "fillflow")
    with _read_input(path) as (fh, regular, hexdigest):
        # A pipe's copy is not cached; a relative directory (no home) would land in the cwd.
        if not regular or not os.path.isabs(directory):
            return parse(fh)
        digest = hashlib.sha256(_parser_fingerprint())
        key_parts(digest, is_csv)
        digest.update(hexdigest.encode())
        key = digest.hexdigest()
        table = _cache_load(os.path.join(directory, key), rows)
        if table is not None:
            return table
        table = parse(fh)
    _cache_store(directory, key, columns(table))  # the parsed bytes are the hashed ones
    return table


_identity = attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")

# Each input path as given -> hex SHA-256 of the bytes last read from it in this process:
# the digests a command's manifest records.
_INPUT_DIGESTS: dict[str, str] = {}


@contextlib.contextmanager
def _read_input(path):
    """Open the input at ``path`` once, hash all its bytes and record the digest in
    ``_INPUT_DIGESTS``; yield the binary file at its start, whether it is a regular file,
    and the digest.

    An input that is not a regular file, such as a pipe, cannot be read twice: its bytes
    are copied into an anonymous temporary file as they are hashed, which is yielded. One
    open also leaves a file renamed over ``path`` unread. A regular file whose size or
    times differ, when the block exits normally, from when it was opened was written to
    while it was read, so its bytes may not be the hashed ones: that raises DataError.
    """
    with open(path, "rb") as source:
        status = os.fstat(source.fileno())
        regular = S_ISREG(status.st_mode)
        with contextlib.nullcontext(source) if regular else tempfile.TemporaryFile() as fh:
            digest = hashlib.sha256()
            while chunk := source.read(1 << 20):
                digest.update(chunk)
                if not regular:
                    fh.write(chunk)
            fh.seek(0)
            _INPUT_DIGESTS[str(path)] = hexdigest = digest.hexdigest()
            yield fh, regular, hexdigest
        if regular and _identity(os.fstat(source.fileno())) != _identity(status):
            raise DataError(f"{path}: the file changed while it was read")


def _load_json(path):
    """The JSON document in the input at ``path``, decoded as UTF-8 text as
    ``open(path, encoding="utf-8")`` reads it; a bad byte or document raises ValueError."""
    with _read_input(path) as (fh, _, _):
        text = io.TextIOWrapper(fh, encoding="utf-8")
        try:
            return json.load(text)
        finally:
            text.detach()


def _parse_fills(fh, is_csv: bool, block_times) -> list[FillEvent]:
    """Parse text file ``fh``: ``read_fills`` without its cache."""
    return [fill_from_record(record, line_no, block_times)
            for line_no, record in _table_records(fh, is_csv, _REQUIRED_FILL_FIELDS)]


def _fill_key_parts(digest, is_csv: bool, block_times) -> None:
    """Hash the format and the sidecar: each item's repr, quoted, sorted as text (keys may
    not compare), one item at a time."""
    digest.update(repr((is_csv, block_times is None)).encode())
    for item in sorted(map(repr, (block_times or {}).items())):
        digest.update(repr(item).encode())


def _parser_fingerprint() -> bytes:
    """SHA-256 of this module's file (read by its loader, so also from a zip archive), the
    Python version, which fixes the ``marshal`` format of cache entries, and the integer
    digit limit, past which a cell is rejected."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # none before 3.10.7
    return hashlib.sha256(__loader__.get_data(__file__)
                          + f"{sys.version} {limit}".encode()).digest()


def _cache_load(entry: str, rows) -> list | None:
    """``rows`` of the columns in cache file ``entry``, or None when it cannot be read or
    verified or ``rows`` raises."""
    try:
        with open(entry, "rb") as fh:
            data = fh.read()
        os.utime(entry)  # a hit makes the entry the most recently used
        payload, digest = memoryview(data)[:-32], data[-32:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        columns, view = [], memoryview(payload)
        while view:  # each column's size in 8 bytes, then its ``marshal``
            size = int.from_bytes(view[:8], "little")
            columns.append(marshal.loads(view[8:8 + size]))
            view = view[8 + size:]
        return rows(columns)  # interned strings come back interned: equal ones share one object
    except (OSError, EOFError, LookupError, ValueError, TypeError):
        return None


def _cache_store(directory: str, name: str, columns: Iterable[tuple]) -> None:
    """Write cache entry ``name`` of ``columns`` atomically: each column as its size and its
    ``marshal``, one ``marshal`` in memory at a time, then the SHA-256 of those bytes. Then
    remove the least recently used files beyond the newest 8. A file system that refuses
    only skips the store."""
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=directory)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            digest = hashlib.sha256()
            for column in columns:
                # Version 4 refs make equal strings one object, but index every object
                # written; integers are written without them.
                data = marshal.dumps(column, 4 if column and type(column[0]) is str else 2)
                for part in (len(data).to_bytes(8, "little"), data):
                    digest.update(part)
                    fh.write(part)
            fh.write(digest.digest())
        os.replace(temp, os.path.join(directory, name))
        files = sorted(os.scandir(directory), key=lambda file: file.stat().st_mtime_ns)
        for stale in files[:-8]:
            os.remove(stale)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temp)  # gone already when the replace succeeded


class _JsonStrings(dict):
    """Memo of ``json.dumps`` over strings: each distinct key is encoded once."""

    def __missing__(self, text):
        encoded = self[text] = json.dumps(text)
        return encoded


def fill_lines(fills: Iterable[FillEvent]) -> Iterator[str]:
    """Yield each fill's canonical JSONL line, formatted directly.

    The line is what ``json.dumps`` gives, plus "\\n", for the fill's wire
    record: FILL_FIELDS keys in order, the amounts as digit strings and the
    other fields as they are. Each distinct address and asset id is encoded
    once per call. A FillEvent's integers are plain ints, whose ``str`` is
    the JSON integer ``json.dumps`` writes.
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
        write_table(path, FILL_FIELDS, fills, fmt)  # a fill's fields are in FILL_FIELDS order
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(fill_lines(fills))


def load_block_times(path) -> dict[int, int]:
    """Block->timestamp sidecar: JSON object of block number to UTC seconds.

    Keys must be ASCII decimal block numbers and values UTC instants that
    ``parse_utc`` accepts; anything else raises ParseError naming the key.
    """
    try:
        raw = _load_json(path)
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


def market_slots(markets: Sequence[MarketSpec]) -> dict[str, int]:
    """The token index: token id -> 2i for the YES token of ``markets[i]``, 2i + 1 for its NO.

    ``slot >> 1`` is the market, ``slot & 1`` the side (0 YES, 1 NO) and the slot
    the token's participation bit. Raises ConfigError when a token id or a
    candidate belongs to two markets.
    """
    slots: dict[str, int] = {}
    named: dict[str, int] = {}
    for i, market in enumerate(markets):
        if named.setdefault(market.candidate, i) != i:
            raise ConfigError(f"candidate {market.candidate!r} names markets "
                              f"{named[market.candidate]} and {i}")
        for slot, token in enumerate((market.yes_token_id, market.no_token_id), 2 * i):
            if slots.setdefault(token, slot) != slot:
                owner = markets[slots[token] >> 1].candidate
                raise ConfigError(
                    f"token id {token} claimed by both {owner!r} and {market.candidate!r}")
    return slots


def markets_from_entries(entries) -> list[MarketSpec]:
    """Build validated MarketSpecs from decoded config entries."""
    if not isinstance(entries, list):
        raise ConfigError("market config must contain a 'markets' list")
    markets: list[MarketSpec] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"market entry {i}: not an object")
        try:
            spec = MarketSpec(
                candidate=entry["candidate"],
                yes_token_id=entry["yesTokenId"],
                no_token_id=entry["noTokenId"],
                launch=parse_utc(entry["launch"]),
                resolution=parse_utc(entry["resolution"]) if entry.get("resolution") else None,
            )
        except KeyError as exc:
            raise ConfigError(f"market entry {i}: missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ConfigError(f"market entry {i}: bad launch or resolution: {exc}") from exc
        markets.append(spec)
    market_slots(markets)
    return markets


def load_market_config(path) -> list[MarketSpec]:
    """Load the market configuration document.

    One JSON document listing markets; every token id may appear in at most
    one market, and each market must pair YES and NO explicitly.
    """
    try:
        doc = _load_json(path)
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
