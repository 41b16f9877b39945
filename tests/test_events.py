import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import read_table

from fillflow import decompose, events
from fillflow.decompose import (DecomposedTransaction, TxKind, VolumeComponents, read_decomposed,
                               write_decomposed)
from fillflow.errors import (
    ConfigError,
    DataError,
    DuplicateEventError,
    ParseError,
    SchemaError,
)
from fillflow.events import (
    FILL_FIELDS,
    FillEvent,
    Transaction,
    fill_from_record,
    fill_lines,
    group_transactions,
    load_block_times,
    load_market_config,
    market_slots,
    read_fills,
    write_fills,
    write_market_config,
    write_table,
)
from fillflow.fixtures import TRUMP_NO
from fillflow.synthetic import load_scenario

TOKEN = TRUMP_NO


def make_fill(block=1, tx_index=0, log_index=0, buy=True, usdc=590_000, shares=1_000_000, ts=1709640000):
    if buy:
        return FillEvent(block, tx_index, log_index, "0xaa", "0xbb", "0", TOKEN, usdc, shares, ts)
    return FillEvent(block, tx_index, log_index, "0xaa", "0xbb", TOKEN, "0", shares, usdc, ts)


HEADER = ",".join(FILL_FIELDS)


def read_csv_line(tmp_path, line, header=HEADER, block_times=None):
    path = tmp_path / "fills.csv"
    path.write_text(f"{header}\n{line}\n", encoding="utf-8")
    return read_fills(path, block_times=block_times)


def read_json_lines(tmp_path, *records, block_times=None):
    path = tmp_path / "fills.jsonl"
    path.write_text("".join(r if isinstance(r, str) else json.dumps(r) + "\n"
                            for r in records), encoding="utf-8")
    return read_fills(path, block_times=block_times)


def wire_record(**changes):
    record = {
        "block": 54432034, "txIndex": 44, "logIndex": 101,
        "maker": "0x351", "taker": "0xC5d",
        "makerAssetId": "0", "takerAssetId": TOKEN,
        "makerAmountFilled": "6000000000", "takerAmountFilled": "6000000000",
        "timestamp": 1714557600,
    }
    record.update(changes)
    return record


class TestParsing:
    def test_csv_row_canonical_order(self, tmp_path):
        line = f"51953200,180,826,0x9d8,0xC5d,0,{TOKEN},123900000,210000000,1709640000"
        fill, = read_csv_line(tmp_path, line)
        assert fill.maker_amount == 123_900_000
        assert fill.taker_amount == 210_000_000
        assert fill.is_buy
        assert fill.token_id == TOKEN

    def test_jsonl_string_amounts_become_exact_integers(self, tmp_path):
        fill, = read_json_lines(tmp_path, wire_record())
        # independent text-to-integer check
        assert fill.maker_amount == int("6000000000") == 6_000_000_000
        assert isinstance(fill.maker_amount, int)

    def test_both_asset_ids_collateral_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="line 2: both"):
            read_csv_line(tmp_path, "1,0,0,0xaa,0xbb,0,0,100,100,1")

    def test_neither_asset_id_collateral_rejected(self):
        with pytest.raises(SchemaError, match="neither"):
            make_fill().__class__(1, 0, 0, "0xaa", "0xbb", TOKEN, TOKEN, 1, 1, 1)

    def test_malformed_line_reports_line_number(self, tmp_path):
        lines = [json.dumps(wire_record(logIndex=i)) + "\n" for i in range(6)]
        with pytest.raises(ParseError, match="line 7: invalid JSON"):
            read_json_lines(tmp_path, *lines, "{not json\n")
        with pytest.raises(ParseError, match="line 2: record is not an object"):
            read_json_lines(tmp_path, lines[0], "[1, 2]\n")

    def test_malformed_amount_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2: makerAmountFilled"):
            read_csv_line(tmp_path, f"1,0,0,0xaa,0xbb,0,{TOKEN},12.5,100,1")

    @pytest.mark.parametrize("line", [
        f"1,0,0,0xaa,0xbb,0,{TOKEN},100,100,1,EXTRA",
        f"1,0,0,0xaa,0xbb,0,{TOKEN},100,100",
    ], ids=["extra-value", "short-row"])
    def test_csv_column_count_enforced(self, tmp_path, line):
        with pytest.raises(ParseError, match="line 2: expected 10 columns"):
            read_csv_line(tmp_path, line)

    @pytest.mark.parametrize("field, value", [
        ("makerAmountFilled", "\u0661\u0660"),  # Arabic-Indic digits one, zero
        ("takerAmountFilled", "\u00b2"),
        ("block", "-"),
        ("logIndex", "1_0"),
    ])
    def test_only_ascii_integers_accepted(self, tmp_path, field, value):
        with pytest.raises(ParseError, match=f"line 1: {field}: not an integer"):
            read_json_lines(tmp_path, wire_record(**{field: value}))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("field, value, message", [
        ("makerAmountFilled", " 200000000 ", "makerAmountFilled: not an integer: ' 200000000 '"),
        ("makerAssetId", " 0", "maker_asset_id must be a decimal string, got ' 0'"),
    ], ids=["padded-amount", "padded-asset-id"])
    def test_padded_value_rejected(self, tmp_path, fmt, field, value, message):
        record = wire_record(**{field: value})
        with pytest.raises((ParseError, SchemaError)) as err:
            if fmt == "csv":
                read_csv_line(tmp_path, ",".join(str(record[f]) for f in FILL_FIELDS))
            else:
                read_json_lines(tmp_path, record)
        assert str(err.value) == f"line {2 if fmt == 'csv' else 1}: {message}"

    def test_token_id_must_be_ascii_digits(self, tmp_path):
        with pytest.raises(SchemaError, match="line 1: taker_asset_id"):
            read_json_lines(tmp_path, wire_record(takerAssetId="\u00b2"))

    def test_negative_amount_rejected(self):
        with pytest.raises(SchemaError):
            make_fill(usdc=-5)

    def test_timestamp_from_block_sidecar(self, tmp_path):
        record = wire_record(block=9)
        del record["timestamp"]
        fill, = read_json_lines(tmp_path, record, block_times={9: 555})
        assert fill.timestamp == 555
        with pytest.raises(ParseError, match="line 1: missing timestamp"):
            read_json_lines(tmp_path, record)
        header = HEADER.replace(",timestamp", "")
        fill, = read_csv_line(tmp_path, f"9,0,0,a,b,0,{TOKEN},1,1", header, {9: 555})
        assert fill.timestamp == 555


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_fixture_fills_round_trip_bit_exact(self, tmp_path, example_fills, fmt):
        path = tmp_path / f"fills.{fmt}"
        write_fills(path, example_fills, fmt)
        assert read_fills(path) == example_fills

    def test_generator_fills_round_trip(self, tmp_path, small_ledger):
        path = tmp_path / "fills.jsonl"
        write_fills(path, small_ledger.fills)
        assert read_fills(path) == small_ledger.fills

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "fills.csv"
        path.write_text("1,0,0,a,b,0,5,1,1,1\n")
        with pytest.raises(ParseError):
            read_fills(path)

    def test_record_keys_are_canonical(self, tmp_path, example_fills):
        assert tuple(json.loads(next(fill_lines(example_fills)))) == FILL_FIELDS
        path = tmp_path / "fills.csv"
        write_fills(path, example_fills, "csv")
        assert path.read_text(encoding="utf-8").split("\n", 1)[0] == HEADER

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_line_breaks_in_addresses_round_trip(self, tmp_path, fmt):
        fills = [make_fill()._replace(maker="a\r\nb", taker="c\rd"),
                 make_fill(log_index=1, buy=False)._replace(maker="\r", taker="e\nf"),
                 make_fill(log_index=2)._replace(maker="g\n\rh", taker="\n\r")]
        path = tmp_path / f"fills.{fmt}"
        write_fills(path, fills, fmt)
        assert read_fills(path) == fills


def test_csv_table_spanning_write_chunks(tmp_path):
    # More rows than the writer gathers at once; a cell may hold its LF CR line end.
    rows = [(n, f"m{n}") for n in range(2500)]
    rows[1500:1502] = [(1500, "a\n\rb"), (1501, "\r")]
    path = tmp_path / "table.csv"
    write_table(path, ["n", "text"], rows, "csv")
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [["n", "text"]] + [[str(n), text] for n, text in rows]
    plain = [row for row in rows if row[1].isalnum()]
    write_table(path, ["n", "text"], plain, "csv")
    assert path.read_text(encoding="utf-8") == "n,text\n" + "".join(
        f"{n},{text}\n" for n, text in plain)


def reference_read_fills(path, block_times=None):
    """The general reader: every line or row decoded as a record, then checked."""
    return [fill_from_record(record, line_no, block_times) for line_no, record in
            read_table(path, [f for f in FILL_FIELDS if f != "timestamp"])]


def outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


BASE_LINE = json.dumps(wire_record()) + "\n"
HUGE = "9" * 5000


def mutate(old, new):
    assert old in BASE_LINE
    return BASE_LINE.replace(old, new, 1)


class TestJsonlReader:
    def test_generator_ledger_matches_reference(self, tmp_path, small_ledger):
        path = tmp_path / "fills.jsonl"
        write_fills(path, small_ledger.fills)
        assert read_fills(path) == reference_read_fills(path) == small_ledger.fills

    @pytest.mark.parametrize("mutant", [
        mutate('"txIndex": 44', '"txIndex": 044'),
        mutate('"logIndex": 101', '"logIndex": -1'),
        mutate('"timestamp": 1714557600', '"timestamp": -1'),
        mutate('"block": 54432034', '"block": 1.0'),
        mutate('"timestamp": 1714557600', '"timestamp": 1e3'),
        mutate('"block": 54432034', '"block": true'),
        mutate('"makerAssetId": "0"', '"makerAssetId": "\\u0030"'),
        mutate('"maker": "0x351"', '"maker": "0x\x01351"'),
        mutate('"maker": "0x351"', '"maker": "0x\\"351"'),
        mutate('"maker": "0x351"', '"maker": "0x\u00e9351"'),
        mutate(f'"takerAssetId": "{TOKEN}"', f'"takerAssetId": "{TOKEN}\u0663"'),
        mutate(f'"takerAssetId": "{TOKEN}"', '"takerAssetId": "0"'),
        mutate(f'"takerAssetId": "{TOKEN}"', '"takerAssetId": ""'),
        mutate('"block": 54432034', f'"block": {HUGE}'),
        mutate('"makerAmountFilled": "6000000000"', f'"makerAmountFilled": "{HUGE}"'),
        mutate('"block": 54432034', '"block":  54432034'),
        mutate('"block": 54432034', '"block" : 54432034'),
        json.dumps(dict(reversed(wire_record().items()))) + "\n",
        mutate("}", ', "block": 7}'),
        mutate("}", "}x"),
        mutate("}", "} "),
        BASE_LINE.rstrip("\n"),
        "\n  \n" + BASE_LINE + "\n",
        mutate('"maker": "0x351"', '"maker": ""'),
        mutate('"maker": "0x351"', '"maker": "0x\\\\351"'),
        mutate('"maker": "0x351"', '"maker": "0x\\u00e9351"'),
        mutate('"taker": "0xC5d"', '"taker": "0x\\/C5d"'),
        mutate('"maker": "0x351"', '"maker": "0x\x7f351"'),
        mutate('"maker": "0x351"', '"maker": "0x\u00a0351"'),
        mutate(f'"takerAssetId": "{TOKEN}"', '"takerAssetId": "0x351"'),
        mutate(f'"takerAssetId": "{TOKEN}"', f'"takerAssetId": "{TOKEN}\\u0030"'),
    ], ids=["leading-zero", "negative-log-index", "negative-timestamp", "fraction",
            "exponent", "bool", "escaped-collateral-id", "control-char-in-maker",
            "escaped-quote-in-maker", "non-ascii-maker", "non-ascii-digit-token-id",
            "both-collateral", "empty-token-id", "huge-integer", "huge-amount",
            "extra-space", "space-before-colon", "reordered-keys", "duplicated-key",
            "trailing-x", "trailing-space", "no-final-newline", "blank-lines",
            "empty-maker", "escaped-backslash-in-maker", "escaped-non-ascii-maker",
            "escaped-slash-in-taker", "del-in-maker", "no-break-space-in-maker",
            "address-as-asset-id", "escaped-digit-in-token-id"])
    def test_near_canonical_mutant_matches_reference(self, tmp_path, mutant):
        path = tmp_path / "fills.jsonl"
        path.write_text(BASE_LINE + mutant, encoding="utf-8")
        assert outcome(read_fills, path) == outcome(reference_read_fills, path)

    @pytest.mark.parametrize("maker_asset, taker_asset, which", [
        ("0", "0", "both"), (TOKEN, TOKEN, "neither"),
    ], ids=["both", "neither"])
    def test_canonical_line_without_one_collateral_id_names_the_line(
            self, tmp_path, maker_asset, taker_asset, which):
        line = json.dumps(wire_record(makerAssetId=maker_asset, takerAssetId=taker_asset)) + "\n"
        with pytest.raises(SchemaError) as err:
            read_json_lines(tmp_path, BASE_LINE, line)
        assert str(err.value) == (
            f"line 2: {which} asset ids are collateral in fill (54432034, 44, 101); "
            "every fill must exchange collateral against one outcome token")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_equal_strings_share_one_object(self, tmp_path, monkeypatch, small_ledger, fmt):
        twin_fmt = "csv" if fmt == "jsonl" else "jsonl"
        for f in (fmt, twin_fmt):
            write_fills(tmp_path / f"fills.{f}", small_ledger.fills, f)
        fills = read_fills(tmp_path / f"fills.{fmt}")
        first: dict[str, str] = {}
        for fill in fills:
            for value in (fill.maker, fill.taker, fill.maker_asset_id, fill.taker_asset_id):
                assert first.setdefault(value, value) is value
        assert len(first) < len(fills)
        # Strings are interned, so the other format's read shares the same objects.
        twin = read_fills(tmp_path / f"fills.{twin_fmt}")
        assert twin == fills
        for fill, other in zip(fills, twin):
            assert all(a is b for a, b in zip(fill[3:7], other[3:7]))
        # A read from the parsed-fill cache, which the first read filled, shares them as well.
        monkeypatch.setattr(events, "_parse_fills", refuse_parse)
        cached = read_fills(tmp_path / f"fills.{fmt}")
        assert cached == fills
        for fill, other in zip(fills, cached):
            assert all(a is b for a, b in zip(fill[3:7], other[3:7]))


def csv_text(*records, fields=FILL_FIELDS):
    """A CSV ledger: a ``fields`` header, then each record's cells in that order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([record[f] for f in fields] for record in records)
    return buf.getvalue()


BASE = wire_record()
BASE_CSV = csv_text(BASE)
BASE_ROW = BASE_CSV.split("\n")[1]
SIDECAR = {54432034: 1714557600, 7: 1714550000}
UNTIMED_FIELDS = FILL_FIELDS[:-1]
INTEGER_COLUMNS = ("block", "txIndex", "logIndex", "makerAmountFilled", "takerAmountFilled",
                   "timestamp")


def csv_mutant(**changes):
    return csv_text(BASE, wire_record(**changes))


CSV_MUTANTS = [
    pytest.param(csv_mutant(txIndex="044"), None, id="leading-zeros"),
    pytest.param(csv_mutant(logIndex="+5"), None, id="plus-sign"),
    pytest.param(csv_mutant(block=" 54432034"), None, id="leading-space"),
    pytest.param(csv_mutant(timestamp="1714557600 "), None, id="trailing-space"),
    pytest.param(csv_mutant(makerAmountFilled="1_0"), None, id="underscore"),
    pytest.param(csv_mutant(takerAmountFilled="\u0665"), None, id="arabic-indic-digit"),
    pytest.param(csv_mutant(logIndex="\u00b2"), None, id="superscript-two"),
    *[pytest.param(csv_mutant(**{column: ""}), None, id=f"empty-{column}")
      for column in INTEGER_COLUMNS],
    pytest.param(csv_mutant(block=HUGE), None, id="huge-block"),
    pytest.param(csv_mutant(makerAmountFilled=HUGE), None, id="huge-amount"),
    pytest.param(csv_mutant(block=7, timestamp=1714550000), None, id="next-block"),
    pytest.param(csv_mutant(timestamp=""), SIDECAR, id="empty-timestamp-with-sidecar"),
    pytest.param(csv_text(BASE, wire_record(timestamp=""), wire_record(logIndex=102)), SIDECAR,
                 id="sidecar-then-inline-timestamp"),
    pytest.param(csv_mutant(block=8, timestamp=""), SIDECAR, id="block-not-in-sidecar"),
    pytest.param(csv_mutant(timestamp=""), {54432034: -1}, id="negative-sidecar-time"),
    pytest.param(csv_mutant(timestamp=""), {54432034: "1714557600"}, id="text-sidecar-time"),
    pytest.param(csv_mutant(timestamp=""), {"54432034": 1714557600}, id="text-sidecar-block"),
    pytest.param(csv_text(BASE, wire_record(block=7), fields=UNTIMED_FIELDS), SIDECAR,
                 id="no-timestamp-column-with-sidecar"),
    pytest.param(csv_text(BASE, fields=UNTIMED_FIELDS), None,
                 id="no-timestamp-column-without-sidecar"),
    pytest.param(csv_mutant(makerAmountFilled="-5"), None, id="negative-amount"),
    pytest.param(csv_mutant(takerAssetId="0"), None, id="both-collateral"),
    pytest.param(csv_mutant(makerAssetId=TOKEN), None, id="neither-collateral"),
    pytest.param(csv_mutant(takerAssetId="12a"), None, id="non-digit-asset-id"),
    pytest.param(csv_mutant(takerAssetId=f"{TOKEN}\u0663"), None,
                 id="non-ascii-digit-asset-id"),
    pytest.param(csv_mutant(takerAssetId=""), None, id="empty-asset-id"),
    # The base row's maker, accepted as an address, must still be checked as an asset id.
    pytest.param(csv_mutant(takerAssetId=BASE["maker"]), None, id="address-as-asset-id"),
    pytest.param(csv_mutant(maker="0x\\351"), None, id="backslash-in-address"),
    pytest.param(csv_mutant(taker="0x\x01C5d\x7f"), None, id="control-chars-in-address"),
    pytest.param(csv_mutant(maker="0x,351"), None, id="quoted-comma"),
    pytest.param(csv_mutant(maker='0x"351'), None, id="quoted-quote"),
    pytest.param(csv_text(BASE, wire_record(maker="0x\n351"), wire_record(logIndex=-1)), None,
                 id="quoted-newline-then-bad-row"),
    pytest.param(BASE_CSV + BASE_ROW.replace("0x351,0xC5d", '"0x\r\n351","\r"') + "\n", None,
                 id="quoted-cr"),
    pytest.param(f"{HEADER},maker\n{BASE_ROW},0xdup\n", None, id="repeated-header-name"),
    pytest.param(csv_text({**BASE, "extra": "x"}, wire_record(logIndex=102, extra="-1"),
                          fields=("extra", *FILL_FIELDS)), None, id="extra-column"),
    pytest.param(csv_text(BASE, wire_record(logIndex=102), fields=FILL_FIELDS[::-1]), None,
                 id="reordered-columns"),
    pytest.param(BASE_CSV + BASE_ROW.rsplit(",", 1)[0] + "\n", None, id="short-row"),
    pytest.param(BASE_CSV + BASE_ROW + ",7\n", None, id="long-row"),
    pytest.param(BASE_CSV + "\n\r\n" + csv_mutant(logIndex=102).split("\n", 2)[2] + "\n",
                 None, id="blank-rows"),
]


class TestCsvReader:
    @pytest.mark.parametrize("text, block_times", CSV_MUTANTS)
    def test_near_canonical_csv_mutant_matches_reference(self, tmp_path, text, block_times):
        path = tmp_path / "fills.csv"
        path.write_bytes(text.encode("utf-8"))
        got = outcome(lambda p: read_fills(p, block_times), path)
        assert got == outcome(lambda p: reference_read_fills(p, block_times), path)
        if isinstance(got, list):  # the same values, of the same types
            assert [list(map(type, fill)) for fill in got] == [
                list(map(type, FillEvent(*fill))) for fill in got]


def refuse_parse(*args):
    raise AssertionError("the ledger was parsed, not read from the cache")


def refuse_read(*args):
    raise AssertionError("the input was read again")


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` from now on; return the list of their arguments."""
    calls, function = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or function(*args))
    return calls


def cache_files(fill_cache):
    """The files in the cache directory."""
    return sorted(fill_cache.iterdir()) if fill_cache.exists() else []


def untimed_csv(path, fills):
    """Write ``fills`` as a CSV without a timestamp column; return their block -> time map."""
    write_table(path, UNTIMED_FIELDS, [fill[:-1] for fill in fills], "csv")
    return {fill.block: fill.timestamp for fill in fills}


class TestFillCache:
    """The parsed-fill cache behind ``read_fills``; ``fill_cache`` is this test's own."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv", "untimed-csv"])
    def test_hit_returns_the_parsed_fills_without_parsing(self, tmp_path, monkeypatch,
                                                         fill_cache, small_ledger, fmt):
        path = tmp_path / f"fills.{fmt.removeprefix('untimed-')}"
        block_times = None
        if fmt == "untimed-csv":
            block_times = untimed_csv(path, small_ledger.fills)
        else:
            write_fills(path, small_ledger.fills, fmt)
        cold = read_fills(path, block_times)
        assert cold == small_ledger.fills
        assert len(cache_files(fill_cache)) == 1  # the first read stores the entry
        # A key that changed from run to run would miss here and parse.
        monkeypatch.setattr(events, "_parse_fills", refuse_parse)
        warm = read_fills(path, block_times)
        assert warm == cold
        assert [list(map(type, fill)) for fill in warm] == [
            list(map(type, fill)) for fill in cold]
        assert all(type(fill) is FillEvent for fill in warm)

    @pytest.mark.parametrize("damage", ["truncated", "flipped-byte", "other-parser"])
    def test_damaged_or_foreign_entry_is_parsed_again_and_rewritten(
            self, tmp_path, monkeypatch, fill_cache, example_fills, damage):
        path = tmp_path / "fills.jsonl"
        write_fills(path, example_fills)
        fingerprint = events._parser_fingerprint
        if damage == "other-parser":
            monkeypatch.setattr(events, "_parser_fingerprint", lambda: b"another parser")
        read_fills(path)
        entry, = cache_files(fill_cache)
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[:len(good) // 2])
        elif damage == "flipped-byte":
            entry.write_bytes(good[:-7] + bytes([good[-7] ^ 1]) + good[-6:])
        monkeypatch.setattr(events, "_parser_fingerprint", fingerprint)
        parses = []
        parse = events._parse_fills
        monkeypatch.setattr(events, "_parse_fills",
                            lambda *args: parses.append(args) or parse(*args))
        assert read_fills(path) == example_fills
        assert len(parses) == 1
        if damage == "other-parser":  # an entry of its own, next to the foreign one
            assert len(cache_files(fill_cache)) == 2
        else:
            assert entry.read_bytes() == good

    def test_format_and_sidecar_are_part_of_the_key(self, tmp_path, fill_cache, example_fills):
        # The only bytes that are a ledger in both formats: an empty file.
        for name in ("empty.jsonl", "empty.csv"):
            (tmp_path / name).write_bytes(b"")
            assert read_fills(tmp_path / name) == read_fills(tmp_path / name) == []
        assert len(cache_files(fill_cache)) == 2
        path = tmp_path / "untimed.csv"
        times = untimed_csv(path, example_fills)
        later = {block: time + 60 for block, time in times.items()}
        for sidecar in (times, later, times, later):
            assert [fill.timestamp for fill in read_fills(path, sidecar)] == [
                sidecar[fill.block] for fill in example_fills]
        assert len(cache_files(fill_cache)) == 4

    def test_at_most_eight_entries_least_recently_used_first_out(self, tmp_path, monkeypatch,
                                                                 fill_cache, example_fills):
        def entry(path):
            key = hashlib.sha256(events._parser_fingerprint())
            events._fill_key_parts(key, False, None)
            key.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
            return fill_cache / key.hexdigest()

        paths = [tmp_path / f"shard{i}.jsonl" for i in range(11)]
        for i, path in enumerate(paths[:10]):
            write_fills(path, example_fills[i:])
            read_fills(path)
            # File times can tie, so each entry gets its own.
            os.utime(entry(path), ns=(i * 10**9, i * 10**9))
            assert len(cache_files(fill_cache)) == min(i + 1, 8)
        assert [entry(path).exists() for path in paths[:10]] == [False] * 2 + [True] * 8
        read_fills(paths[2])  # a hit: the oldest entry becomes the newest
        write_fills(paths[10], example_fills[:1])
        read_fills(paths[10])
        assert [entry(path).exists() for path in paths] == [False, False, True, False] + [True] * 7
        monkeypatch.setattr(events, "_parse_fills", refuse_parse)
        read_fills(paths[2])

    def test_sidecar_with_keys_of_mixed_types_is_keyed(self, tmp_path, fill_cache,
                                                       example_fills):
        path = tmp_path / "untimed.csv"
        times = untimed_csv(path, example_fills)
        mixed = {**times, "not a block": "not a time"}
        for sidecar in (times, mixed, mixed):
            assert read_fills(path, sidecar) == example_fills
        assert len(cache_files(fill_cache)) == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_digit_limit_is_part_of_the_key(self, tmp_path, fill_cache):
        path = tmp_path / "fills.jsonl"
        path.write_text(BASE_LINE.replace('"6000000000"', f'"{HUGE}"'))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            fill, = read_fills(path)
        finally:
            sys.set_int_max_str_digits(limit)
        assert fill.maker_amount == 10**len(HUGE) - 1
        assert len(cache_files(fill_cache)) == 1
        with pytest.raises(ParseError, match="line 1"):  # parsed again, under the limit
            read_fills(path)

    def test_file_written_between_hash_and_parse_fails_and_is_not_stored(
            self, tmp_path, monkeypatch, fill_cache, example_fills):
        path = tmp_path / "fills.jsonl"
        write_fills(path, example_fills)
        whole = path.read_bytes()
        load = events._cache_load

        def cut_then_load(entry, rows):  # another process rewrites the ledger: one line is left
            with open(path, "r+b") as fh:
                fh.truncate(whole.index(b"\n") + 1)
            return load(entry, rows)

        monkeypatch.setattr(events, "_cache_load", cut_then_load)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: the file changed "):
            read_fills(path)
        assert cache_files(fill_cache) == []
        monkeypatch.setattr(events, "_cache_load", load)
        path.write_bytes(whole)  # the hashed bytes again: parsed, not the cut file's fill
        assert read_fills(path) == read_fills(path) == example_fills
        assert len(cache_files(fill_cache)) == 1

    def test_same_bytes_under_another_identity_hit(self, tmp_path, monkeypatch, fill_cache,
                                                   example_fills):
        path = tmp_path / "fills.jsonl"
        write_fills(path, example_fills)
        hashes = counting(monkeypatch, events, "_read_input")
        assert read_fills(path) == example_fills
        assert (len(hashes), len(cache_files(fill_cache))) == (1, 1)
        monkeypatch.setattr(events, "_parse_fills", refuse_parse)
        # The same bytes written again, as each ``ingest`` run writes them; other file times;
        # another name: each is a new file identity, hashed again, and a hit.
        write_fills(path, example_fills)
        assert read_fills(path) == example_fills
        os.utime(path, ns=(10**9, 10**9))
        assert read_fills(path) == example_fills
        os.rename(path, tmp_path / "renamed.jsonl")
        assert read_fills(tmp_path / "renamed.jsonl") == example_fills
        assert (len(hashes), len(cache_files(fill_cache))) == (4, 1)

    def test_markers_of_an_older_version_age_out_and_never_load(self, tmp_path, monkeypatch,
                                                                fill_cache, example_fills):
        # Empty ``seen-`` files, named by a file's device, inode, size and times, marked a first
        # read before each read was hashed; one names this ledger.
        path = tmp_path / "fills.jsonl"
        write_fills(path, example_fills)
        status = os.stat(path)
        fill_cache.mkdir(parents=True)
        markers = [fill_cache / "seen-{}-{}-{}-{}-{}".format(
            status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns, status.st_ctime_ns)]
        markers += [fill_cache / f"seen-1-{i}-1-1-1" for i in range(8)]
        for i, marker in enumerate(markers):
            marker.touch()
            os.utime(marker, ns=(i * 10**9, i * 10**9))
        parses = counting(monkeypatch, events, "_parse_fills")
        assert read_fills(path) == example_fills
        assert len(parses) == 1  # a miss: no marker answers a read
        # One bound of 8 over every file: the entry and the 7 newest markers are left.
        entry, = (file for file in cache_files(fill_cache) if file not in markers)
        assert cache_files(fill_cache) == sorted([*markers[2:], entry])
        for i in range(1, 8):
            write_fills(tmp_path / f"shard{i}.jsonl", example_fills[i:])
            read_fills(tmp_path / f"shard{i}.jsonl")
        assert len(cache_files(fill_cache)) == 8
        assert not any(file.name.startswith("seen-") for file in cache_files(fill_cache))

    def test_relative_cache_home_is_not_used(self, tmp_path, monkeypatch, example_fills):
        path = tmp_path / "fills.jsonl"
        write_fills(path, example_fills)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        assert read_fills(path) == example_fills
        assert not (tmp_path / "cache").exists()

    def test_pipe_is_read_once_and_not_cached(self, tmp_path, fill_cache, example_fills):
        # What a shell's process substitution, <(cat fills.jsonl), passes as the path.
        path = tmp_path / "fills.jsonl"
        write_fills(path, example_fills)
        read_end, write_end = os.pipe()
        os.write(write_end, path.read_bytes())  # a few KB: within the pipe's buffer
        os.close(write_end)
        try:
            assert read_fills(f"/dev/fd/{read_end}") == example_fills
        finally:
            os.close(read_end)
        assert not fill_cache.exists()
        assert events._INPUT_DIGESTS[f"/dev/fd/{read_end}"] == hashlib.sha256(
            path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("load", [load_market_config, load_block_times, load_scenario],
                             ids=["markets", "block-times", "scenario"])
    def test_json_input_written_while_read_fails(self, tmp_path, monkeypatch, load):
        path = tmp_path / "input.json"
        path.write_text('{"markets": []}')
        read_input = events._read_input

        @contextlib.contextmanager
        def rewrite_after_hash(name):  # another process writes the input between hash and decode
            with read_input(name) as opened:
                path.write_text("{}")
                yield opened

        monkeypatch.setattr(events, "_read_input", rewrite_after_hash)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: the file changed "):
            load(path)

    def test_manifest_takes_the_digest_of_the_bytes_read(self, tmp_path, monkeypatch,
                                                         example_fills):
        from fillflow.cli import _write_manifest

        path = tmp_path / "fills.jsonl"
        write_fills(path, example_fills)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        read_fills(path)  # hashed for the key, and recorded
        write_fills(path, example_fills[1:])  # written to since
        monkeypatch.setattr(events, "_read_input", refuse_read)
        _write_manifest(tmp_path, "decompose", {}, [str(path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["inputs"] == {"fills.jsonl": digest}


class TestDecomposedTableCache:
    """The same cache behind ``read_decomposed``; ``fill_cache`` is this test's own."""

    @pytest.fixture
    def table(self, tmp_path, small_ledger):
        path = tmp_path / "decomposed.csv"
        write_decomposed(path, small_ledger.truth)
        return path

    @pytest.mark.parametrize("rows", [slice(None), slice(0)], ids=["rows", "no-rows"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_hit_returns_the_parsed_rows_without_parsing(self, tmp_path, monkeypatch,
                                                         fill_cache, small_ledger, fmt, rows):
        path = tmp_path / f"decomposed.{fmt}"
        truth = small_ledger.truth[rows]
        write_decomposed(path, truth, fmt)
        assert read_decomposed(path) == truth
        assert len(cache_files(fill_cache)) == 1  # the first read stores the entry
        monkeypatch.setattr(decompose, "_parse_decomposed", refuse_parse)
        warm = read_decomposed(path)
        assert warm == truth
        assert [(type(row), list(map(type, row[:5])), list(map(type, row.components)))
                for row in warm] == [(DecomposedTransaction, [int, int, int, str, TxKind],
                                      [int] * 8)] * len(warm)
        # Equal markets come back as one interned string, written to the entry once.
        assert len({id(row.market) for row in warm}) == len({row.market for row in warm})

    def test_row_failing_check_exits_3_on_every_run_and_is_never_stored(
            self, tmp_path, fill_cache, table):
        from fillflow.cli import main

        lines = table.read_text().splitlines(keepends=True)
        cells = lines[500].split(",")
        cells[5] = str(int(cells[5]) + 1)  # buyVol: conservation no longer holds
        lines[500] = ",".join(cells)
        table.write_text("".join(lines))
        for _ in range(3):
            result = CliRunner().invoke(main, ["metrics", "--input", str(table), "--market",
                                               "Trump", "--out", str(tmp_path / "out")])
            assert result.exit_code == 3, result.output
            assert "line 501: " in result.output
            assert not fill_cache.exists()

    @pytest.mark.parametrize("damage", ["truncated", "flipped-byte", "unknown-kind"])
    def test_damaged_entry_is_parsed_again_and_replaced(self, monkeypatch, fill_cache,
                                                        small_ledger, table, damage):
        read_decomposed(table)
        entry, = cache_files(fill_cache)
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[:len(good) // 2])
        elif damage == "flipped-byte":
            entry.write_bytes(good[:-7] + bytes([good[-7] ^ 1]) + good[-6:])
        else:  # a well-formed entry with its SHA-256, but a kind no TxKind has
            columns = list(decompose._decomposed_columns(small_ledger.truth))
            columns[4] = ("bogus",) * len(columns[4])
            events._cache_store(str(fill_cache), entry.name, columns)
        assert entry.read_bytes() != good
        parses = counting(monkeypatch, decompose, "_parse_decomposed")
        assert read_decomposed(table) == small_ledger.truth
        assert len(parses) == 1
        assert entry.read_bytes() == good

    def test_readers_never_share_an_entry(self, tmp_path, monkeypatch, fill_cache,
                                          example_fills):
        # One JSONL line with the keys of both schemas is a fill and a decomposed row.
        fill = example_fills[0]
        record = {**json.loads(reference_line(fill)), "market": "Trump",
                  "kind": "pure_exchange", "buyVol": "5", "sellVol": "5", "yesTradeVol": "5",
                  "noTradeVol": "0", "yesMintVol": "0", "noMintVol": "0", "yesBurnVol": "0",
                  "noBurnVol": "0"}
        path = tmp_path / "both.jsonl"
        path.write_text(json.dumps(record) + "\n")
        expected = DecomposedTransaction(fill.block, fill.tx_index, fill.timestamp, "Trump",
                                         TxKind.PURE_EXCHANGE, VolumeComponents(5, 0, buy_vol=5,
                                                                                sell_vol=5))
        assert read_fills(path) == [fill]
        assert read_decomposed(path) == [expected]
        assert len(cache_files(fill_cache)) == 2
        monkeypatch.setattr(events, "_parse_fills", refuse_parse)
        monkeypatch.setattr(decompose, "_parse_decomposed", refuse_parse)
        assert read_fills(path) == [fill]
        assert read_decomposed(path) == [expected]

    def test_decompose_source_is_part_of_the_key(self, monkeypatch, fill_cache, small_ledger,
                                                 table):
        read_decomposed(table)
        loader = decompose.__loader__
        get_data = loader.get_data
        # An edit to decompose.py, as its loader reads it; events.py reads as before.
        monkeypatch.setattr(loader, "get_data", lambda path: get_data(path) + (
            b"\n# edited\n" if path == decompose.__file__ else b""))
        parses = counting(monkeypatch, decompose, "_parse_decomposed")
        assert read_decomposed(table) == small_ledger.truth
        assert len(parses) == 1
        assert len(cache_files(fill_cache)) == 2

    def test_pipe_and_relative_cache_home_are_parsed_without_the_cache(
            self, tmp_path, monkeypatch, fill_cache, small_ledger, table):
        # A pipe's path, /dev/fd/N, has no ".csv" suffix: the table goes through as JSONL.
        path = tmp_path / "decomposed.jsonl"
        write_decomposed(path, small_ledger.truth[:20], "jsonl")
        read_end, write_end = os.pipe()
        os.write(write_end, path.read_bytes())  # a few KB: within the pipe's buffer
        os.close(write_end)
        try:
            assert read_decomposed(f"/dev/fd/{read_end}") == small_ledger.truth[:20]
        finally:
            os.close(read_end)
        assert not fill_cache.exists()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        for _ in range(2):
            assert read_decomposed(table) == small_ledger.truth
        assert not (tmp_path / "cache").exists()

    def test_eight_entries_bound_counts_both_readers(self, tmp_path, fill_cache,
                                                     small_ledger, example_fills):
        for i in range(5):
            table = tmp_path / f"decomposed{i}.csv"
            ledger = tmp_path / f"fills{i}.jsonl"
            write_decomposed(table, small_ledger.truth[i:])
            write_fills(ledger, example_fills[i:])
            read_decomposed(table)
            read_fills(ledger)
        assert len(cache_files(fill_cache)) == 8

def reference_line(fill):
    """``json.dumps`` of the fill's canonical wire record: amounts as digit strings."""
    return json.dumps({
        "block": fill.block,
        "txIndex": fill.tx_index,
        "logIndex": fill.log_index,
        "maker": fill.maker,
        "taker": fill.taker,
        "makerAssetId": fill.maker_asset_id,
        "takerAssetId": fill.taker_asset_id,
        "makerAmountFilled": str(fill.maker_amount),
        "takerAmountFilled": str(fill.taker_amount),
        "timestamp": fill.timestamp,
    }) + "\n"


ADVERSARIAL_TEXT = ['"', "\\", "\x00\x01\x1f\n\t", "\x7f", "\u00e9\u6f22\U0001f600", "\ud800",
                    "", "0x351"]


class TestFillLines:
    def test_generator_ledger_equals_json_dumps(self, tmp_path, small_ledger):
        expected = [reference_line(fill) for fill in small_ledger.fills]
        assert list(fill_lines(small_ledger.fills)) == expected
        path = tmp_path / "fills.jsonl"
        write_fills(path, small_ledger.fills)
        assert path.read_bytes() == "".join(expected).encode("utf-8")

    @pytest.mark.parametrize("text", ADVERSARIAL_TEXT,
                             ids=["quote", "backslash", "control", "del", "non-ascii",
                                  "lone-surrogate", "empty", "plain"])
    def test_adversarial_address_equals_json_dumps(self, text):
        # The second fill repeats the text in the other field, so it is served
        # from the per-call memo.
        fills = [make_fill()._replace(maker=text),
                 make_fill(log_index=1, buy=False)._replace(taker=text)]
        assert list(fill_lines(fills)) == [reference_line(fill) for fill in fills]


def test_ingest_of_csv_shard_writes_the_jsonl_bytes(tmp_path, small_ledger):
    from fillflow.cli import main

    # Line breaks inside addresses too, in fills ordered before the generator's.
    line_breaks = [make_fill()._replace(maker="a\r\nb", taker="c\rd"),
                   make_fill(log_index=1, buy=False)._replace(maker="\r", taker="e\nf")]
    written = {}
    for fmt in ("jsonl", "csv"):
        shard = tmp_path / f"shard.{fmt}"
        write_fills(shard, small_ledger.fills[::-1] + line_breaks, fmt)
        result = CliRunner().invoke(main, ["ingest", "--input", str(shard),
                                           "--out", str(tmp_path / fmt)])
        assert result.exit_code == 0, result.output
        written[fmt] = (tmp_path / fmt / "fills.jsonl").read_bytes()
    assert written["csv"] == written["jsonl"]
    assert read_fills(tmp_path / "csv" / "fills.jsonl") == line_breaks + sorted(
        small_ledger.fills, key=lambda f: f[:3])


class TestGrouping:
    def test_fixture_grouping_sizes(self, example_transactions):
        by_key = {tx[:2]: len(tx.fills) for tx in example_transactions}
        assert by_key[(51953200, 180)] == 3
        assert by_key[(54432034, 44)] == 2

    def test_empty_input(self):
        assert group_transactions([]) == []

    def test_partition_preserves_every_fill(self, small_ledger):
        txs = group_transactions(small_ledger.fills)
        regrouped = [f for tx in txs for f in tx.fills]
        assert sorted(regrouped, key=lambda f: f[:3]) == sorted(
            small_ledger.fills, key=lambda f: f[:3])

    def test_permutation_invariance_against_naive_oracle(self):
        rng = random.Random(99)
        fills = [
            make_fill(block=rng.randrange(50), tx_index=rng.randrange(4), log_index=i)
            for i in range(1000)
        ]
        shuffled = fills[:]
        rng.shuffle(shuffled)

        # oracle: sort by full coordinates, then scan
        expected = {}
        for fill in sorted(fills, key=lambda f: f[:3]):
            expected.setdefault((fill.block, fill.tx_index), []).append(fill)

        grouped = group_transactions(shuffled)
        assert group_transactions(fills) == grouped
        assert [(tx[:2], list(tx.fills)) for tx in grouped] == sorted(
            (key, fills) for key, fills in expected.items())

    def test_sorted_by_log_index_within_tx(self):
        fills = [make_fill(log_index=5), make_fill(log_index=2, buy=False)]
        tx, = group_transactions(fills)
        assert [f.log_index for f in tx.fills] == [2, 5]

    def test_duplicate_coordinates_rejected(self):
        fills = [make_fill(), make_fill(buy=False)]
        with pytest.raises(DuplicateEventError):
            group_transactions(fills)

    def test_conflicting_timestamps_rejected(self):
        fills = [make_fill(log_index=0, ts=10), make_fill(log_index=1, ts=11)]
        with pytest.raises(SchemaError, match="timestamps"):
            group_transactions(fills)

    def test_transaction_is_a_checked_named_tuple(self):
        tx, = group_transactions([make_fill(block=4, tx_index=2)])
        assert type(tx) is Transaction
        assert tx == Transaction(*tx) and tx[:2] == (4, 2)
        with pytest.raises(SchemaError, match=r"transaction \(4, 2\) has no fills"):
            Transaction(4, 2, 5, ())
        with pytest.raises(SchemaError, match="has no fills"):
            tx._replace(fills=())


def reference_group_transactions(fills):
    """The dict-and-set grouping that the sort-once scan replaced, kept as an oracle."""
    groups = {}
    seen = set()
    for fill in fills:
        if fill[:3] in seen:
            raise DuplicateEventError(f"duplicate fill coordinates {fill[:3]}")
        seen.add(fill[:3])
        groups.setdefault((fill.block, fill.tx_index), []).append(fill)
    transactions = []
    for (block, tx_index), group in sorted(groups.items()):
        group.sort(key=lambda f: f.log_index)
        timestamps = {f.timestamp for f in group}
        if len(timestamps) > 1:
            raise SchemaError(f"transaction ({block}, {tx_index}) "
                              f"has conflicting timestamps {sorted(timestamps)}")
        transactions.append(Transaction(block, tx_index, group[0].timestamp, tuple(group)))
    return transactions


def tx_fills(block, tx_index, logs, ts=1709640000):
    return [make_fill(block=block, tx_index=tx_index, log_index=log, buy=log % 2 == 0, ts=ts)
            for log in logs]


# Input order as given; each case is also checked sorted and shuffled.
GROUPING_CASES = {
    "interleaved": [fill for pair in zip(tx_fills(1, 0, [0, 2, 4]), tx_fills(1, 1, [1, 3, 5]))
                    for fill in pair] + tx_fills(2, 0, [0]),
    "descending-log-index": tx_fills(1, 0, [3, 2, 1]) + tx_fills(2, 0, [0]),
    "duplicate": tx_fills(3, 0, [0, 1]) + tx_fills(1, 0, [0, 1, 1]),
    "two-duplicates": tx_fills(3, 0, [0, 0]) + tx_fills(1, 0, [2, 2]),
    "conflicting-timestamps": (tx_fills(5, 0, [0], ts=10) + tx_fills(5, 0, [1], ts=12)
                               + tx_fills(2, 0, [0], ts=11) + tx_fills(2, 0, [1], ts=13)),
    "conflict-then-duplicate": (tx_fills(1, 0, [0], ts=10) + tx_fills(1, 0, [1], ts=11)
                                + tx_fills(9, 0, [4, 4])),
}


class TestGroupingAgainstReference:
    def test_shuffled_generator_ledger_matches_reference(self, small_ledger):
        fills = small_ledger.fills[:]
        random.Random(2024).shuffle(fills)
        grouped = group_transactions(fills)
        assert grouped == reference_group_transactions(fills)
        assert len(grouped) == len(small_ledger.truth)
        assert group_transactions(sorted(fills, key=lambda f: f[:3])) == grouped

    @pytest.mark.parametrize("case", GROUPING_CASES)
    def test_sorted_and_shuffled_input_agree(self, case):
        fills = GROUPING_CASES[case]
        ordered = sorted(fills, key=lambda f: f[:3])
        expected = outcome(reference_group_transactions, ordered)
        assert outcome(group_transactions, ordered) == expected
        assert outcome(group_transactions, fills) == expected
        rng = random.Random(7)
        for _ in range(30):
            shuffled = fills[:]
            rng.shuffle(shuffled)
            assert outcome(group_transactions, shuffled) == expected

    def test_duplicate_raises_like_reference(self):
        fills = [make_fill(block=2), make_fill(block=1), make_fill(block=2, buy=False)]
        for group in (group_transactions, reference_group_transactions):
            with pytest.raises(DuplicateEventError, match=r"\(2, 0, 0\)"):
                group(fills)

    def test_conflicting_timestamps_raise_like_reference(self):
        fills = [make_fill(log_index=2, ts=12), make_fill(log_index=0, ts=10),
                 make_fill(log_index=1, ts=11)]
        with pytest.raises(SchemaError) as new:
            group_transactions(fills)
        with pytest.raises(SchemaError) as old:
            reference_group_transactions(fills)
        assert str(new.value) == str(old.value)
        assert "conflicting timestamps [10, 11, 12]" in str(new.value)

    @pytest.mark.parametrize("conflict_block", [1, 9], ids=["conflict-first", "duplicate-first"])
    def test_duplicate_reported_before_timestamp_conflict(self, conflict_block):
        fills = [make_fill(block=conflict_block, log_index=0, ts=10),
                 make_fill(block=conflict_block, log_index=1, ts=11),
                 make_fill(block=5), make_fill(block=5, buy=False)]
        for group in (group_transactions, reference_group_transactions):
            with pytest.raises(DuplicateEventError):
                group(fills)

    def test_input_list_left_unmodified(self, small_ledger):
        fills = small_ledger.fills[::-1]
        before = fills[:]
        group_transactions(fills)
        assert fills == before


class Amount(int):
    """An int subclass: a value no wire line encodes."""


class TestFillEventContract:
    ARGS = (7, 3, 1, "0xaa", "0xbb", "0", TOKEN, 590_000, 1_000_000, 1709640000)

    def test_negative_amount_rejected(self):
        with pytest.raises(SchemaError, match="maker_amount must be a non-negative integer"):
            FillEvent(7, 3, 1, "0xaa", "0xbb", "0", TOKEN, -1, 1_000_000, 1709640000)

    def test_bool_block_rejected(self):
        with pytest.raises(SchemaError, match="block must be a non-negative integer, got True"):
            FillEvent(True, 3, 1, "0xaa", "0xbb", "0", TOKEN, 590_000, 1_000_000, 1709640000)

    @pytest.mark.parametrize("maker_asset, taker_asset, which", [
        ("0", "0", "both"), (TOKEN, TOKEN, "neither"),
    ], ids=["both", "neither"])
    def test_exactly_one_collateral_id(self, maker_asset, taker_asset, which):
        with pytest.raises(SchemaError, match=f"{which} asset ids are collateral in fill "
                                              r"\(7, 3, 1\)"):
            FillEvent(7, 3, 1, "0xaa", "0xbb", maker_asset, taker_asset, 1, 1, 1709640000)

    def test_non_ascii_token_id_rejected(self):
        with pytest.raises(SchemaError, match="taker_asset_id must be a decimal string"):
            FillEvent(7, 3, 1, "0xaa", "0xbb", "0", "\u0661\u0660", 1, 1, 1709640000)

    @pytest.mark.parametrize("field, value, message", [
        ("maker_amount", Amount(5), "maker_amount must be a non-negative integer, got 5"),
        ("timestamp", True, "timestamp must be a non-negative integer, got True"),
        ("timestamp", -1, "timestamp must be a non-negative integer, got -1"),
        ("maker", None, "maker must be a string, got None"),
        ("taker", 7, "taker must be a string, got 7"),
        ("taker_asset_id", int(TOKEN), f"taker_asset_id must be a decimal string, got {TOKEN}"),
    ], ids=["int-subclass-amount", "bool-timestamp", "negative-timestamp", "null-maker",
            "number-taker", "number-asset-id"])
    def test_inexact_value_rejected(self, field, value, message):
        args = dict(zip(FillEvent._fields, self.ARGS), **{field: value})
        with pytest.raises(SchemaError) as err:
            FillEvent(**args)
        assert str(err.value) == message

    def test_immutable(self):
        fill = FillEvent(*self.ARGS)
        with pytest.raises(AttributeError):
            fill.block = 8
        with pytest.raises(AttributeError):
            fill.note = "x"

    def test_replace_validates(self):
        fill = FillEvent(*self.ARGS)
        assert fill._replace(log_index=2)[:3] == (7, 3, 2)
        with pytest.raises(SchemaError, match="taker_amount"):
            fill._replace(taker_amount=-1)

    def test_keyword_construction_equals_positional(self):
        # the synthetic generator builds fills by keyword
        by_keyword = FillEvent(
            block=7, tx_index=3, log_index=1, maker="0xaa", taker="0xbb",
            maker_asset_id="0", taker_asset_id=TOKEN, maker_amount=590_000,
            taker_amount=1_000_000, timestamp=1709640000,
        )
        positional = FillEvent(*self.ARGS)
        assert by_keyword == positional
        assert type(by_keyword) is type(positional) is FillEvent
        assert hash(by_keyword) == hash(positional)
        assert (by_keyword[:3], by_keyword.is_buy, by_keyword.token_id) == (
            (7, 3, 1), True, TOKEN)


def test_cli_import_does_not_load_numpy(tmp_path, fill_cache, small_ledger, markets):
    # No module of the package imports numpy (the tests use it as a reference
    # solver), also not while a full price-impact run estimates lambda and its
    # regression. The package itself re-exports nothing, so the CLI loads neither
    # the mechanics nor the fixtures module, and only simulate and ingest
    # --endpoint import the generator and the fetcher. Only a warning loads logging,
    # and only a Fraction built on the price-impact path loads fractions and decimal.
    write_fills(tmp_path / "fills.jsonl", small_ledger.fills)
    write_market_config(tmp_path / "markets.json", markets[:2])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src), "XDG_CACHE_HOME": str(fill_cache.parent)}
    if sys.dont_write_bytecode:  # the child writes no bytecode into the checkout either
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    subprocess.run(
        [sys.executable, "-c", "import fillflow.cli, sys; assert 'numpy' not in sys.modules; "
         "assert 'fillflow.mechanics' not in sys.modules; "
         "assert 'fillflow.fixtures' not in sys.modules; "
         "assert 'fillflow.synthetic' not in sys.modules; "
         "assert 'fillflow.fetch' not in sys.modules; "
         "assert not {'logging', 'fractions', 'decimal'} & set(sys.modules); "
         "fillflow.cli.main(['lambda', '--input', 'fills.jsonl', '--markets', 'markets.json', "
         "'--market', 'Trump', '--out', 'out'], standalone_mode=False); "
         "assert 'numpy' not in sys.modules"],
        cwd=tmp_path, env=env, check=True)
    regression = json.loads((tmp_path / "out" / "lambda_regression.json").read_text())
    assert regression["regression"]["n"] > 2


class TestMarketConfig:
    def test_fixture_config_round_trip(self, tmp_path, markets):
        path = tmp_path / "markets.json"
        write_market_config(path, markets)
        loaded = load_market_config(path)
        assert loaded == markets
        assert len(loaded) == 3

    def test_duplicate_token_id_rejected(self, tmp_path, markets):
        doc = {"markets": [
            {"candidate": "A", "yesTokenId": "11", "noTokenId": "12",
             "launch": "2024-01-04T23:00:00Z"},
            {"candidate": "B", "yesTokenId": "11", "noTokenId": "14",
             "launch": "2024-01-04T23:00:00Z"},
        ]}
        path = tmp_path / "markets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="claimed by both"):
            load_market_config(path)

    def test_market_slots_give_market_and_side(self, markets):
        slots = market_slots(markets)
        assert len(slots) == 6
        for i, market in enumerate(markets):
            assert slots[market.yes_token_id] == 2 * i
            assert slots[market.no_token_id] == 2 * i + 1

    def test_duplicate_candidate_rejected(self, tmp_path):
        doc = {"markets": [
            {"candidate": "A", "yesTokenId": "11", "noTokenId": "12",
             "launch": "2024-01-04T23:00:00Z"},
            {"candidate": "A", "yesTokenId": "13", "noTokenId": "14",
             "launch": "2024-01-04T23:00:00Z"},
        ]}
        path = tmp_path / "markets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="candidate 'A' names markets 0 and 1"):
            load_market_config(path)

    @pytest.mark.parametrize("candidate", [7, "", None, ["A"]],
                             ids=["number", "empty", "null", "list"])
    def test_candidate_must_be_a_non_empty_string(self, tmp_path, candidate):
        doc = {"markets": [{"candidate": candidate, "yesTokenId": "11", "noTokenId": "12",
                            "launch": "2024-01-04T23:00:00Z"}]}
        path = tmp_path / "markets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="candidate must be a non-empty string"):
            load_market_config(path)

    def test_missing_no_token_rejected(self, tmp_path):
        doc = {"markets": [{"candidate": "A", "yesTokenId": "11",
                            "launch": "2024-01-04T23:00:00Z"}]}
        path = tmp_path / "markets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="noTokenId"):
            load_market_config(path)

    def test_yes_equals_no_rejected(self, tmp_path):
        doc = {"markets": [{"candidate": "A", "yesTokenId": "11", "noTokenId": "11",
                            "launch": "2024-01-04T23:00:00Z"}]}
        path = tmp_path / "markets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_market_config(path)

