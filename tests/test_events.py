import gc
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fillflow.errors import (
    ConfigError,
    DuplicateEventError,
    ParseError,
    SchemaError,
)
from fillflow.events import (
    _CANONICAL_FILL,
    FILL_FIELDS,
    FillEvent,
    Transaction,
    fill_from_record,
    fill_lines,
    group_transactions,
    load_market_config,
    read_fills,
    read_table,
    write_fills,
    write_market_config,
)
from fillflow.fixtures import TRUMP_NO

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
        assert fill.usdc_amount == 123_900_000
        assert fill.share_amount == 210_000_000

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

    def test_record_keys_are_canonical(self, example_fills):
        assert tuple(example_fills[0].to_record()) == FILL_FIELDS


def reference_read_fills(path):
    """The general per-line reader: every line decoded as JSON, then checked."""
    return [fill_from_record(record, line_no) for line_no, record in read_table(path, FILL_FIELDS)]


def outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class _IntLiteral(str):
    """The source text of a JSON integer, kept whole (no digit limit)."""


BARE_INTEGER_FIELDS = {"block", "txIndex", "logIndex", "timestamp"}
BASE_LINE = json.dumps(wire_record()) + "\n"
HUGE = "9" * 5000


def assert_rejected_or_reference_values(line):
    match = _CANONICAL_FILL.fullmatch(line)
    if match is None:
        return
    decoded = json.loads(line, parse_int=_IntLiteral)
    assert tuple(decoded) == FILL_FIELDS
    assert match.groups() == tuple(decoded.values())
    assert [isinstance(v, _IntLiteral) for v in decoded.values()] == [
        f in BARE_INTEGER_FIELDS for f in FILL_FIELDS]


def file_lines(path):
    """The lines as ``read_fills`` iterates them."""
    with open(path, encoding="utf-8") as fh:
        return list(fh)


def mutate(old, new):
    assert old in BASE_LINE
    return BASE_LINE.replace(old, new, 1)


class TestCanonicalFastPath:
    def test_writer_output_takes_fast_path(self, tmp_path, example_fills, small_ledger):
        # A change to FILL_FIELDS order or the writer's separators would send
        # every line down the slow path without changing any result.
        for fills in (example_fills, small_ledger.fills):
            path = tmp_path / "fills.jsonl"
            write_fills(path, fills)
            lines = file_lines(path)
            assert len(lines) == len(fills)
            assert all(_CANONICAL_FILL.fullmatch(line) for line in lines)
            # Fast-path fills skip FillEvent's checks; they must equal checked ones.
            for fill in read_fills(path):
                checked = FillEvent(*fill)
                assert type(fill) is type(checked) is FillEvent
                assert fill == checked
                assert list(map(type, fill)) == list(map(type, checked))

    def test_generator_ledger_matches_reference(self, tmp_path, small_ledger):
        path = tmp_path / "fills.jsonl"
        write_fills(path, small_ledger.fills)
        for line in file_lines(path):
            assert_rejected_or_reference_values(line)
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
    ], ids=["leading-zero", "negative-log-index", "negative-timestamp", "fraction",
            "exponent", "bool", "escaped-collateral-id", "control-char-in-maker",
            "escaped-quote-in-maker", "non-ascii-maker", "non-ascii-digit-token-id",
            "both-collateral", "empty-token-id", "huge-integer", "huge-amount",
            "extra-space", "space-before-colon", "reordered-keys", "duplicated-key",
            "trailing-x", "trailing-space", "no-final-newline", "blank-lines",
            "empty-maker"])
    def test_near_canonical_mutant_matches_reference(self, tmp_path, mutant):
        path = tmp_path / "fills.jsonl"
        path.write_text(BASE_LINE + mutant, encoding="utf-8")
        for line in file_lines(path):
            assert_rejected_or_reference_values(line)
        assert outcome(read_fills, path) == outcome(reference_read_fills, path)

    @pytest.mark.parametrize("maker_asset, taker_asset, which", [
        ("0", "0", "both"), (TOKEN, TOKEN, "neither"),
    ], ids=["both", "neither"])
    def test_canonical_line_without_one_collateral_id_names_the_line(
            self, tmp_path, maker_asset, taker_asset, which):
        line = json.dumps(wire_record(makerAssetId=maker_asset, takerAssetId=taker_asset)) + "\n"
        assert _CANONICAL_FILL.fullmatch(line)
        with pytest.raises(SchemaError) as err:
            read_json_lines(tmp_path, BASE_LINE, line)
        assert str(err.value) == (
            f"line 2: {which} asset ids are collateral in fill (54432034, 44, 101); "
            "every fill must exchange collateral against one outcome token")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_equal_strings_share_one_object(self, tmp_path, small_ledger, fmt):
        path = tmp_path / f"fills.{fmt}"
        write_fills(path, small_ledger.fills, fmt)
        fills = read_fills(path)
        first: dict[str, str] = {}
        for fill in fills:
            for value in (fill.maker, fill.taker, fill.maker_asset_id, fill.taker_asset_id):
                assert first.setdefault(value, value) is value
        assert len(first) < len(fills)


def reference_line(fill):
    return json.dumps(fill.to_record()) + "\n"


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

    written = {}
    for fmt in ("jsonl", "csv"):
        shard = tmp_path / f"shard.{fmt}"
        write_fills(shard, small_ledger.fills[::-1], fmt)
        result = CliRunner().invoke(main, ["ingest", "--input", str(shard),
                                           "--out", str(tmp_path / fmt)])
        assert result.exit_code == 0, result.output
        written[fmt] = (tmp_path / fmt / "fills.jsonl").read_bytes()
    assert written["csv"] == written["jsonl"]
    assert read_fills(tmp_path / "csv" / "fills.jsonl") == sorted(
        small_ledger.fills, key=lambda f: f.key)


class TestGrouping:
    def test_fixture_grouping_sizes(self, example_transactions):
        by_key = {tx.key: len(tx.fills) for tx in example_transactions}
        assert by_key[(51953200, 180)] == 3
        assert by_key[(54432034, 44)] == 2

    def test_empty_input(self):
        assert group_transactions([]) == []

    def test_partition_preserves_every_fill(self, small_ledger):
        txs = group_transactions(small_ledger.fills)
        regrouped = [f for tx in txs for f in tx.fills]
        assert sorted(regrouped, key=lambda f: f.key) == sorted(
            small_ledger.fills, key=lambda f: f.key)

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
        for fill in sorted(fills, key=lambda f: f.key):
            expected.setdefault((fill.block, fill.tx_index), []).append(fill)

        grouped = group_transactions(shuffled)
        assert group_transactions(fills) == grouped
        assert [(tx.key, list(tx.fills)) for tx in grouped] == sorted(
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
        assert tx == Transaction(*tx) and tx.key == (4, 2)
        with pytest.raises(SchemaError, match=r"transaction \(4, 2\) has no fills"):
            Transaction(4, 2, 5, ())
        with pytest.raises(SchemaError, match="has no fills"):
            tx._replace(fills=())


def reference_group_transactions(fills):
    """The dict-and-set grouping that the sort-once scan replaced, kept as an oracle."""
    groups = {}
    seen = set()
    for fill in fills:
        if fill.key in seen:
            raise DuplicateEventError(f"duplicate fill coordinates {fill.key}")
        seen.add(fill.key)
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
        assert group_transactions(sorted(fills, key=lambda f: f.key)) == grouped

    @pytest.mark.parametrize("case", GROUPING_CASES)
    def test_sorted_and_shuffled_input_agree(self, case):
        fills = GROUPING_CASES[case]
        ordered = sorted(fills, key=lambda f: f.key)
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
        assert fill._replace(log_index=2).key == (7, 3, 2)
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
        assert (by_keyword.key, by_keyword.is_buy, by_keyword.token_id,
                by_keyword.usdc_amount, by_keyword.share_amount) == (
            (7, 3, 1), True, TOKEN, 590_000, 1_000_000)


def test_cli_import_does_not_load_numpy():
    # numpy serves only the price-impact least squares; loading it at import
    # would slow every other command's start-up. The package itself re-exports
    # nothing, so the CLI loads neither the mechanics nor the fixtures module,
    # and only simulate and ingest --endpoint import the generator and the fetcher.
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run(
        [sys.executable, "-c", "import fillflow.cli, sys; assert 'numpy' not in sys.modules; "
         "assert 'fillflow.mechanics' not in sys.modules; "
         "assert 'fillflow.fixtures' not in sys.modules; "
         "assert 'fillflow.synthetic' not in sys.modules; "
         "assert 'fillflow.fetch' not in sys.modules"],
        env={"PYTHONPATH": str(src)}, check=True)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_ledger_load_restores_gc_state(tmp_path, example_fills, markets, enabled):
    from fillflow.cli import _load_transactions

    good, bad, config = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "markets.json"
    write_fills(good, example_fills[::-1])
    bad.write_text('{"block": "not a number"}\n')
    write_market_config(config, markets)
    prior = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.unfreeze()  # earlier in-process commands may have frozen objects
    try:
        transactions, _ = _load_transactions([good], config)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() > 0
        assert transactions == group_transactions(example_fills)
        with pytest.raises(ParseError, match="line 1"):
            _load_transactions([bad], config)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if prior else gc.disable)()
        gc.unfreeze()


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

