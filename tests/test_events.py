import json
import random

import pytest

from fillflow.errors import (
    ConfigError,
    DuplicateEventError,
    ParseError,
    SchemaError,
)
from fillflow.events import (
    FILL_FIELDS,
    FillEvent,
    group_transactions,
    load_market_config,
    read_fills,
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

