import dataclasses
import json
import logging
import random
import subprocess
import sys

import pytest
from click.testing import CliRunner
from conftest import read_table

from fillflow.cli import main
from fillflow.decompose import (
    DECOMPOSED_FIELDS,
    AnomalyRecord,
    DecomposedTransaction,
    TxKind,
    VolumeComponents,
    decompose_ledger,
    decomposed_from_record,
    read_decomposed,
    write_decomposed,
)
from fillflow.errors import ConfigError, DecompositionAnomalyError, ParseError
from fillflow.events import (FillEvent, Transaction, group_transactions, market_slots,
                             write_fills, write_market_config, write_table)
from fillflow.fixtures import expected_decompositions
from fillflow.metrics import IntervalTotals, MarketMeasures, SideTotals
from fillflow.microstructure import HourBar, LambdaEstimate, RegressionResult, SignedTrade
from fillflow.prices import DeviationPoint, InflowSeries, PricePoint
from fillflow.synthetic import SyntheticScenario, generate_synthetic_ledger
from fillflow.units import parse_utc

USD = 10**6


def tx_of(fills):
    return group_transactions(fills)[0]


def buy_fill(token, usdc, shares, log_index=0, block=1, tx_index=0, ts=1709640000):
    return FillEvent(block, tx_index, log_index, "0xbuyer", "0xexch",
                     "0", token, usdc, shares, ts)


def sell_fill(token, shares, usdc, log_index=0, block=1, tx_index=0, ts=1709640000):
    return FillEvent(block, tx_index, log_index, "0xseller", "0xexch",
                     token, "0", shares, usdc, ts)


def only_row(tx, markets):
    rows, anomalies = decompose_ledger([tx], markets)
    assert not anomalies and len(rows) == 1
    return rows[0]


def only_anomaly(tx, markets):
    rows, anomalies = decompose_ledger([tx], markets)
    assert not rows and len(anomalies) == 1
    return anomalies[0]


@pytest.fixture
def trump(markets):
    return markets[0]


@pytest.fixture
def fixture_rows(example_transactions, markets):
    rows, anomalies = decompose_ledger(example_transactions, markets)
    assert not anomalies
    return {(r.block, r.tx_index): r for r in rows}


class TestGrossFlows:
    def test_simple_trade_flows(self, fixture_rows):
        c = fixture_rows[(51953200, 180)].components
        assert (c.buy_vol, c.sell_vol) == (123_900_000, 123_900_000)

    def test_minting_flows(self, fixture_rows):
        c = fixture_rows[(54432034, 44)].components
        assert (c.buy_vol, c.sell_vol) == (6_000_000_000, 0)

    def test_no_fills_after_filtering(self, trump):
        # zero-amount fills leave (0, 0) flows: a pure exchange of nothing
        row = only_row(tx_of([buy_fill(trump.yes_token_id, 0, 0)]), [trump])
        assert row.kind is TxKind.PURE_EXCHANGE
        assert row.components == VolumeComponents()


class TestClassification:
    def test_fixture_kinds(self, fixture_rows):
        for key, (market_name, kind, _) in expected_decompositions().items():
            assert fixture_rows[key].market == market_name
            assert fixture_rows[key].kind is kind

    def test_equal_flows_single_token(self, trump):
        tx = tx_of([
            buy_fill(trump.no_token_id, 59 * USD, 100 * USD, 0),
            sell_fill(trump.no_token_id, 100 * USD, 59 * USD, 1),
        ])
        assert only_row(tx, [trump]).kind is TxKind.PURE_EXCHANGE

    def test_burn_mixedness_uses_taker_side(self, trump):
        # mirror of the mixed-mint example: taker sells, one leg bought back
        tx = tx_of([
            sell_fill(trump.yes_token_id, 238_095_237, 99_999_999, 0),
            buy_fill(trump.yes_token_id, 84_000_000, 200_000_000, 1),
            sell_fill(trump.no_token_id, 38_095_237, 22_095_238, 2),
        ])
        assert only_row(tx, [trump]).kind is TxKind.MIXED_BURN


class TestDecomposition:
    def test_fixture_components_exact(self, fixture_rows):
        for key, (_, _, components) in expected_decompositions().items():
            assert fixture_rows[key].components == components

    def test_mixed_burn_mirror(self, trump):
        tx = tx_of([
            sell_fill(trump.yes_token_id, 238_095_237, 99_999_999, 0),
            buy_fill(trump.yes_token_id, 84_000_000, 200_000_000, 1),
            sell_fill(trump.no_token_id, 38_095_237, 22_095_238, 2),
        ])
        assert only_row(tx, [trump]).components == VolumeComponents(
            yes_trade=84_000_000, yes_burn=15_999_999, no_burn=22_095_238,
            buy_vol=84_000_000, sell_vol=122_095_237,
        )

    def test_simultaneous_mint_and_burn_rejected(self, trump):
        tx = tx_of([
            buy_fill(trump.yes_token_id, 50 * USD, 100 * USD, 0),
            buy_fill(trump.no_token_id, 50 * USD, 100 * USD, 1),
            sell_fill(trump.yes_token_id, 30 * USD, 15 * USD, 2),
            sell_fill(trump.no_token_id, 30 * USD, 15 * USD, 3),
        ])
        assert "simultaneous" in only_anomaly(tx, [trump]).reason

    def test_negative_component_rejected(self, trump):
        # surplus buys of NO only, but the exchanged leg is YES: the formula
        # would need negative YES minting
        tx = tx_of([
            buy_fill(trump.no_token_id, 50 * USD, 100 * USD, 0),
            sell_fill(trump.yes_token_id, 20 * USD, 10 * USD, 1),
        ])
        assert "negative" in only_anomaly(tx, [trump]).reason

    def test_anomaly_carries_coordinates(self, trump):
        tx = tx_of([
            buy_fill(trump.no_token_id, 50 * USD, 100 * USD, 0, block=77, tx_index=8),
            sell_fill(trump.yes_token_id, 20 * USD, 10 * USD, 1, block=77, tx_index=8),
        ])
        anomaly = only_anomaly(tx, [trump])
        assert (anomaly.block, anomaly.tx_index, anomaly.market) == (77, 8, "Trump")
        assert anomaly.reason.startswith("tx (77, 8): ")

    def test_fill_order_invariance(self, small_ledger, markets):
        rng = random.Random(5)
        txs = group_transactions(small_ledger.fills)
        for tx in rng.sample(txs, 100):
            baseline = decompose_ledger([tx], markets)
            shuffled = list(tx.fills)
            rng.shuffle(shuffled)
            permuted = Transaction(tx.block, tx.tx_index, tx.timestamp, tuple(shuffled))
            assert decompose_ledger([permuted], markets) == baseline


class TestInvariants:
    def test_generator_fuzz_conservation(self, small_ledger):
        for row in small_ledger.truth:
            row.check()
            c = row.components
            assert c.yes_trade + c.no_trade == min(c.buy_vol, c.sell_vol)

    @pytest.mark.parametrize("components, problem", [
        (VolumeComponents(yes_trade=-1), "negative component"),
        (VolumeComponents(yes_trade=1, no_trade=1, buy_vol=2, sell_vol=2),
         "trade volume on both tokens"),
        (VolumeComponents(yes_mint=5, buy_vol=4), "conservation violated"),
        (VolumeComponents(yes_mint=1, yes_burn=1), "burn volume without a sell surplus"),
        (VolumeComponents(yes_mint=1, yes_burn=3, sell_vol=2),
         "mint volume without a buy surplus"),
    ])
    def test_check_raises_with_coordinates(self, components, problem):
        row = DecomposedTransaction(7, 3, 0, "Trump", TxKind.SHARE_MINTING, components)
        with pytest.raises(DecompositionAnomalyError, match=problem) as err:
            row.check()
        assert (err.value.block, err.value.tx_index) == (7, 3)

    def test_check_survives_optimize_flag(self):
        code = (
            "from fillflow.decompose import DecomposedTransaction, TxKind, VolumeComponents\n"
            "from fillflow.errors import DecompositionAnomalyError\n"
            "row = DecomposedTransaction(7, 3, 0, 'Trump', TxKind.PURE_EXCHANGE,\n"
            "                            VolumeComponents(yes_trade=-1))\n"
            "try:\n"
            "    row.check()\n"
            "except DecompositionAnomalyError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.startswith("tx (7, 3): negative component")

    def test_ledger_matches_ground_truth(self, small_ledger, markets):
        txs = group_transactions(small_ledger.fills)
        rows, anomalies = decompose_ledger(txs, markets[:2])
        assert not anomalies
        assert rows == small_ledger.truth


class TestLedgerHandling:
    def test_multi_market_transaction_split(self, markets):
        trump, biden = markets[0], markets[1]
        fills = [
            buy_fill(biden.yes_token_id, 34 * USD, 100 * USD, 0),
            buy_fill(biden.no_token_id, 66 * USD, 100 * USD, 1),
            buy_fill(trump.no_token_id, 59 * USD, 100 * USD, 2),
            sell_fill(trump.no_token_id, 100 * USD, 59 * USD, 3),
        ]
        tx = tx_of(fills)
        rows, anomalies = decompose_ledger([tx], markets)
        assert not anomalies
        # one row per touched market, in market-config order
        assert [r.market for r in rows] == ["Trump", "Biden"]
        trump_row, biden_row = rows
        assert trump_row.kind is TxKind.PURE_EXCHANGE
        assert trump_row.components.no_trade == 59 * USD
        assert biden_row.kind is TxKind.SHARE_MINTING
        assert biden_row.components.yes_mint == 34 * USD

    def test_restrict_to_market(self, markets, example_transactions):
        tx = example_transactions[0]
        # untouched markets yield no row and do not change the touched one
        assert decompose_ledger([tx], markets) == decompose_ledger([tx], markets[:1])
        assert [r.market for r in decompose_ledger([tx], markets)[0]] == ["Trump"]

    def test_quarantine_names_first_failing_market(self, markets):
        trump, biden = markets[0], markets[1]
        good_trump = [buy_fill(trump.no_token_id, 59 * USD, 100 * USD, 0),
                      sell_fill(trump.no_token_id, 100 * USD, 59 * USD, 1)]
        bad_biden = [buy_fill(biden.no_token_id, 50 * USD, 100 * USD, 2),
                     sell_fill(biden.yes_token_id, 20 * USD, 10 * USD, 3)]
        bad_trump = [buy_fill(trump.no_token_id, 50 * USD, 100 * USD, 4),
                     sell_fill(trump.yes_token_id, 20 * USD, 10 * USD, 5)]
        assert only_anomaly(tx_of(good_trump + bad_biden), markets).market == "Biden"
        assert only_anomaly(tx_of(bad_biden + bad_trump), markets).market == "Trump"

    def test_unknown_token_quarantined(self, markets, trump):
        good = tx_of([buy_fill(trump.no_token_id, 59 * USD, 100 * USD, 0,
                               block=1, tx_index=0),
                      sell_fill(trump.no_token_id, 100 * USD, 59 * USD, 1,
                                block=1, tx_index=0)])
        bad = tx_of([buy_fill("999999", 10, 10, 0, block=2, tx_index=0)])
        rows, anomalies = decompose_ledger([good, bad], markets)
        assert len(rows) == 1 and len(anomalies) == 1
        assert "unconfigured" in anomalies[0].reason
        # quarantined + decomposed = input transactions
        assert len(anomalies) + len({(r.block, r.tx_index) for r in rows}) == 2

    def test_two_markets_with_one_name_rejected(self, markets, example_transactions):
        twins = [markets[0], dataclasses.replace(markets[1], candidate=markets[0].candidate)]
        with pytest.raises(ConfigError, match="candidate 'Trump' names markets 0 and 1"):
            decompose_ledger(example_transactions, twins)

    def test_decomposed_round_trip(self, tmp_path, small_ledger):
        # A CR or CR LF inside a quoted CSV cell is data, not a line end.
        rows = small_ledger.truth[:50] + [small_ledger.truth[50]._replace(market="a\r\nb"),
                                          small_ledger.truth[51]._replace(market="c\rd")]
        for fmt, name in (("csv", "rows.csv"), ("jsonl", "rows.jsonl")):
            path = tmp_path / name
            write_decomposed(path, rows, fmt)
            assert read_decomposed(path) == rows

    def test_record_round_trip(self, small_ledger):
        row = small_ledger.truth[0]
        assert decomposed_from_record(wire_record(row)) == row


def wire_record(row):
    """The JSONL record of ``row``: amounts as strings, coordinates as integers."""
    c = row.components
    return {
        "block": row.block, "txIndex": row.tx_index, "timestamp": row.timestamp,
        "market": row.market, "kind": row.kind.value,
        "buyVol": str(c.buy_vol), "sellVol": str(c.sell_vol),
        "yesTradeVol": str(c.yes_trade), "noTradeVol": str(c.no_trade),
        "yesMintVol": str(c.yes_mint), "noMintVol": str(c.no_mint),
        "yesBurnVol": str(c.yes_burn), "noBurnVol": str(c.no_burn),
    }


def table_rows(records, fields):
    return [[record[f] for f in fields] for record in records]


def reference_read_decomposed(path):
    """The general path alone: every row through decomposed_from_record and check."""
    rows = []
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


def outcome(read, path):
    """The rows read with the type of each value, or the ParseError text."""
    try:
        rows = read(path)
    except ParseError as exc:
        return str(exc)
    return [(row, [type(v) for v in row[:5]], [type(v) for v in row.components])
            for row in rows]


# A pure exchange of 5 on the NO token; edge cells replace one of its cells.
BASE_RECORD = dict(zip(DECOMPOSED_FIELDS, (
    "51953200", "180", "1709640000", "Trump", "pure_exchange",
    "5", "5", "0", "5", "0", "0", "0", "0")))
EDGE_CELLS = ["007", "", "+5", " 5", "1_0", "\u0665", "\u00b2", "-5"]


class TestReadDecomposedRecords:
    @pytest.mark.parametrize("name, fields", [
        ("rows.csv", DECOMPOSED_FIELDS),
        ("rows.jsonl", DECOMPOSED_FIELDS),
        ("rows.csv", DECOMPOSED_FIELDS[::-1]),
    ], ids=["csv", "jsonl", "csv-reordered"])
    def test_ground_truth_reads_back(self, tmp_path, small_ledger, name, fields):
        path = tmp_path / name
        records = map(wire_record, small_ledger.truth)
        write_table(path, fields, table_rows(records, fields), path.suffix[1:])
        assert read_decomposed(path) == small_ledger.truth

    def test_decompose_json_output_reads_as_its_csv_twin(self, tmp_path, small_ledger,
                                                         markets):
        fills, config = tmp_path / "fills.jsonl", tmp_path / "markets.json"
        write_fills(fills, small_ledger.fills)
        write_market_config(config, markets[:2])
        for fmt in ("csv", "json"):
            result = CliRunner().invoke(main, ["decompose", "--input", str(fills), "--markets",
                                               str(config), "--format", fmt,
                                               "--out", str(tmp_path / fmt)])
            assert result.exit_code == 0, result.output
        from_json = read_decomposed(tmp_path / "json" / "decomposed.jsonl")
        assert from_json == read_decomposed(tmp_path / "csv" / "decomposed.csv")
        assert from_json == small_ledger.truth

    @pytest.mark.parametrize("cell", EDGE_CELLS)
    @pytest.mark.parametrize("column", ["block", "timestamp", "buyVol", "noTradeVol"])
    def test_edge_cell_matches_general_path(self, tmp_path, column, cell):
        path = tmp_path / "rows.csv"
        write_table(path, DECOMPOSED_FIELDS,
                    table_rows([BASE_RECORD, {**BASE_RECORD, column: cell}], DECOMPOSED_FIELDS),
                    "csv")
        assert outcome(read_decomposed, path) == outcome(reference_read_decomposed, path)

    @pytest.mark.parametrize("change", [
        {"kind": "bogus"},
        {"market": ""},
        {"block": 51953200, "txIndex": 180, "timestamp": 1709640000},
        {"buyVol": 5, "sellVol": 5, "noTradeVol": 5},
        {"buyVol": 5.0},
        {"buyVol": True},
        {"kind": ["pure_exchange"]},
        {"market": 7},
        {"market": None},
        {"block": True, "txIndex": 180, "timestamp": 1709640000},
        {"block": 51953200, "txIndex": True, "timestamp": 1709640000},
        {"block": 51953200, "txIndex": -180, "timestamp": 1709640000},
        {"block": 51953200, "txIndex": 180, "timestamp": 1709640000.0},
        {"block": 51953200, "txIndex": "180", "timestamp": 1709640000},
    ], ids=["unknown-kind", "empty-market", "int-coordinates", "int-volumes", "float-volume",
            "bool-volume", "list-kind", "number-market", "null-market", "bool-block",
            "bool-tx-index", "negative-coordinate", "float-coordinate", "mixed-coordinates"])
    def test_jsonl_record_matches_general_path(self, tmp_path, change):
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(BASE_RECORD) + "\n" + json.dumps({**BASE_RECORD, **change})
                        + "\n", encoding="utf-8")
        assert outcome(read_decomposed, path) == outcome(reference_read_decomposed, path)

    def test_missing_field_matches_general_path(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        record = {k: v for k, v in BASE_RECORD.items() if k != "sellVol"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert outcome(read_decomposed, path) == "line 1: missing field 'sellVol'"
        assert outcome(reference_read_decomposed, path) == "line 1: missing field 'sellVol'"


class TestReadDecomposedByName:
    """CSV cells taken by the header's names, as ``dict(zip(header, row))`` reads them."""

    @pytest.mark.parametrize("column, good, other", [
        ("block", "51953201", "x"), ("market", "Biden", "Harris"),
        ("kind", "pure_exchange", "bogus"), ("noTradeVol", "5", "+5")])
    def test_repeated_column_counts_its_last(self, tmp_path, column, good, other):
        path = tmp_path / "rows.csv"
        for first, last in ((other, good), (good, other)):
            row = [*BASE_RECORD.values(), last]
            row[DECOMPOSED_FIELDS.index(column)] = first
            write_table(path, (*DECOMPOSED_FIELDS, column), [row], "csv")
            got = outcome(read_decomposed, path)
            assert got == outcome(reference_read_decomposed, path)
            if last == good:
                assert read_decomposed(path) == [
                    decomposed_from_record({**BASE_RECORD, column: good})]
            elif column != "market":
                assert got.startswith("line 2: ")

    def test_reordered_csv_row_is_read_by_name(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_table(path, DECOMPOSED_FIELDS[::-1],
                    table_rows([BASE_RECORD, {**BASE_RECORD, "buyVol": "+5"}],
                               DECOMPOSED_FIELDS[::-1]), "csv")
        with pytest.raises(ParseError, match=r"^line 3: buyVol: not an integer: '\+5'$"):
            read_decomposed(path)


def reference_decompose_ledger(transactions, markets):
    """The dict-per-slice decomposer: each token's sums in dicts, one slice at a time."""
    reference_logger = logging.getLogger("fillflow.decompose")
    slots = market_slots(markets)

    def decompose_slice(tx, market, buy, sell):
        if len(buy) > 1 and len(sell) > 1:
            raise DecompositionAnomalyError(
                "simultaneous mint and burn (both sides span multiple tokens)",
                tx.block, tx.tx_index)
        buy_vol, sell_vol = sum(buy.values()), sum(sell.values())
        trade_vol = min(buy_vol, sell_vol)
        trade, mint, burn = {}, {}, {}
        if buy_vol == sell_vol:
            kind = TxKind.PURE_EXCHANGE
            if trade_vol:
                if len(buy) > 1:
                    reference_logger.warning(
                        "equal-flow tx %s spans tokens %s; attributing exchange volume "
                        "to the lexicographically smallest id", tx[:2], sorted(buy))
                trade[min(buy)] = trade_vol
        elif buy_vol > sell_vol:
            kind = TxKind.MIXED_MINT if sell else TxKind.SHARE_MINTING
            mint = dict(buy)
            if trade_vol:
                leg = min(sell)
                trade[leg] = trade_vol
                mint[leg] = mint.get(leg, 0) - trade_vol
        else:
            kind = TxKind.MIXED_BURN if buy else TxKind.SHARE_BURNING
            burn = dict(sell)
            if trade_vol:
                leg = min(buy)
                trade[leg] = trade_vol
                burn[leg] = burn.get(leg, 0) - trade_vol
        for name, sums in (("mint", mint), ("burn", burn)):
            for token, value in sums.items():
                if value < 0:
                    raise DecompositionAnomalyError(
                        f"negative {name} component on token {token}", tx.block, tx.tx_index)
        yes, no = market.yes_token_id, market.no_token_id
        row = DecomposedTransaction(
            block=tx.block, tx_index=tx.tx_index, timestamp=tx.timestamp,
            market=market.candidate, kind=kind,
            components=VolumeComponents(
                yes_trade=trade.get(yes, 0), no_trade=trade.get(no, 0),
                yes_mint=mint.get(yes, 0), no_mint=mint.get(no, 0),
                yes_burn=burn.get(yes, 0), no_burn=burn.get(no, 0),
                buy_vol=buy_vol, sell_vol=sell_vol))
        row.check()
        return row

    decomposed, anomalies = [], []
    for tx in transactions:
        slices, unknown = {}, set()
        for fill in tx.fills:
            slot = slots.get(fill.token_id)
            if slot is None:
                unknown.add(fill.token_id)
                continue
            sums = slices.setdefault(slot >> 1, ({}, {}))[0 if fill.is_buy else 1]
            sums[fill.token_id] = sums.get(fill.token_id, 0) + (
                fill.maker_amount if fill.is_buy else fill.taker_amount)
        if unknown:
            anomalies.append(AnomalyRecord(tx.block, tx.tx_index, tx.timestamp, "",
                                           f"unconfigured token ids {sorted(unknown)}"))
            continue
        rows = []
        for i in sorted(slices):
            try:
                rows.append(decompose_slice(tx, markets[i], *slices[i]))
            except DecompositionAnomalyError as exc:
                anomalies.append(AnomalyRecord(tx.block, tx.tx_index, tx.timestamp,
                                               markets[i].candidate, str(exc)))
                break
        else:
            decomposed.extend(rows)
    return decomposed, anomalies


def decomposition_outcome(decomposer, transactions, markets, caplog):
    """Rows and anomalies with the type of every value, and the warnings logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fillflow.decompose"):
        rows, anomalies = decomposer(transactions, markets)
    typed_rows = [(row, [type(v) for v in row], [type(v) for v in row.components])
                  for row in rows]
    typed_anomalies = [(a, [type(v) for v in a]) for a in anomalies]
    warnings = [(r.name, r.levelno, r.msg, r.args) for r in caplog.records]
    return typed_rows, typed_anomalies, warnings


def random_transactions(markets, n, seed):
    """Small transactions over two markets' tokens and one unknown id, with tiny amounts.

    Amounts of 0 to 3 make zero-collateral fills and equal gross flows common.
    """
    rng = random.Random(seed)
    one_market = [markets[0].yes_token_id, markets[0].no_token_id]
    all_tokens = one_market + [markets[1].yes_token_id, markets[1].no_token_id, "999"]
    transactions = []
    for block in range(1, n + 1):
        tokens = one_market if rng.random() < 0.7 else all_tokens
        fills = []
        for log_index in range(rng.randint(1, 5)):
            token, usdc, shares = rng.choice(tokens), rng.randint(0, 3), rng.randint(0, 9)
            if rng.random() < 0.5:
                fills.append(buy_fill(token, usdc, shares, log_index, block=block))
            else:
                fills.append(sell_fill(token, shares, usdc, log_index, block=block))
        transactions.append(tx_of(fills))
    return transactions


class TestDifferentialDecomposition:
    """decompose_ledger against the dict-per-slice reference: equal rows, anomalies, warnings."""

    def test_generator_ledgers(self, markets, caplog):
        ledger = generate_synthetic_ledger(SyntheticScenario(
            seed=77, markets=markets, start=parse_utc("2024-06-15T00:00:00Z"),
            end=parse_utc("2024-09-15T00:00:00Z"), n_transactions=2000, arbitrageur=True))
        transactions = group_transactions(ledger.fills)
        without_harris = [m for m in markets if m.candidate != "Harris"]
        for config in (markets, without_harris):
            outcome = decomposition_outcome(decompose_ledger, transactions, config, caplog)
            assert outcome == decomposition_outcome(reference_decompose_ledger, transactions,
                                                    config, caplog)
        rows, anomalies, _ = outcome
        assert rows and anomalies  # Harris's transactions are quarantined without it

    def test_random_small_transactions(self, markets, caplog):
        transactions = random_transactions(markets, 3000, seed=11)
        outcome = decomposition_outcome(decompose_ledger, transactions, markets, caplog)
        assert outcome == decomposition_outcome(reference_decompose_ledger, transactions,
                                                markets, caplog)

        # The shapes the sample must cover. Both tokens on both sides of one
        # market is the "simultaneous" anomaly; equal flows spanning both
        # tokens log the warnings.
        rows, anomalies, warnings = outcome
        assert any((fill.maker_amount if fill.is_buy else fill.taker_amount) == 0
                   for tx in transactions for fill in tx.fills)
        assert any({(fill.token_id, True), (fill.token_id, False)}
                   <= {(f.token_id, f.is_buy) for f in tx.fills}
                   for tx in transactions for fill in tx.fills)
        reasons = [anomaly.reason for anomaly, _ in anomalies]
        for reason in ("unconfigured", "simultaneous", "negative"):
            assert any(reason in r for r in reasons), reason
        markets_by_tx = {}
        for row, _, _ in rows:
            markets_by_tx.setdefault((row.block, row.tx_index), set()).add(row.market)
        assert any(len(names) == 2 for names in markets_by_tx.values())
        assert warnings


RECORDS = [
    VolumeComponents(),
    DecomposedTransaction(1, 0, 0, "Trump", TxKind.PURE_EXCHANGE, VolumeComponents()),
    AnomalyRecord(1, 0, 0, "Trump", "reason"),
    PricePoint(0, 1, 0, 1, 2),
    DeviationPoint(0, 0.0, 0.5, 0.5, 0, 0),
    InflowSeries((), ()),
    SignedTrade(0, 0.5, 1, 2, 1),
    HourBar(0, 0.5, 0, 0, True),
    LambdaEstimate(0, None, None, 2),
    RegressionResult(1.0, None, 1.0, None, 0.5, 0.5, 3),
    SideTotals(),
    IntervalTotals(0, "day", SideTotals(), SideTotals()),
    MarketMeasures(0, 0, 0),
]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
