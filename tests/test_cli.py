import builtins
import collections
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import fillflow
from fillflow import cli, decompose, events, fetch
from fillflow.cli import main
from fillflow.decompose import read_decomposed, write_decomposed
from fillflow.events import (FILL_FIELDS, read_fills, write_fills, write_market_config,
                             write_table)
from fillflow.fixtures import write_fixture
from fillflow.units import format_utc

START = "2024-02-01T00:00:00Z"
END = "2024-05-01T00:00:00Z"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixture_dir(tmp_path):
    write_fixture(tmp_path / "fixture")
    return tmp_path / "fixture"


@pytest.fixture
def fixture_table(runner, fixture_dir, tmp_path):
    """The fixture ledger's decomposed table."""
    result = runner.invoke(main, ["decompose", "--input", str(fixture_dir / "fills.jsonl"),
                                  "--markets", str(fixture_dir / "markets.json"),
                                  "--out", str(tmp_path / "dec")])
    assert result.exit_code == 0, result.output
    return tmp_path / "dec" / "decomposed.csv"


@pytest.fixture
def scenario_path(tmp_path, markets):
    doc = {
        "seed": 17,
        "markets": [{
            "candidate": m.candidate, "yesTokenId": m.yes_token_id,
            "noTokenId": m.no_token_id, "launch": "2024-01-04T23:00:00Z",
        } for m in markets[:2]],
        "start": START,
        "end": END,
        "nTransactions": 900,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestDecomposeCommand:
    def test_fixture_rows_match_published_components(self, runner, fixture_dir, tmp_path):
        out = tmp_path / "out"
        result = run(runner, [
            "decompose", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(fixture_dir / "markets.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = csv_rows(out / "decomposed.csv")
        assert len(rows) == 4
        by_key = {(int(r["block"]), int(r["txIndex"])): r for r in rows}
        simple = by_key[(51953200, 180)]
        assert simple["noTradeVol"] == "123900000"
        minting = by_key[(54432034, 44)]
        assert (minting["yesMintVol"], minting["noMintVol"]) == ("2040000000", "3960000000")
        burning = by_key[(55100000, 12)]
        assert (burning["yesBurnVol"], burning["noBurnVol"]) == ("82476000", "123714000")
        mixed = by_key[(56200000, 7)]
        assert (mixed["yesTradeVol"], mixed["yesMintVol"], mixed["noMintVol"]) == \
            ("84000000", "15999999", "22095238")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "decompose"
        assert set(manifest["inputs"]) == {"fills.jsonl", "markets.json"}

    def test_missing_market_config_exits_2_without_outputs(self, runner, fixture_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "decompose", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(tmp_path / "nope.json"), "--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_invalid_market_config_exits_2(self, runner, fixture_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"markets": [{"candidate": "X"}]}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "decompose", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(bad), "--out", str(out)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad_id", [lambda token: " " + token, lambda token: token + "a",
                                        int], ids=["padded", "non-digit", "number"])
    def test_bad_token_id_exits_2(self, runner, fixture_dir, tmp_path, bad_id):
        doc = json.loads((fixture_dir / "markets.json").read_text(encoding="utf-8"))
        market = doc["markets"][1]
        market["noTokenId"] = bad_id(market["noTokenId"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, [
            "decompose", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(bad), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert (f"market {market['candidate']!r}: no_token_id must be a decimal string, "
                f"got {market['noTokenId']!r}") in result.output

    @pytest.mark.parametrize("field, value", [
        ("launch", " \u0661\u0667\u0660\u0669"),
        ("launch", "yesterday"),
        ("resolution", 1.9),
    ], ids=["spaced-non-ascii-digits", "not-a-date", "fractional-seconds"])
    def test_bad_market_time_exits_2(self, runner, fixture_dir, tmp_path, field, value):
        doc = json.loads((fixture_dir / "markets.json").read_text(encoding="utf-8"))
        doc["markets"][1][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, [
            "decompose", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(bad), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "market entry 1: bad launch or resolution" in result.output

    def test_market_config_not_utf8_exits_2(self, runner, fixture_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes((fixture_dir / "markets.json").read_bytes().replace(b"Biden", b"Bid\xe9n"))
        result = runner.invoke(main, [
            "decompose", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(bad), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "invalid market config JSON" in result.output

    def test_corrupt_ledger_exits_3(self, runner, fixture_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"block": "not a number"}\n')
        result = runner.invoke(main, [
            "decompose", "--input", str(bad),
            "--markets", str(fixture_dir / "markets.json"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_anomaly_threshold_exits_4(self, runner, fixture_dir, tmp_path, example_fills):
        from fillflow.events import FillEvent
        fills = example_fills + [FillEvent(
            99999999, 0, 0, "0xa", "0xb", "0", "31337", 100, 100,
            example_fills[-1].timestamp)]
        ledger = tmp_path / "fills.jsonl"
        write_fills(ledger, fills)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "decompose", "--input", str(ledger),
            "--markets", str(fixture_dir / "markets.json"),
            "--max-anomalies", "0", "--out", str(out)])
        assert result.exit_code == 4
        quarantine = (out / "quarantine.jsonl").read_text().splitlines()
        assert len(quarantine) == 1
        assert json.loads(quarantine[0])["reason"].startswith("unconfigured")
        # quarantined + decomposed = input transactions
        assert len(read_decomposed(out / "decomposed.csv")) + 1 == 5


class TestPipeline:
    def test_simulate_then_decompose_matches_sidecar(self, runner, scenario_path, tmp_path):
        sim = tmp_path / "sim"
        result = run(runner, ["simulate", "--scenario", str(scenario_path),
                              "--out", str(sim)])
        assert result.exit_code == 0, result.output
        dec = tmp_path / "dec"
        result = run(runner, [
            "decompose", "--input", str(sim / "fills.jsonl"),
            "--markets", str(sim / "markets.json"),
            "--format", "json", "--out", str(dec)])
        assert result.exit_code == 0, result.output
        got = read_decomposed(dec / "decomposed.jsonl")
        want = read_decomposed(sim / "ground_truth.jsonl")
        assert got == want
        assert not (dec / "quarantine.jsonl").exists()

    def test_metrics_table_shape(self, runner, scenario_path, tmp_path):
        sim, dec, met = tmp_path / "sim", tmp_path / "dec", tmp_path / "met"
        run(runner, ["simulate", "--scenario", str(scenario_path), "--out", str(sim)])
        run(runner, ["decompose", "--input", str(sim / "fills.jsonl"),
                     "--markets", str(sim / "markets.json"), "--out", str(dec)])
        result = run(runner, [
            "metrics", "--input", str(dec / "decomposed.csv"),
            "--market", "Trump", "--partition", "month", "--out", str(met)])
        assert result.exit_code == 0, result.output
        rows = csv_rows(met / "metrics.csv")
        assert rows
        for row in rows:
            v_e = float(row["yesVE"])
            f = float(row["yesF"])
            v_g = float(row["yesVG"])
            assert v_g == pytest.approx(v_e + abs(f), abs=1e-6)

    def test_deviation_and_disagreement_and_traders(self, runner, scenario_path, tmp_path):
        sim = tmp_path / "sim"
        run(runner, ["simulate", "--scenario", str(scenario_path), "--out", str(sim)])
        dec = tmp_path / "dec"
        run(runner, ["decompose", "--input", str(sim / "fills.jsonl"),
                     "--markets", str(sim / "markets.json"), "--out", str(dec)])

        dev = tmp_path / "dev"
        result = run(runner, [
            "deviation", "--input", str(sim / "fills.jsonl"),
            "--markets", str(sim / "markets.json"),
            "--market", "Trump", "--grid-step", "3600", "--out", str(dev)])
        assert result.exit_code == 0, result.output
        rows = csv_rows(dev / "deviation.csv")
        assert rows and all(abs(float(r["delta"])) < 1 for r in rows)

        dis = tmp_path / "dis"
        result = run(runner, [
            "disagreement", "--input", str(dec / "decomposed.csv"),
            "--market-a", "Trump", "--first-democrat", "Biden",
            "--second-democrat", "Biden", "--splice-day", "2024-03-01",
            "--corr-window-days", "30", "--out", str(dis)])
        assert result.exit_code == 0, result.output
        corr = csv_rows(dis / "correlation.csv")
        assert corr

        meta = json.loads((sim / "simulation.json").read_text())
        tr = tmp_path / "tr"
        result = run(runner, [
            "traders", "--input", str(sim / "fills.jsonl"),
            "--markets", str(sim / "markets.json"),
            "--exclude-addresses", meta["exchangeAddress"], "--out", str(tr)])
        assert result.exit_code == 0, result.output
        hourly = csv_rows(tr / "hourly.csv")
        assert len(hourly) == 24
        cells = csv_rows(tr / "participation.csv")
        assert sum(float(c["sharePct"]) for c in cells) == pytest.approx(100.0, abs=0.1)

    def test_lambda_pipeline(self, runner, tmp_path, markets):
        doc = {
            "seed": 5,
            "markets": [{
                "candidate": m.candidate, "yesTokenId": m.yes_token_id,
                "noTokenId": m.no_token_id, "launch": "2024-01-04T23:00:00Z",
            } for m in markets[:1]],
            "start": "2024-01-10T00:00:00Z",
            "end": "2024-04-10T00:00:00Z",
            "nTransactions": 6000,
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        sim = tmp_path / "sim"
        run(runner, ["simulate", "--scenario", str(scenario), "--out", str(sim)])
        lam = tmp_path / "lam"
        result = run(runner, [
            "lambda", "--input", str(sim / "fills.jsonl"),
            "--markets", str(sim / "markets.json"),
            "--market", "Trump", "--side", "yes", "--out", str(lam)])
        assert result.exit_code == 0, result.output
        rows = csv_rows(lam / "lambda.csv")
        assert rows
        assert set(rows[0]) == {"date", "lambda", "se", "n", "avgVolume"}
        assert (lam / "lambda_regression.json").exists()

    @pytest.mark.parametrize("side", ["yes", "no"])
    def test_lambda_on_a_side_without_trades_exits_3(self, runner, fixture_dir, tmp_path, side):
        # the fixture ledger has no fill on either Harris token
        out = tmp_path / "lam"
        result = run(runner, ["lambda", "--input", str(fixture_dir / "fills.jsonl"),
                              "--markets", str(fixture_dir / "markets.json"),
                              "--market", "Harris", "--side", side, "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"error: no trades for Harris {side.upper()}" in result.output
        assert not out.exists()


class TestFlagValidation:
    def test_reversed_date_range_exits_2(self, runner, valid_inputs, tmp_path):
        paths = {role: str(path) for role, path in valid_inputs.items()}
        commands = [command for command, template in TEMPLATES.items()
                    if "--from" in {opt for param in main.commands[command].params
                                    for opt in param.opts}]
        assert len(commands) == 6
        for command in commands:
            args = [arg.format_map(paths) for arg in TEMPLATES[command]]
            result = runner.invoke(main, args + ["--from", "2024-06-01", "--to", "2024-02-01",
                                                 "--out", str(tmp_path / command)])
            assert result.exit_code == 2, (command, result.output)
            assert "date range start must be before end" in result.output, command

    @pytest.mark.parametrize("option, value", [
        ("--from", "\u0661\u0667\u0660\u0669"),
        ("--from", " 1709640000 "),
        ("--to", "yesterday"),
    ], ids=["non-ascii-digits", "spaced-digits", "not-a-date"])
    def test_bad_date_option_exits_2(self, runner, fixture_dir, tmp_path, option, value):
        result = runner.invoke(main, [
            "decompose", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(fixture_dir / "markets.json"), option, value,
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "Invalid isoformat" in result.output

    @pytest.mark.parametrize("value", ["yesterday", ""], ids=["not-a-date", "empty"])
    def test_bad_splice_day_exits_2_naming_the_option(self, runner, fixture_table, tmp_path,
                                                       value):
        result = runner.invoke(main, ["disagreement", "--input", str(fixture_table),
                                      "--splice-day", value, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert f"Invalid value for '--splice-day': Invalid isoformat string: {value!r}" \
            in result.output

    def test_splice_day_is_recorded_as_given(self, runner, tmp_path, small_ledger):
        table, out = tmp_path / "decomposed.csv", tmp_path / "out"
        write_decomposed(table, small_ledger.truth)
        result = run(runner, ["disagreement", "--input", str(table), "--second-democrat",
                              "Biden", "--splice-day", "2024-03-01T12:00:00Z",
                              "--corr-window-days", "30", "--out", str(out)])
        assert result.exit_code == 0, result.output
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params["spliceDay"] == "2024-03-01T12:00:00Z"

    def test_deviation_staleness_filter(self, runner, fixture_dir, tmp_path):
        loose = tmp_path / "loose"
        tight = tmp_path / "tight"
        base = ["deviation", "--input", str(fixture_dir / "fills.jsonl"),
                "--markets", str(fixture_dir / "markets.json"),
                "--market", "Trump", "--grid-step", "86400"]
        assert run(runner, base + ["--out", str(loose)]).exit_code == 0
        assert run(runner, base + ["--max-staleness", "43200",
                                   "--out", str(tight)]).exit_code == 0
        n_loose = len(csv_rows(loose / "deviation.csv"))
        n_tight = len(csv_rows(tight / "deviation.csv"))
        assert 0 < n_tight < n_loose

    def test_participation_table_has_bitmask(self, runner, fixture_dir, tmp_path):
        out = tmp_path / "tr"
        result = run(runner, [
            "traders", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(fixture_dir / "markets.json"),
            "--exclude-addresses", "0xc5d563a36ae78145c45a50134d48a1215220f80a",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = csv_rows(out / "participation.csv")
        assert rows and all(r["bitmask"].isdigit() for r in rows)

    @pytest.mark.parametrize("command", ["deviation", "lambda"])
    def test_unknown_market_exits_2_listing_candidates(self, runner, fixture_dir, tmp_path,
                                                       command):
        result = runner.invoke(main, [
            command, "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(fixture_dir / "markets.json"), "--market", "Nobody",
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert ("market 'Nobody' not in the configuration (Trump, Biden, Harris)"
                in result.output)

    def test_metrics_month_dense_keeps_empty_months(self, runner, fixture_table, tmp_path):
        out = tmp_path / "met"
        result = run(runner, ["metrics", "--input", str(fixture_table),
                              "--market", "Trump", "--partition", "month", "--dense",
                              "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = csv_rows(out / "metrics.csv")
        assert [r["interval"] for r in rows] == ["2024-03", "2024-04", "2024-05", "2024-06"]
        assert all(float(value) == 0 for key, value in rows[1].items() if key != "interval")
        assert float(rows[0]["combinedVG"]) > 0 and float(rows[2]["combinedVG"]) > 0

    # A year without ISO dates for the quarter's bounds (0, 10000, negative) is bad too.
    @pytest.mark.parametrize("quarter", ["2024Q5", "Q4", "0Q1", "9999Q4", "-5Q1"])
    def test_bad_quarter_exits_2(self, runner, fixture_dir, tmp_path, quarter):
        result = runner.invoke(main, [
            "traders", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(fixture_dir / "markets.json"), "--quarter", quarter,
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"bad quarter {quarter!r}" in result.output

    def test_quarter_capped_at_sample_end(self, runner, fixture_dir, tmp_path):
        out = tmp_path / "out"
        result = run(runner, [
            "traders", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(fixture_dir / "markets.json"), "--quarter", "2024Q4",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params["from"] == 1727740800  # 2024-10-01T00:00:00Z
        assert params["to"] == 1730875560  # 2024-11-06T06:46:00Z, the sample end

    def test_disagreement_market_without_rows_exits_3(self, runner, fixture_table, tmp_path):
        result = runner.invoke(main, ["disagreement", "--input", str(fixture_table),
                                      "--market-a", "Nobody", "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "an inflow series is empty" in result.output

    @pytest.mark.parametrize("window", [["--to", "2024-01-01"], ["--from", "2030-01-01"]],
                             ids=["to-only", "from-only"])
    def test_disagreement_window_without_rows_exits_3(self, runner, fixture_table, tmp_path,
                                                      window):
        # The daily grid follows the metrics rule: with one bound unset and no row inside
        # the other, it is empty, so the splice is too.
        result = runner.invoke(main, ["disagreement", "--input", str(fixture_table), *window,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "splice produced an empty series" in result.output

    def test_metrics_market_without_rows_exits_3(self, runner, fixture_table, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["metrics", "--input", str(fixture_table),
                                      "--market", "Nobody", "--dense", "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert ("market 'Nobody' has no rows in the decomposed table "
                "(markets present: Biden, Trump)") in result.output
        assert not (out / "metrics.csv").exists()

    def test_metrics_market_without_rows_in_window_exits_0(self, runner, fixture_table,
                                                           tmp_path):
        out = tmp_path / "out"
        result = run(runner, ["metrics", "--input", str(fixture_table), "--market", "Trump",
                              "--from", "2020-01-01", "--to", "2020-02-01", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert csv_rows(out / "metrics.csv") == []

    @pytest.mark.parametrize("partition", ["hour", "day", "month"])
    @pytest.mark.parametrize("window", [["--to", "2024-03-01"], ["--from", "2024-07-01"]],
                             ids=["to-only", "from-only"])
    def test_metrics_dense_window_before_or_after_the_rows_is_header_only(
            self, runner, fixture_table, tmp_path, partition, window):
        # One bound unset and no row of the market inside the other: no grid.
        out = tmp_path / "out"
        result = run(runner, ["metrics", "--input", str(fixture_table), "--market", "Trump",
                              "--partition", partition, "--dense", *window, "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 and lines[0].startswith("interval,")

    @pytest.mark.parametrize("window", [[], ["--from", "2024-02-01"], ["--to", "2024-02-01"]],
                             ids=["no-window", "from-only", "to-only"])
    def test_traders_on_ledger_without_transactions_exits_3(self, runner, fixture_dir,
                                                            tmp_path, window):
        ledger = tmp_path / "fills.jsonl"
        ledger.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["traders", "--input", str(ledger),
                                      "--markets", str(fixture_dir / "markets.json"),
                                      *window, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "the ledger has no transactions to take the window bounds from" in result.output


class TestInputErrorsExit2:
    def test_scenario_time_not_utc_exits_2(self, runner, scenario_path, tmp_path):
        doc = json.loads(scenario_path.read_text())
        doc["start"] = "yesterday"
        scenario_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", "--scenario", str(scenario_path),
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 2, result.output
        assert "scenario: Invalid isoformat string: 'yesterday'" in result.output

    def test_scenario_whale_market_number_exits_2(self, runner, scenario_path, tmp_path):
        doc = json.loads(scenario_path.read_text())
        doc["markets"][0]["candidate"] = "7"
        doc["whaleSchedule"] = [{"time": START, "market": 7, "side": "yes", "usd": 1000}]
        scenario_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", "--scenario", str(scenario_path),
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 2, result.output
        assert "WhaleEvent names unknown market 7" in result.output

    def test_exclude_file_not_utf8_exits_2(self, runner, fixture_dir, tmp_path):
        excludes = tmp_path / "excludes.txt"
        excludes.write_bytes(b"0xab\xe9\n")
        result = runner.invoke(main, [
            "traders", "--input", str(fixture_dir / "fills.jsonl"),
            "--markets", str(fixture_dir / "markets.json"),
            "--exclude-addresses", f"@{excludes}", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"--exclude-addresses file {excludes}: not valid UTF-8" in result.output


class TestImpactCommand:
    def test_worked_values(self, runner):
        result = run(runner, ["impact", "--lam", "0.518", "--price", "0.5",
                              "--flow", "1", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["deltaP"] == 0.1295

    def test_bad_price_exits_2(self, runner):
        result = runner.invoke(main, ["impact", "--lam", "0.1", "--price", "1.5"])
        assert result.exit_code == 2


class TestDeterminism:
    def test_pipeline_byte_identical(self, runner, scenario_path, tmp_path):
        digests = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            run(runner, ["simulate", "--scenario", str(scenario_path),
                         "--out", str(base / "sim")])
            run(runner, ["decompose", "--input", str(base / "sim" / "fills.jsonl"),
                         "--markets", str(base / "sim" / "markets.json"),
                         "--out", str(base / "dec")])
            run(runner, ["metrics", "--input", str(base / "dec" / "decomposed.csv"),
                         "--market", "Trump", "--partition", "day",
                         "--out", str(base / "met")])
            run(runner, ["lambda", "--input", str(base / "sim" / "fills.jsonl"),
                         "--markets", str(base / "sim" / "markets.json"),
                         "--market", "Trump", "--out", str(base / "lam")])
            digest = {}
            for path in sorted((tmp_path / tag).rglob("*")):
                if path.is_file():
                    digest[str(path.relative_to(tmp_path / tag))] = path.read_bytes()
            digests.append(digest)
        assert digests[0] == digests[1]


class TestJsonOutputs:
    def test_metrics_jsonl(self, runner, fixture_dir, tmp_path):
        dec = tmp_path / "dec"
        run(runner, ["decompose", "--input", str(fixture_dir / "fills.jsonl"),
                     "--markets", str(fixture_dir / "markets.json"), "--out", str(dec)])
        met = tmp_path / "met"
        result = run(runner, ["metrics", "--input", str(dec / "decomposed.csv"),
                              "--market", "Trump", "--partition", "month",
                              "--format", "json", "--out", str(met)])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in
                (met / "metrics.jsonl").read_text().splitlines()]
        assert rows and rows[0]["interval"] == "2024-03"
        assert rows[0]["noVE"] == "123.900000"

    def test_deviation_jsonl(self, runner, fixture_dir, tmp_path):
        out = tmp_path / "dev"
        result = run(runner, ["deviation", "--input", str(fixture_dir / "fills.jsonl"),
                              "--markets", str(fixture_dir / "markets.json"),
                              "--market", "Trump", "--grid-step", "86400",
                              "--format", "json", "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in
                (out / "deviation.jsonl").read_text().splitlines()]
        assert rows and "delta" in rows[0]


class TestIngestCommand:
    def test_merges_shards_and_sorts(self, runner, tmp_path, example_fills):
        shard1 = tmp_path / "shard1.jsonl"
        shard2 = tmp_path / "shard2.csv"
        write_fills(shard1, example_fills[5:])
        write_fills(shard2, example_fills[:5], "csv")
        out = tmp_path / "out"
        result = run(runner, ["ingest", "--input", str(shard1),
                              "--input", str(shard2), "--out", str(out)])
        assert result.exit_code == 0, result.output
        from fillflow.events import read_fills
        merged = read_fills(out / "fills.jsonl")
        assert merged == sorted(example_fills, key=lambda f: f[:3])

    def test_duplicate_fill_exits_3(self, runner, tmp_path, example_fills):
        shard = tmp_path / "shard.jsonl"
        write_fills(shard, example_fills + example_fills[:1])
        result = runner.invoke(main, ["ingest", "--input", str(shard),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_block_times_sidecar_is_a_digested_input(self, runner, tmp_path, example_fills):
        shard = tmp_path / "shard.jsonl"
        write_fills(shard, example_fills)
        inputs = []
        for name, sidecar in (("a", '{"5": 1709640000}'), ("b", '{"5": 1709643600}')):
            times = tmp_path / name / "block_times.json"
            times.parent.mkdir()
            times.write_text(sidecar, encoding="utf-8")
            out = tmp_path / name / "out"
            result = run(runner, ["ingest", "--input", str(shard), "--block-times", str(times),
                                  "--out", str(out)])
            assert result.exit_code == 0, result.output
            inputs.append(json.loads((out / "manifest.json").read_text())["inputs"])
        assert set(inputs[0]) == set(inputs[1]) == {"shard.jsonl", "block_times.json"}
        assert inputs[0]["shard.jsonl"] == inputs[1]["shard.jsonl"]
        assert inputs[0]["block_times.json"] != inputs[1]["block_times.json"]

    @pytest.mark.parametrize("field, value, message", [
        ("maker", None, "maker must be a string, got None"),
        ("maker", 351, "maker must be a string, got 351"),
        ("maker", {"a": 1}, "maker must be a string, got {'a': 1}"),
        ("takerAssetId", 0, "taker_asset_id must be a decimal string, got 0"),
    ], ids=["null-maker", "number-maker", "object-maker", "number-asset-id"])
    def test_non_string_field_exits_3_naming_line(self, runner, tmp_path, example_fills,
                                                  field, value, message):
        shard = tmp_path / "shard.jsonl"
        write_fills(shard, example_fills[:2])
        lines = shard.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record[field] = value
        shard.write_text(lines[0] + json.dumps(record) + "\n")
        result = runner.invoke(main, ["ingest", "--input", str(shard),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert f"line 2: {message}" in result.output

    def test_nothing_to_ingest_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["ingest", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_endpoint_without_block_range_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["ingest", "--endpoint", "http://example",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("sidecar, message", [
        ('{"x1": 1709640000}', "block-times key 'x1': not a decimal block number"),
        ('{"50000141": "yesterday"}', "block-times key '50000141': Invalid isoformat"),
        ("[1, 2]", "block-times sidecar must be a JSON object, got list"),
        ('{"\u0661\u0660": 1709640000}', "not a decimal block number"),
        ('{" 5 ": 1709640000}', "block-times key ' 5 ': not a decimal block number"),
        ('{"1_0": 1709640000}', "block-times key '1_0': not a decimal block number"),
        ('{"5": null}', "block-times key '5': not a timestamp: None"),
        ('{"5": 1.9}', "block-times key '5': not a whole number of seconds: 1.9"),
        ('{"5": " 1709640000 "}', "block-times key '5': Invalid isoformat"),
        ('{"5": "\u0661\u0667\u0660\u0669"}', "block-times key '5': Invalid isoformat"),
    ], ids=["non-integer-key", "bad-time", "list", "non-ascii-digit-key", "spaced-key",
            "underscore-key", "null-time", "fractional-time", "spaced-time",
            "non-ascii-digit-time"])
    def test_malformed_block_times_exits_3(self, runner, tmp_path, example_fills, sidecar,
                                           message):
        shard = tmp_path / "shard.jsonl"
        write_fills(shard, example_fills)
        times = tmp_path / "block_times.json"
        times.write_text(sidecar, encoding="utf-8")
        result = runner.invoke(main, ["ingest", "--input", str(shard), "--block-times",
                                      str(times), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert message in result.output

    def test_csv_output_round_trips(self, runner, tmp_path, example_fills):
        shard = tmp_path / "shard.jsonl"
        write_fills(shard, example_fills)
        out = tmp_path / "out"
        result = run(runner, ["ingest", "--input", str(shard),
                              "--format", "csv", "--out", str(out)])
        assert result.exit_code == 0, result.output
        from fillflow.events import read_fills
        assert read_fills(out / "fills.csv") == sorted(
            example_fills, key=lambda f: f[:3])

    @pytest.mark.parametrize("malformed", [False, True], ids=["valid", "malformed"])
    def test_every_shard_is_parsed_before_the_endpoint(self, runner, tmp_path, example_fills,
                                                       monkeypatch, malformed):
        calls = []

        def recording_fetch(endpoint, from_block, to_block, spool, *args, **kwargs):
            calls.append((endpoint, from_block, to_block))
            Path(spool).write_text("", encoding="utf-8")

        monkeypatch.setattr(fetch, "fetch_event_logs", recording_fetch)
        shard = tmp_path / "shard.jsonl"
        write_fills(shard, example_fills[:2])
        if malformed:
            with open(shard, "a", encoding="utf-8") as fh:
                fh.write('{"block": "not a number"}\n')
        out = tmp_path / "out"
        result = runner.invoke(main, ["ingest", "--input", str(shard), "--endpoint", "http://x",
                                      "--from-block", "0", "--to-block", "10", "--out", str(out)])
        if malformed:
            assert result.exit_code == 3, result.output
            assert "line 3" in result.output
            assert calls == []
            assert not (out / "fetched.jsonl").exists()
        else:
            assert result.exit_code == 0, result.output
            assert calls == [("http://x", 0, 10)]


RAW_LEDGER_OPTIONS = {
    "decompose": [],
    "deviation": ["--market", "Trump", "--grid-step", "3600"],
    "lambda": ["--market", "Trump"],
    "traders": [],
}


def refuse_parse(*args):
    raise AssertionError("the ledger was parsed, not read from the cache")


class TestParsedLedgerCache:
    """A command served by the parsed-table cache writes what a parse would have written."""

    @pytest.fixture
    def inputs(self, tmp_path, small_ledger, markets):
        write_fills(tmp_path / "fills.jsonl", small_ledger.fills)
        write_fills(tmp_path / "fills.csv", small_ledger.fills, "csv")
        write_table(tmp_path / "untimed.csv", FILL_FIELDS[:-1],
                    [fill[:-1] for fill in small_ledger.fills], "csv")
        (tmp_path / "block_times.json").write_text(json.dumps(
            {fill.block: format_utc(fill.timestamp) for fill in small_ledger.fills}))
        write_market_config(tmp_path / "markets.json", markets[:2])
        return tmp_path

    @staticmethod
    def args(inputs, command, ledger, out):
        if command == "ingest":
            extra = (["--block-times", str(inputs / "block_times.json")]
                     if ledger == "untimed.csv" else [])
        else:
            extra = ["--markets", str(inputs / "markets.json"), *RAW_LEDGER_OPTIONS[command]]
        return [command, "--input", str(inputs / ledger), *extra, "--out", str(out)]

    @pytest.mark.parametrize("command, ledger", [
        *[(command, ledger) for command in (*RAW_LEDGER_OPTIONS, "ingest")
          for ledger in ("fills.jsonl", "fills.csv")],
        ("ingest", "untimed.csv"),
    ])
    def test_warm_run_writes_the_cold_run_bytes(self, runner, inputs, fill_cache, monkeypatch,
                                                command, ledger):
        artifacts = []
        for run_name in ("cold", "warm"):  # stored, then read
            out = inputs / run_name
            result = run(runner, self.args(inputs, command, ledger, out))
            assert result.exit_code == 0, result.output
            artifacts.append({path.name: path.read_bytes() for path in out.iterdir()})
            assert len(list(fill_cache.iterdir())) == 1
            monkeypatch.setattr(events, "_parse_fills", refuse_parse)
        assert artifacts[0] == artifacts[1]

    def test_decompose_of_a_rewritten_ingest_output_hits(self, runner, tmp_path, monkeypatch,
                                                         small_ledger, markets):
        # Two shards, as the benchmark's ingest merges, so no shard holds the merged bytes.
        write_fills(tmp_path / "shard-a.jsonl", small_ledger.fills[0::2])
        write_fills(tmp_path / "shard-b.csv", small_ledger.fills[1::2], "csv")
        write_market_config(tmp_path / "markets.json", markets[:2])
        artifacts = []
        for run_name in ("cold", "warm"):
            ingested, decomposed = tmp_path / run_name / "ingest", tmp_path / run_name / "dec"
            result = run(runner, ["ingest", "--input", str(tmp_path / "shard-a.jsonl"),
                                  "--input", str(tmp_path / "shard-b.csv"), "--out", str(ingested)])
            assert result.exit_code == 0, result.output
            # The warm run's fills.jsonl is a file of its own with the cold run's bytes: a hit.
            result = run(runner, ["decompose", "--input", str(ingested / "fills.jsonl"),
                                  "--markets", str(tmp_path / "markets.json"),
                                  "--out", str(decomposed)])
            assert result.exit_code == 0, result.output
            artifacts.append({f"{out.name}/{path.name}": path.read_bytes()
                              for out in (ingested, decomposed) for path in out.iterdir()})
            monkeypatch.setattr(events, "_parse_fills", refuse_parse)
        assert artifacts[0] == artifacts[1]

    def test_regular_file_in_place_of_the_cache_directory(self, runner, inputs, fill_cache):
        fill_cache.write_bytes(b"in the way")
        result = run(runner, self.args(inputs, "decompose", "fills.jsonl", inputs / "blocked"))
        assert result.exit_code == 0, result.output
        assert fill_cache.read_bytes() == b"in the way"
        fill_cache.unlink()
        run(runner, self.args(inputs, "decompose", "fills.jsonl", inputs / "cached"))
        assert ((inputs / "blocked" / "decomposed.csv").read_bytes()
                == (inputs / "cached" / "decomposed.csv").read_bytes())

    def test_rejected_ledger_is_rejected_again_and_never_cached(self, runner, inputs,
                                                                fill_cache):
        lines = (inputs / "fills.jsonl").read_text().splitlines(keepends=True)
        lines[1000] = lines[1000].replace('"logIndex": ', '"logIndex": -')
        (inputs / "fills.jsonl").write_text("".join(lines))
        for _ in range(2):
            result = runner.invoke(main, self.args(inputs, "decompose", "fills.jsonl",
                                                   inputs / "out"))
            assert result.exit_code == 3, result.output
            assert "line 1001: log_index must be a non-negative integer" in result.output
            assert not fill_cache.exists()


DECOMPOSED_TABLE_OPTIONS = {
    "metrics-hour": ["metrics", "--market", "Trump", "--partition", "hour", "--dense"],
    "metrics-month": ["metrics", "--market", "Trump", "--partition", "month"],
    "disagreement": ["disagreement", "--first-democrat", "Biden", "--second-democrat", "Biden",
                     "--splice-day", "2024-03-01", "--corr-window-days", "30"],
}


class TestParsedDecomposedTableCache:
    """A command served by the parsed-table cache writes what a parse of its decomposed table
    would have written."""

    @pytest.mark.parametrize("command", DECOMPOSED_TABLE_OPTIONS)
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_warm_run_writes_the_cold_run_bytes(self, runner, tmp_path, fill_cache, monkeypatch,
                                                small_ledger, command, fmt):
        table = tmp_path / f"decomposed.{fmt}"
        write_decomposed(table, small_ledger.truth, fmt)
        name, *options = DECOMPOSED_TABLE_OPTIONS[command]
        artifacts = []
        for run_name in ("cold", "warm"):  # stored, then read
            out = tmp_path / run_name
            result = run(runner, [name, "--input", str(table), *options, "--out", str(out)])
            assert result.exit_code == 0, result.output
            artifacts.append({path.name: path.read_bytes() for path in out.iterdir()})
            assert len(list(fill_cache.iterdir())) == 1
            monkeypatch.setattr(decompose, "_parse_decomposed", refuse_parse)
        assert artifacts[0] == artifacts[1]
        manifest = json.loads(artifacts[1]["manifest.json"])
        assert manifest["inputs"] == {table.name: hashlib.sha256(table.read_bytes()).hexdigest()}


DECOMPOSED_HEADER = ("block,txIndex,timestamp,market,kind,buyVol,sellVol,"
                     "yesTradeVol,noTradeVol,yesMintVol,noMintVol,yesBurnVol,noBurnVol")
DECOMPOSED_ROW = "51953200,180,1709640000,Trump,pure_exchange,5,5,0,5,0,0,0,0"


# A line in write_fills' exact layout, so only int() finds the amount too long.
HUGE_AMOUNT_LINE = ('{"block": 1, "txIndex": 0, "logIndex": 0, "maker": "0xa", "taker": "0xb", '
                    '"makerAssetId": "0", "takerAssetId": "5", "makerAmountFilled": "'
                    + "9" * 5000 + '", "takerAmountFilled": "1", "timestamp": 1}\n')


class TestMalformedTables:
    @pytest.mark.parametrize("header, bad_row, message", [
        (DECOMPOSED_HEADER.rsplit(",", 1)[0], DECOMPOSED_ROW.rsplit(",", 1)[0],
         "line 1: CSV header missing columns: ['noBurnVol']"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace(",5,5,", ",5x,5,"),
         "line 3: buyVol: not an integer: '5x'"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace(",5,5,0,", ",5,5,-5,"),
         "line 3: tx (51953200, 180): negative component"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace(",5,5,", ",1_0,5,"),
         "line 3: buyVol: not an integer: '1_0'"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace(",5,5,", ",5,\u0661\u0660,"),
         "line 3: sellVol: not an integer: '\u0661\u0660'"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace(",5,5,", ", 5 ,5,"),
         "line 3: buyVol: not an integer: ' 5 '"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace("pure_exchange", "bogus"),
         "line 3: 'bogus' is not a valid TxKind"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.rsplit(",", 1)[0],
         "line 3: expected 13 columns, got 12"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW + ",0",
         "line 3: expected 13 columns, got 14"),
        # "\udce9" is written as the lone byte 0xE9, which is not UTF-8
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace("Trump", "Trump\udce9"),
         "line 3: not valid UTF-8 (byte 0xe9)"),
        (DECOMPOSED_HEADER, "-7,-1,-86400,Trump,pure_exchange,5,5,0,5,0,0,0,0",
         "line 3: block, txIndex and timestamp must be non-negative, got -7, -1, -86400"),
        (DECOMPOSED_HEADER, DECOMPOSED_ROW.replace("Trump", "T" * 200_000),
         "line 3: field larger than field limit (131072)"),
    ], ids=["missing-column", "non-integer", "negative-component", "underscore-digits",
            "non-ascii-digits", "padded-integer", "unknown-kind", "short-row", "extra-value", "non-utf8-byte",
            "negative-coordinates", "cell-past-field-limit"])
    def test_decomposed_table_exits_3_naming_line(self, runner, tmp_path, header, bad_row,
                                                  message):
        table = tmp_path / "decomposed.csv"
        table.write_text(f"{header}\n{DECOMPOSED_ROW}\n{bad_row}\n", encoding="utf-8",
                         errors="surrogateescape")
        result = runner.invoke(main, ["metrics", "--input", str(table), "--market", "Trump",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert message in result.output

    def test_fill_row_with_extra_value_exits_3(self, runner, tmp_path, example_fills):
        shard = tmp_path / "shard.csv"
        write_fills(shard, example_fills, "csv")
        lines = shard.read_text().splitlines()
        lines[2] += ",EXTRA"
        shard.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["ingest", "--input", str(shard),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "line 3: expected 10 columns, got 11" in result.output

    def test_fill_csv_cell_past_field_limit_exits_3(self, runner, tmp_path, example_fills):
        shard = tmp_path / "shard.csv"
        long_maker = example_fills[1]._replace(maker="0x" + "a" * 200_000)
        write_fills(shard, [example_fills[0], long_maker, *example_fills[2:]], "csv")
        result = runner.invoke(main, ["ingest", "--input", str(shard),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "line 3: field larger than field limit (131072)" in result.output

    def test_fill_csv_shard_not_utf8_exits_3(self, runner, tmp_path, example_fills):
        shard = tmp_path / "shard.csv"
        write_fills(shard, example_fills, "csv")
        shard.write_bytes(shard.read_bytes().replace(b"0x", b"0\xe9", 3))
        result = runner.invoke(main, ["ingest", "--input", str(shard),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "line 2: not valid UTF-8 (byte 0xe9)" in result.output

    @pytest.mark.parametrize("bad_line, message", [
        (None, "line 2: Exceeds the limit"),
        ("[" * 100_000 + "\n", "line 2: maximum recursion depth exceeded"),
        ('{"block": 1, "maker": "caf\udce9"}\n', "line 2: not valid UTF-8 (byte 0xe9)"),
        (HUGE_AMOUNT_LINE, "line 2: Exceeds the limit"),
    ], ids=["integer-past-digit-limit", "deep-nesting", "non-utf8-byte",
            "amount-past-digit-limit"])
    def test_undecodable_fill_line_exits_3(self, runner, fixture_dir, tmp_path, example_fills,
                                           bad_line, message):
        ledger = tmp_path / "fills.jsonl"
        write_fills(ledger, example_fills)
        lines = ledger.read_text().splitlines(keepends=True)
        lines[1] = bad_line or lines[1].replace(f'"block": {example_fills[1].block}',
                                                '"block": ' + "9" * 5000)
        ledger.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
        result = runner.invoke(main, ["decompose", "--input", str(ledger),
                                      "--markets", str(fixture_dir / "markets.json"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert message in result.output

    def test_decomposed_jsonl_integer_past_digit_limit_exits_3(self, runner, tmp_path):
        record = dict(zip(DECOMPOSED_HEADER.split(","), DECOMPOSED_ROW.split(",")))
        table = tmp_path / "decomposed.jsonl"
        table.write_text(json.dumps(record).replace('"buyVol": "5"', '"buyVol": ' + "9" * 5000)
                         + "\n")
        result = runner.invoke(main, ["metrics", "--input", str(table), "--market", "Trump",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "line 1: Exceeds the limit" in result.output

    def test_decomposed_jsonl_market_not_a_string_exits_3(self, runner, tmp_path):
        record = dict(zip(DECOMPOSED_HEADER.split(","), DECOMPOSED_ROW.split(",")))
        record["market"] = 5
        table = tmp_path / "decomposed.jsonl"
        table.write_text(json.dumps(record) + "\n")
        result = runner.invoke(main, ["metrics", "--input", str(table), "--market", "5",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "line 1: market: not a string: 5" in result.output

    def test_decomposed_jsonl_null_value_exits_3(self, runner, tmp_path):
        record = dict(zip(DECOMPOSED_HEADER.split(","), DECOMPOSED_ROW.split(",")))
        record["noTradeVol"] = None
        table = tmp_path / "decomposed.jsonl"
        table.write_text(json.dumps(record) + "\n")
        result = runner.invoke(main, ["metrics", "--input", str(table), "--market", "Trump",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "line 1: " in result.output


# Every subcommand that reads input, with a {role} placeholder for each input file.
# impact reads no file and writes no --out; TestImpactCommand covers its bad --price.
TEMPLATES = {
    "ingest": ["ingest", "--input", "{fills}", "--block-times", "{block-times}"],
    "decompose": ["decompose", "--input", "{fills}", "--markets", "{markets}"],
    "metrics": ["metrics", "--input", "{decomposed}", "--market", "Trump"],
    "deviation": ["deviation", "--input", "{fills}", "--markets", "{markets}",
                  "--market", "Trump"],
    "disagreement": ["disagreement", "--input", "{decomposed}", "--first-democrat", "Biden",
                     "--second-democrat", "Biden", "--splice-day", "2024-03-01",
                     "--corr-window-days", "30"],
    "lambda": ["lambda", "--input", "{fills}", "--markets", "{markets}", "--market", "Trump"],
    "traders": ["traders", "--input", "{fills}", "--markets", "{markets}",
                "--exclude-addresses", "@{excludes}"],
    "simulate": ["simulate", "--scenario", "{scenario}"],
}
# Malformed option kind -> option -> value, given to every subcommand that takes the option.
BAD_OPTIONS = {
    "bad-date-option": {"--from": "yesterday", "--to": "yesterday"},
    "bad-number-option": {"--page-size": "0", "--grid-step": "0", "--corr-window-days": "1",
                          "--step-days": "0", "--window-hours": "1", "--vol-window-days": "0",
                          "--clamp-eps": "0", "--max-anomalies": "-1", "--max-staleness": "-1"},
}


def not_utf8(valid: bytes) -> bytes:
    first, rest = valid.split(b"\n", 1)
    return first + b"\n\xe9" + rest


# Malformed-input kind -> input role -> the malformed file's bytes, made from the valid file's.
def null_maker(valid: bytes) -> bytes:
    record = json.loads(valid.split(b"\n", 1)[0])
    record["maker"], record["txIndex"] = None, 10**6  # a new transaction, not a duplicate
    return valid + json.dumps(record).encode() + b"\n"


MALFORMED = {
    "bad-fill-line": {"fills": lambda valid: valid + b'{"block": "not a number"}\n'},
    "null-maker": {"fills": null_maker},
    "not-utf8": {role: not_utf8 for role in
                 ("fills", "decomposed", "markets", "scenario", "block-times", "excludes")},
    "bad-decomposed-row": {"decomposed": lambda valid: valid + DECOMPOSED_ROW.replace(
        ",5,5,", ",5x,5,").encode()},
    "bad-market-config": {"markets": lambda valid: b'{"markets": [{"candidate": "X"}]}'},
    "market-entry-not-object": {"markets": lambda valid: b'{"markets": [5]}'},
    "padded-token-id": {"markets": lambda valid: valid.replace(b'"yesTokenId": "',
                                                               b'"yesTokenId": " ', 1)},
    "duplicate-candidate": {role: lambda valid: valid.replace(b'"candidate": "Biden"',
                                                              b'"candidate": "Trump"')
                            for role in ("markets", "scenario")},
    "number-candidate": {role: lambda valid: valid.replace(b'"candidate": "Trump"',
                                                           b'"candidate": 7')
                         for role in ("markets", "scenario")},
    "bad-date": {"block-times": lambda valid: b'{"5": "yesterday"}'},
    "bad-scenario": {"scenario": lambda valid: valid.replace(START.encode(), b"yesterday")},
    "fractional-count": {"scenario": lambda valid: valid.replace(b'"nTransactions": 300',
                                                                 b'"nTransactions": 50.9')},
}


def exit_code_cases():
    for command, template in TEMPLATES.items():
        yield pytest.param(command, None, None, id=f"{command}-valid")
        for kind, roles in MALFORMED.items():
            for role in roles:
                if "{%s}" % role in "".join(template):
                    yield pytest.param(command, kind, role, id=f"{command}-{kind}-{role}")
        options = {opt for param in main.commands[command].params for opt in param.opts}
        for kind, values in BAD_OPTIONS.items():
            for option in values:
                if option in options:
                    yield pytest.param(command, kind, option, id=f"{command}-{kind}{option}")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, markets):
    base = tmp_path_factory.mktemp("valid")
    scenario = base / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 17, "start": START, "end": END, "nTransactions": 300,
        "markets": [{"candidate": m.candidate, "yesTokenId": m.yes_token_id,
                     "noTokenId": m.no_token_id, "launch": "2024-01-04T23:00:00Z"}
                    for m in markets[:2]],
    }, indent=2))
    runner = CliRunner()
    for args in (["simulate", "--scenario", str(scenario), "--out", str(base / "sim")],
                 ["decompose", "--input", str(base / "sim" / "fills.jsonl"), "--markets",
                  str(base / "sim" / "markets.json"), "--out", str(base / "dec")]):
        assert run(runner, args).exit_code == 0
    (base / "block_times.json").write_text('{"5": 1709640000}\n')
    (base / "excludes.txt").write_text("0xab\n0xcd\n")
    return {"fills": base / "sim" / "fills.jsonl", "markets": base / "sim" / "markets.json",
            "decomposed": base / "dec" / "decomposed.csv", "scenario": scenario,
            "block-times": base / "block_times.json", "excludes": base / "excludes.txt"}


def invoke_malformed(runner, tmp_path, valid_inputs, command, kind, role):
    """Run ``command`` on the valid inputs, with ``role`` malformed as ``kind`` says."""
    paths = dict(valid_inputs)
    extra = []
    if kind in BAD_OPTIONS:
        extra = [role, BAD_OPTIONS[kind][role]]
    elif role is not None:
        paths[role] = tmp_path / f"malformed-{paths[role].name}"
        paths[role].write_bytes(MALFORMED[kind][role](valid_inputs[role].read_bytes()))
    args = [arg.format_map({r: str(p) for r, p in paths.items()})
            for arg in TEMPLATES[command]]
    return runner.invoke(main, args + extra + ["--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["decompose", "deviation", "lambda", "traders", "simulate"])
@pytest.mark.parametrize("kind, message", [
    ("duplicate-candidate", "candidate 'Trump' names markets 0 and 1"),
    ("number-candidate", "candidate must be a non-empty string, got 7"),
])
def test_market_candidate_clash_or_type_exits_2(runner, tmp_path, valid_inputs, command, kind,
                                                message):
    role = "scenario" if command == "simulate" else "markets"
    result = invoke_malformed(runner, tmp_path, valid_inputs, command, kind, role)
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("command, option", [("decompose", "--max-anomalies"),
                                             ("deviation", "--max-staleness")])
def test_negative_threshold_exits_2(runner, tmp_path, valid_inputs, command, option):
    result = invoke_malformed(runner, tmp_path, valid_inputs, command, "bad-number-option",
                              option)
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, kind, role", list(exit_code_cases()))
def test_malformed_input_exits_2_3_or_4_never_1(runner, tmp_path, valid_inputs, command, kind,
                                                role):
    result = invoke_malformed(runner, tmp_path, valid_inputs, command, kind, role)
    if kind is None:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code in (2, 3, 4), (result.output, result.exception)


@contextlib.contextmanager
def piped(data: bytes):
    """A ``/dev/fd/N`` path that reads ``data`` from a pipe, as a shell's ``<(...)`` passes
    one. A thread writes the data, so it may exceed the pipe's buffer."""
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)  # a writer the command left blocked gets a broken pipe
        writer.join(timeout=10)
    assert not writer.is_alive()


class TestOneReadPerInput:
    """Each input is opened once per command, and the manifest records the digest of the
    bytes the command read from it, a pipe's included."""

    @pytest.fixture
    def inputs(self, tmp_path, valid_inputs):
        """The valid inputs, plus a JSONL copy of the decomposed table ("decomposed-jsonl")
        and a CSV copy of the ledger without timestamps ("untimed") with its sidecar."""
        paths = {**valid_inputs, "decomposed-jsonl": tmp_path / "decomposed.jsonl",
                 "untimed": tmp_path / "untimed.csv", "untimed-times": tmp_path / "times.json"}
        write_decomposed(paths["decomposed-jsonl"], read_decomposed(valid_inputs["decomposed"]),
                         "jsonl")
        fills = read_fills(valid_inputs["fills"])
        write_table(paths["untimed"], FILL_FIELDS[:-1], [fill[:-1] for fill in fills], "csv")
        paths["untimed-times"].write_text(json.dumps(
            {fill.block: format_utc(fill.timestamp) for fill in fills}))
        return paths

    @staticmethod
    def invoke(runner, template, paths, out):
        args = [arg.format_map({role: str(path) for role, path in paths.items()})
                for arg in template]
        return runner.invoke(main, [*args, "--out", str(out)])

    @pytest.mark.parametrize("template, role", [
        (TEMPLATES["decompose"], "fills"),
        (TEMPLATES["decompose"], "markets"),
        (["metrics", "--input", "{decomposed-jsonl}", "--market", "Trump"], "decomposed-jsonl"),
        (["ingest", "--input", "{untimed}", "--block-times", "{untimed-times}"], "untimed-times"),
        (TEMPLATES["simulate"], "scenario"),
    ], ids=["ledger", "markets", "decomposed-table", "block-times", "scenario"])
    def test_piped_input_is_digested_as_the_bytes_written_into_it(self, runner, tmp_path,
                                                                  inputs, template, role):
        data = inputs[role].read_bytes()
        artifacts = []
        with piped(data) as pipe:
            for name, paths in (("regular", inputs), ("piped", {**inputs, role: pipe})):
                result = self.invoke(runner, template, paths, tmp_path / name)
                assert result.exit_code == 0, result.output
                artifacts.append({path.name: path.read_bytes()
                                  for path in (tmp_path / name).iterdir()})
        regular, via_pipe = (json.loads(run.pop("manifest.json")) for run in artifacts)
        assert regular["inputs"][inputs[role].name] == hashlib.sha256(data).hexdigest()
        via_pipe["inputs"][inputs[role].name] = via_pipe["inputs"].pop(Path(pipe).name)
        assert via_pipe == regular
        assert artifacts[1] == artifacts[0]

    @pytest.mark.parametrize("template, role", [
        (TEMPLATES["decompose"], "fills"),
        (["metrics", "--input", "{decomposed-jsonl}", "--market", "Trump"], "decomposed-jsonl"),
    ], ids=["ledger", "decomposed-table"])
    def test_piped_table_with_a_bad_byte_names_its_line(self, runner, tmp_path, inputs,
                                                        template, role):
        lines = inputs[role].read_bytes().splitlines(keepends=True)
        lines[6] = lines[6].replace(b'"', b'"\xff', 1)
        with piped(b"".join(lines)) as pipe:
            result = self.invoke(runner, template, {**inputs, role: pipe}, tmp_path / "out")
        assert result.exit_code == 3, result.output
        assert "error: line 7: not valid UTF-8 (byte 0xff)" in result.output

    def test_ledger_rewritten_after_its_read_keeps_the_digest_of_the_bytes_read(
            self, runner, tmp_path, monkeypatch, inputs):
        ledger = tmp_path / "fills.jsonl"
        read = inputs["fills"].read_bytes()
        ledger.write_bytes(read)
        decompose_ledger = cli.decompose_ledger

        def rewrite_then_decompose(*args):  # another process drops the ledger's first line
            ledger.write_bytes(read.split(b"\n", 1)[1])
            return decompose_ledger(*args)

        monkeypatch.setattr(cli, "decompose_ledger", rewrite_then_decompose)
        result = self.invoke(runner, TEMPLATES["decompose"], {**inputs, "fills": ledger},
                             tmp_path / "out")
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"]["fills.jsonl"] == hashlib.sha256(read).hexdigest()

    @pytest.mark.parametrize("command", TEMPLATES)
    def test_each_input_path_is_opened_once(self, runner, tmp_path, monkeypatch, valid_inputs,
                                            command):
        opened = collections.Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened[file if isinstance(file, int) else os.fspath(file)] += 1
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", counting_open)
            patch.setattr(io, "open", counting_open)  # what pathlib opens through
            result = self.invoke(runner, TEMPLATES[command], valid_inputs, tmp_path / "out")
        assert result.exit_code == 0, result.output
        paths = [str(path) for role, path in valid_inputs.items()
                 if "{%s}" % role in "".join(TEMPLATES[command])]
        assert {path: opened[path] for path in paths} == dict.fromkeys(paths, 1)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_command_runs_with_the_gc_off_and_restores_its_state(runner, tmp_path, monkeypatch,
                                                            valid_inputs, enabled):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"block": "not a number"}\n')
    states = []
    read = cli.read_fills
    monkeypatch.setattr(cli, "read_fills",
                        lambda *args: states.append(gc.isenabled()) or read(*args))
    codes, prior = [], gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # A return, _fail's SystemExit, then any other exception.
        for ledger, failing in ((valid_inputs["fills"], False), (bad, False),
                                (valid_inputs["fills"], True)):
            if failing:
                monkeypatch.setattr(cli, "group_transactions", lambda fills: 1 / 0)
            gc.unfreeze()  # earlier in-process commands froze what they left
            result = runner.invoke(main, ["decompose", "--input", str(ledger), "--markets",
                                          str(valid_inputs["markets"]),
                                          "--out", str(tmp_path / "out")])
            codes.append(result.exit_code)
            states.append(gc.isenabled())
            assert gc.get_freeze_count() > 0
    finally:
        (gc.enable if prior else gc.disable)()
        gc.unfreeze()
    assert codes == [0, 3, 1]
    assert type(result.exception) is ZeroDivisionError
    assert states == [False, enabled] * 3


# SHA-256 of the fixture's decomposed.csv, as tests/test_golden.py pins it.
FIXTURE_DECOMPOSED_SHA256 = "3647853e572892bcdb7c5b549c1999722acd57770e6143603c25bb454e2d1757"


def test_readme_pipeline_runs_as_modules(tmp_path):
    """The README pipeline through ``python -m``, the way the benchmark runs every command."""
    src = str(Path(fillflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for args in (["fillflow.fixtures", "work"],
                 ["fillflow.cli", "decompose", "--input", "work/fills.jsonl",
                  "--markets", "work/markets.json", "--out", "work/dec"],
                 ["fillflow.cli", "metrics", "--input", "work/dec/decomposed.csv",
                  "--market", "Trump", "--partition", "month", "--out", "work/met"]):
        done = subprocess.run([sys.executable, "-m", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (args, done.stderr)
    digest = hashlib.sha256((tmp_path / "work/dec/decomposed.csv").read_bytes()).hexdigest()
    assert digest == FIXTURE_DECOMPOSED_SHA256
    assert (tmp_path / "work/met/metrics.csv").read_text().startswith("interval,")


HELP_TEXT = Path(__file__).with_name("cli_help.txt")


def recorded_help() -> dict[str, str]:
    """The recorded ``--help`` outputs at 80 columns, by the command line that printed each."""
    parts = re.split(r"^(\$ fillflow .*--help)\n", HELP_TEXT.read_text(encoding="utf-8"),
                     flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("command", [None, "decompose", "deviation", "disagreement", "impact",
                                     "ingest", "lambda", "metrics", "simulate", "traders"])
def test_help_text_is_the_recorded_text(runner, command):
    args = [command, "--help"] if command else ["--help"]
    result = runner.invoke(main, args, prog_name="fillflow", terminal_width=80)
    assert result.exit_code == 0, result.output
    recorded = recorded_help()
    assert len(recorded) == 1 + len(main.commands) == 10
    assert result.output == recorded["$ fillflow " + " ".join(args)]
