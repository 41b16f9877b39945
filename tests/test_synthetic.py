import json

import pytest

from fillflow.decompose import TxKind, decompose_ledger
from fillflow.errors import ConfigError
from fillflow.events import group_transactions, write_fills
from fillflow.synthetic import (
    DeviationInjection,
    SyntheticScenario,
    WhaleEvent,
    generate_synthetic_ledger,
    load_scenario,
)
from fillflow.units import parse_utc

START = parse_utc("2024-02-01T00:00:00Z")
END = parse_utc("2024-04-01T00:00:00Z")


def scenario(markets, **kwargs):
    defaults = dict(seed=1, markets=markets[:2], start=START, end=END, n_transactions=400)
    defaults.update(kwargs)
    return SyntheticScenario(**defaults)


class TestDeterminism:
    def test_same_seed_same_ledger(self, markets):
        a = generate_synthetic_ledger(scenario(markets, seed=42))
        b = generate_synthetic_ledger(scenario(markets, seed=42))
        assert a.fills == b.fills
        assert a.truth == b.truth

    def test_same_seed_byte_identical_files(self, tmp_path, markets):
        paths = []
        for name in ("one", "two"):
            ledger = generate_synthetic_ledger(scenario(markets, seed=9))
            path = tmp_path / f"{name}.jsonl"
            write_fills(path, ledger.fills)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_differs(self, markets):
        a = generate_synthetic_ledger(scenario(markets, seed=1))
        b = generate_synthetic_ledger(scenario(markets, seed=2))
        assert a.fills != b.fills


class TestCoverage:
    def test_all_kinds_emitted(self, small_ledger):
        kinds = {row.kind for row in small_ledger.truth}
        assert kinds == set(TxKind)

    def test_multi_fill_partial_matches_present(self, small_ledger):
        txs = group_transactions(small_ledger.fills)
        exchange_sizes = {
            len(tx.fills)
            for tx, row in zip(txs, small_ledger.truth)
            if row.kind is TxKind.PURE_EXCHANGE
        }
        assert any(size > 2 for size in exchange_sizes)

    def test_only_minting_scenario(self, markets):
        ledger = generate_synthetic_ledger(
            scenario(markets, kind_weights={"share_minting": 1.0}))
        assert {row.kind for row in ledger.truth} == {TxKind.SHARE_MINTING}

    def test_fills_schema_conformant(self, small_ledger):
        txs = group_transactions(small_ledger.fills)
        assert len(txs) == small_ledger.transaction_count()
        for tx in txs:
            assert tx.timestamp >= START


class TestGroundTruth:
    def test_truth_not_derived_from_decomposition_yet_matches(self, markets):
        ledger = generate_synthetic_ledger(scenario(markets, seed=77))
        rows, anomalies = decompose_ledger(group_transactions(ledger.fills),
                                           ledger.markets)
        assert not anomalies
        assert rows == ledger.truth

    def test_trader_membership_recorded(self, small_ledger):
        assert small_ledger.trader_markets
        labels = {label for labels in small_ledger.trader_markets.values()
                  for label in labels}
        assert labels <= {f"{m.candidate} {side}" for m in small_ledger.markets
                          for side in ("YES", "NO")}
        assert small_ledger.exchange_address not in small_ledger.trader_markets

    def test_hourly_participants_recorded(self, small_ledger):
        assert small_ledger.hourly_participants
        for (day, hour), addresses in small_ledger.hourly_participants.items():
            assert day % 86400 == 0 and 0 <= hour < 24
            assert addresses


class TestScriptedBehaviour:
    def test_whale_event_injects_capital(self, markets):
        whale = WhaleEvent(timestamp=START + 86400, market="Trump", side="yes",
                           usd=1_000_000)
        ledger = generate_synthetic_ledger(
            scenario(markets, whale_schedule=[whale], n_transactions=50))
        day = [row for row in ledger.truth
               if abs(row.timestamp - whale.timestamp) < 10]
        assert day and day[0].kind is TxKind.SHARE_MINTING
        minted = day[0].components.yes_mint + day[0].components.no_mint
        assert minted >= 0.99 * whale.usd * 10**6

    def test_arbitrage_shrinks_deviation(self, markets):
        ledger = generate_synthetic_ledger(scenario(
            markets, seed=5, arbitrageur=True,
            kind_weights={"pure_exchange": 1.0},
            deviation_injections=[DeviationInjection(START + 5 * 86400, "Trump", 50_000)],
        ))
        events = ledger.arbitrage_events
        assert events
        assert all(e.action == "split_and_sell" for e in events)
        for e in events:
            assert abs(e.delta_after) < abs(e.delta_before)
        assert abs(events[-1].delta_after) < 10_000

    def test_negative_deviation_uses_buy_and_merge(self, markets):
        ledger = generate_synthetic_ledger(scenario(
            markets, seed=5, arbitrageur=True,
            kind_weights={"pure_exchange": 1.0},
            deviation_injections=[DeviationInjection(START + 5 * 86400, "Trump", -50_000)],
        ))
        assert ledger.arbitrage_events
        assert all(e.action == "buy_and_merge" for e in ledger.arbitrage_events)

    def test_diurnal_weights_respected(self, markets):
        weights = [0.0] * 24
        weights[14] = 1.0
        ledger = generate_synthetic_ledger(scenario(markets, hourly_weights=weights))
        hours = {(row.timestamp % 86400) // 3600 for row in ledger.truth}
        assert hours == {14}


def scenario_doc(markets):
    return {
        "seed": 3,
        "markets": [{
            "candidate": m.candidate, "yesTokenId": m.yes_token_id,
            "noTokenId": m.no_token_id, "launch": "2024-01-04T23:00:00Z",
        } for m in markets[:2]],
        "start": "2024-02-01T00:00:00Z",
        "end": "2024-04-01T00:00:00Z",
        "nTransactions": 25,
        "arbitrageur": True,
        "whaleSchedule": [
            {"time": "2024-03-01T12:00:00Z", "market": "Trump", "side": "yes",
             "usd": 50000}],
        "deviationInjections": [
            {"time": "2024-02-20T00:00:00Z", "market": "Trump", "delta": 0.05}],
    }


class TestScenarioFile:
    def test_round_trip(self, tmp_path, markets):
        doc = scenario_doc(markets)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        loaded = load_scenario(path)
        assert loaded.seed == 3
        assert loaded.n_transactions == 25
        assert loaded.deviation_injections[0].delta_micro == 50_000
        assert load_scenario(path, seed=11).seed == 11
        generate_synthetic_ledger(loaded)  # must be runnable

    @pytest.mark.parametrize("where, value, message", [
        (["arbitrageur"], "false", "'arbitrageur' must be a JSON boolean, got 'false'"),
        (["arbitrageur"], 1, "'arbitrageur' must be a JSON boolean, got 1"),
        (["seed"], "3", "'seed' must be a JSON integer, got '3'"),
        (["nTransactions"], 50.9, "'nTransactions' must be a JSON integer, got 50.9"),
        (["nTraders"], True, "'nTraders' must be a JSON integer, got True"),
        (["mixedSpread"], 2000.0, "'mixedSpread' must be a JSON integer, got 2000.0"),
        (["whaleSchedule", 0, "usd"], "50000", "'usd' must be a JSON integer, got '50000'"),
        (["directionalShare"], True, "'directionalShare' must be a JSON number, got True"),
        (["marketMakerShare"], "0.3", "'marketMakerShare' must be a JSON number, got '0.3'"),
        (["deviationInjections", 0, "delta"], False, "'delta' must be a JSON number, got False"),
        (["deviationInjections", 0, "delta"], float("inf"),
         "cannot convert float infinity to integer"),
    ], ids=["string-arbitrageur", "number-arbitrageur", "string-seed", "fractional-count",
            "bool-count", "float-spread", "string-usd", "bool-share", "string-share",
            "bool-delta", "infinite-delta"])
    def test_wrong_json_type_rejected_naming_the_key(self, tmp_path, markets, where, value,
                                                     message):
        doc = scenario_doc(markets)
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_scenario(path)
        assert message in str(err.value)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_invalid_weights_rejected(self, markets):
        with pytest.raises(ConfigError, match="unknown transaction kinds"):
            scenario(markets, kind_weights={"bogus": 1.0})

    def test_invalid_whale_side_rejected(self, markets):
        with pytest.raises(ConfigError, match="side"):
            scenario(markets, whale_schedule=[
                WhaleEvent(START, "Trump", "maybe", 10)])
