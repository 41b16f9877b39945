import dataclasses
import gc
import hashlib
import json
from itertools import accumulate
from random import Random

import pytest

from fillflow.decompose import TxKind, decompose_ledger
from fillflow.errors import ConfigError
from fillflow.events import group_transactions, write_fills
from fillflow.fixtures import market_specs
from fillflow.synthetic import (
    DeviationInjection,
    SyntheticScenario,
    WhaleEvent,
    _Generator,
    generate_synthetic_ledger,
    load_scenario,
)
from fillflow.units import DAY, parse_utc

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

    def test_generator_keys_left_out_take_the_scenario_defaults(self, tmp_path, markets):
        omitted = scenario_doc(markets)
        del omitted["nTransactions"], omitted["arbitrageur"]
        stated = omitted | {"nTransactions": 1000, "nTraders": 40, "directionalShare": 0.5,
                            "marketMakerShare": 0.3, "arbitrageur": False, "mixedSpread": 2000}
        ledgers = []
        for name, doc in (("omitted", omitted), ("stated", stated)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            ledgers.append(_canonical(generate_synthetic_ledger(load_scenario(path))))
        assert ledgers[0] == ledgers[1]

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

    @pytest.mark.parametrize("events", [
        {"whale_schedule": [WhaleEvent(START, "Nobody", "yes", 10)]},
        {"deviation_injections": [DeviationInjection(START, "Nobody", 1000)]},
    ], ids=["whale", "injection"])
    def test_unknown_event_market_rejected_on_construction(self, markets, events):
        with pytest.raises(ConfigError, match="names unknown market 'Nobody'"):
            scenario(markets, **events)

    @pytest.mark.parametrize("key", ["whaleSchedule", "deviationInjections"])
    def test_event_market_is_not_coerced_to_a_string(self, tmp_path, markets, key):
        doc = scenario_doc(markets)
        doc["markets"][0]["candidate"] = "7"
        for event in doc["whaleSchedule"] + doc["deviationInjections"]:
            event["market"] = "7"
        doc[key][0]["market"] = 7
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="names unknown market 7"):
            load_scenario(path)


class TestDrawsAsRandom:
    """Each draw helper takes the bits that ``random.Random``'s own method takes."""

    @staticmethod
    def pair(markets, seed):
        generator = _Generator(scenario(markets, seed=seed))
        reference = Random()
        reference.setstate(generator.rng.getstate())
        return generator, reference

    def test_below_draws_as_randrange(self, markets):
        generator, reference = self.pair(markets, 31)
        for n in [*range(1, 300), 2**32 - 1, 2**32, 2**32 + 1, 3**90]:
            assert generator._below(n) == reference.randrange(n)
        assert generator.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", [0, -3])
    def test_below_an_empty_range_raises(self, markets, n):
        generator, _ = self.pair(markets, 31)
        with pytest.raises(ValueError, match=rf"no int to draw in \[0, {n}\)"):
            generator._below(n)

    @pytest.mark.parametrize("weights", [[0.6, 0.4], [0, 3, 0, 1], [1e-300, 2.5, 0], [7]])
    def test_weighted_draws_as_choices(self, markets, weights):
        generator, reference = self.pair(markets, 32)
        population = range(len(weights))
        cum_weights = list(accumulate(weights))
        for _ in range(500):
            assert (generator._weighted(population, cum_weights)
                    == reference.choices(population, cum_weights=cum_weights)[0])
        assert generator.rng.getstate() == reference.getstate()

    def test_split_quantity_cuts_as_sample(self, markets):
        generator, reference = self.pair(markets, 33)
        for total in range(1, 60):
            for parts in (1, 2, 3):
                for _ in range(10):
                    k = min(parts, total) - 1
                    bounds = [0, *sorted(reference.sample(range(1, total), k)), total]
                    assert generator._split_quantity(total, parts) == [
                        b - a for a, b in zip(bounds, bounds[1:])]
        assert generator.rng.getstate() == reference.getstate()

    def test_generation_pauses_the_collector_and_restores_it(self, markets, monkeypatch):
        enabled_while_running = []
        run = _Generator.run
        monkeypatch.setattr(_Generator, "run", lambda generator: (
            enabled_while_running.append(gc.isenabled()), run(generator))[1])
        assert gc.isenabled()
        generate_synthetic_ledger(scenario(markets, n_transactions=5))
        assert gc.isenabled()
        gc.disable()
        try:
            generate_synthetic_ledger(scenario(markets, n_transactions=5))
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert enabled_while_running == [False, False]


MARKETS = market_specs()

# One small scenario per generator knob. Each one's draws and output are pinned below.
KNOB_SCENARIOS = {
    "default": dict(seed=1),
    # Weights with zeros, and a window that starts and ends mid-day, so drawn hours
    # outside the window are drawn again.
    "hourly_weights": dict(
        seed=2, start=parse_utc("2024-02-01T05:17:00Z"), end=parse_utc("2024-02-09T13:00:00Z"),
        hourly_weights=[0, 0, 0, 0, 1, 3, 0, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 2.5]),
    # A few-dollar whale mints a handful of shares, so its lots are cut from a pool of at
    # most 21 cuts.
    "whales": dict(seed=3, whale_schedule=[
        WhaleEvent(START + 3 * DAY, "Trump", "yes", 5),
        WhaleEvent(START + 7 * DAY + 1, "Biden", "no", 8),
        WhaleEvent(START + 20 * DAY, "Trump", "no", 250_000)]),
    "deviation_injections": dict(seed=4, arbitrageur=True, deviation_injections=[
        DeviationInjection(START + 2 * DAY, "Trump", 45_000),
        DeviationInjection(START + 9 * DAY, "Biden", -30_000),
        DeviationInjection(START + 30 * DAY, "Trump", -200_000)]),
    "kind_weights_with_zero": dict(seed=5, kind_weights={
        "pure_exchange": 2, "share_minting": 0, "share_burning": 1.5, "mixed_mint": 1,
        "mixed_burn": 1}),
    "mixed_spread_zero": dict(seed=6, mixed_spread_micro=0,
                              kind_weights={"mixed_mint": 1, "mixed_burn": 1}),
    # Exchanges of up to three lots: seed 13 draws two cuts from a pool of at most 21 once,
    # and draws a repeated cut again once.
    "exchange_only": dict(seed=13, kind_weights={"pure_exchange": 1}),
    "arbitrageur_three_markets": dict(seed=7, markets=MARKETS, arbitrageur=True,
                                      n_traders=12, directional_share=0.8,
                                      market_maker_share=0.1),
    "one_market_no_makers": dict(seed=8, markets=MARKETS[2:], n_traders=5,
                                 market_maker_share=0.0, directional_share=1.0),
}

# SHA-256 of ``_canonical(ledger)`` per knob scenario.
KNOB_DIGESTS = {
    "arbitrageur_three_markets":
        "fa1397f914b74ae6b0521e9b13e7821ca0cc0b08e4d0a9094952be3c7e778a70",
    "default":
        "9dba39425f4596e0922bb2478fd39e1801e42b8f76429142567eae5c0f62e2fd",
    "deviation_injections":
        "5067045c9350fbb4957df3e9d6d7b671d873803eaad0feb6e70e338166ef83c8",
    "exchange_only":
        "3c958aab7f9226f04471112fc37dd95cf55939b02a3ef625a6546a4a8424533a",
    "hourly_weights":
        "7f9e84da37df16fc9f41c7fe702e8c8b11de31d71eecc84b11b3cc848eeb5320",
    "kind_weights_with_zero":
        "2aae586f69671b5b99a01d19e1ed64cbbfa127effdcdb862eb32aa14bc91744c",
    "mixed_spread_zero":
        "16cfdcf0e4bf1bd176100bbad4a26b02ea1c51be76610f8053cb33ba7b847021",
    "one_market_no_makers":
        "c22e1acb7fe20d41f51bcf21aa25c6f52d90c7536579f11f6bed3f1a6d7f14b8",
    "whales":
        "b05425b1acb0e28a08fc7d51c4681d59569344e0c3c24fea1aafd0992a85c3fc",
}


def _canonical(ledger) -> bytes:
    """The generator's whole output as bytes: every fill and truth row, and the trader and
    participant maps in insertion order, each set sorted."""
    return json.dumps({
        "fills": ledger.fills,
        "truth": [[*row[:4], row.kind.value, row.components] for row in ledger.truth],
        "trader_markets": [[party, sorted(labels)]
                           for party, labels in ledger.trader_markets.items()],
        "hourly_participants": [[key, sorted(parties)]
                                for key, parties in ledger.hourly_participants.items()],
        "arbitrage_events": [dataclasses.astuple(event) for event in ledger.arbitrage_events],
    }).encode()


@pytest.mark.parametrize("name", sorted(KNOB_SCENARIOS))
def test_knob_scenario_output_is_pinned(markets, name):
    knobs = dict(markets=markets[:2], start=START, end=END, n_transactions=300)
    ledger = generate_synthetic_ledger(SyntheticScenario(**knobs | KNOB_SCENARIOS[name]))
    assert hashlib.sha256(_canonical(ledger)).hexdigest() == KNOB_DIGESTS[name]
