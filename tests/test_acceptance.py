"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold, so ``pytest -v -s
tests/test_acceptance.py`` doubles as the acceptance report. Headline
numbers from the full production ledger (monthly volume tables, published
participation percentages, the real-data impact regression) are not
reproducible from synthetic desk-scale data and are treated as reference
values only; correctness rests on exact fixtures, property fuzzing, and
estimator recovery below.
"""

import itertools
import json
import random
import statistics
import time

import pytest
from click.testing import CliRunner

from fillflow.cli import main as cli_main
from fillflow.decompose import TxKind, decompose_ledger
from fillflow.events import group_transactions
from fillflow.fixtures import expected_decompositions, fixture_fills, market_specs
from fillflow.mechanics import NO, CategoricalMarket, Portfolio, convert_positions, payoff_at_resolution
from fillflow.metrics import aggregate_components, merge_totals, side_measures
from fillflow.microstructure import inverse_log_odds, kyle_lambda, log_odds, price_impact_delta_p
from fillflow.prices import InflowSeries, rolling_inflow_correlation
from fillflow.synthetic import SyntheticScenario, generate_synthetic_ledger
from fillflow.traders import collect_trader_activity, participation_sets
from fillflow.units import DAY, parse_utc

START = parse_utc("2024-01-05T00:00:00Z")
END = parse_utc("2024-11-01T00:00:00Z")


def report(number: int, name: str):
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def fuzz_ledger(seed: int, n: int):
    scenario = SyntheticScenario(
        seed=seed, markets=market_specs()[:2], start=START, end=END, n_transactions=n)
    return generate_synthetic_ledger(scenario)


def test_01_fixture_exactness():
    started = time.perf_counter()
    rows, anomalies = decompose_ledger(group_transactions(fixture_fills()), market_specs())
    assert not anomalies
    assert len(rows) == 4
    expected = expected_decompositions()
    for row in rows:
        market, kind, components = expected[(row.block, row.tx_index)]
        assert row.market == market
        assert row.kind is kind
        assert row.components == components  # zero tolerance, exact integers
    c = {(r.block, r.tx_index): r.components for r in rows}
    assert c[(51953200, 180)].no_trade == 123_900_000
    assert c[(54432034, 44)].yes_mint == 2_040_000_000
    assert c[(54432034, 44)].no_mint == 3_960_000_000
    assert c[(55100000, 12)].yes_burn == 82_476_000
    assert c[(55100000, 12)].no_burn == 123_714_000
    assert c[(56200000, 7)].yes_trade == 84_000_000
    assert c[(56200000, 7)].yes_mint == 15_999_999
    assert c[(56200000, 7)].no_mint == 22_095_238
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fixture decomposition took {elapsed:.2f}s"
    report(1, "worked-example fixture exact to the micro-unit")


def test_02_conservation_fuzz_100k():
    started = time.perf_counter()
    ledger = fuzz_ledger(seed=2024, n=100_000)
    rows, anomalies = decompose_ledger(group_transactions(ledger.fills), ledger.markets)
    assert not anomalies
    assert len(rows) == 100_000
    assert {r.kind for r in rows} == set(TxKind)
    violations = 0
    for row in rows:
        c = row.components
        mint = c.yes_mint + c.no_mint
        burn = c.yes_burn + c.no_burn
        if c.buy_vol - c.sell_vol != mint - burn:
            violations += 1
        if min(c.yes_trade, c.no_trade, c.yes_mint, c.no_mint, c.yes_burn, c.no_burn) < 0:
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"conservation fuzz took {elapsed:.1f}s"
    report(2, f"conservation + non-negativity on 10^5 transactions ({elapsed:.1f}s)")


def test_03_oracle_equivalence_20_seeds():
    for seed in range(20):
        ledger = fuzz_ledger(seed=seed, n=10_000)
        rows, anomalies = decompose_ledger(group_transactions(ledger.fills), ledger.markets)
        assert not anomalies
        assert len(rows) == len(ledger.truth)
        assert rows == ledger.truth  # 100% of transactions, exact components
    report(3, "decomposition matches generator ground truth on 20x10^4 transactions")


def test_04_measure_identities_and_interval_algebra():
    ledger = fuzz_ledger(seed=7, n=20_000)
    hourly = aggregate_components(ledger.truth, "hour", market="Trump", dense=True)
    assert len(hourly) > 100
    for totals in hourly:
        for side in ("yes", "no"):
            m = side_measures(totals.side(side))
            assert m.v_g == m.v_e + abs(m.f)  # exact integers

    rng = random.Random(404)
    for _ in range(1000):
        picks = [rng.random() < 0.5 for _ in hourly]
        left = [t for t, p in zip(hourly, picks) if p]
        right = [t for t, p in zip(hourly, picks) if not p]
        if not left or not right:
            continue
        whole = merge_totals(hourly)
        for side in ("yes", "no"):
            m_all = side_measures(whole.side(side))
            m_left = side_measures(merge_totals(left).side(side))
            m_right = side_measures(merge_totals(right).side(side))
            assert m_all.f == m_left.f + m_right.f  # additive, exact
            assert m_all.v_e >= m_left.v_e + m_right.v_e  # superadditive
            assert m_all.v_g <= m_left.v_g + m_right.v_g  # subadditive
    report(4, "V^G = V^E + |F| and interval algebra on 10^3 random partitions")


def test_05_lambda_recovery():
    started = time.perf_counter()

    # noiseless: exact recovery through the full bar pipeline
    rng = random.Random(1)
    from fillflow.microstructure import HourBar, rolling_kyle_lambda
    from fractions import Fraction
    theta = 0.0
    bars = []
    for i in range(24 * 33):
        q = rng.gauss(0, 0.3) if i else 0.0
        theta += 0.2 * q
        bars.append(HourBar(start=START + i * 3600, vwap=Fraction(inverse_log_odds(theta)),
                            flow_micro=round(q * 10**12), trade_count=1,
                            carried_forward=False))
    for estimate in rolling_kyle_lambda(bars, 720, 1):
        assert estimate.value == pytest.approx(0.2, rel=1e-10)

    # noisy recovery: within 3 estimated standard errors in >= 99% of seeds
    for true_lambda in (0.01, 0.1, 0.5):
        misses = 0
        for seed in range(500):
            r = random.Random(90_000 + seed)
            flows = [r.gauss(0, 1) for _ in range(720)]
            d_theta = [true_lambda * q + r.gauss(0, 0.01) for q in flows]
            lam, se = kyle_lambda(d_theta, flows)
            if abs(lam - true_lambda) > 3 * se:
                misses += 1
        assert misses <= 5, f"lambda={true_lambda}: {misses}/500 outside 3 SE"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"lambda recovery took {elapsed:.1f}s"
    report(5, f"price-impact recovery across 3x500 seeds ({elapsed:.1f}s)")


def test_06_taylor_bound_and_worked_values():
    # worked conversions, exact in double precision
    assert price_impact_delta_p(0.518, 0.5, 1.0) == 0.1295
    assert price_impact_delta_p(0.01, 0.5, 1.0) == 0.0025

    steps = [i / 1000 for i in range(-200, 201, 5) if i]
    for p_grid in range(20, 81, 2):
        p = p_grid / 100
        theta = log_odds(p)
        for d_theta in steps:
            exact = inverse_log_odds(theta + d_theta) - p
            linear = p * (1 - p) * d_theta
            assert abs(exact - linear) <= 2 * d_theta * d_theta
    report(6, "Taylor remainder bound on the price grid + worked impact values")


def test_07_conversion_equivalence_exhaustive():
    # the three-candidate worked example
    abc = CategoricalMarket(("A", "B", "C"))
    first = Portfolio({(0, NO): 1, (1, NO): 1})
    second = Portfolio({(2, "yes"): 1}, cash=1)
    assert [payoff_at_resolution(first, w, abc) for w in range(3)] == [1, 1, 2]
    assert [payoff_at_resolution(second, w, abc) for w in range(3)] == [1, 1, 2]
    assert convert_positions(first, {0, 1}, 1, abc) == second

    checked = 0
    for n in range(2, 7):
        market = CategoricalMarket(tuple(f"O{i}" for i in range(n)))
        for m in range(1, n):
            for subset in itertools.combinations(range(n), m):
                for q in (1, 7, 1000):
                    start = Portfolio({(i, NO): q for i in subset})
                    converted = convert_positions(start, subset, q, market)
                    assert converted.cash == (m - 1) * q
                    for winner in range(n):
                        assert payoff_at_resolution(start, winner, market) == \
                            payoff_at_resolution(converted, winner, market)
                    checked += 1
    # every proper non-empty outcome subset for each N, three quantities each
    assert checked == sum(2**n - 2 for n in range(2, 7)) * 3
    report(7, f"conversion payoff equivalence, {checked} (N, M-subset, Q) cases")


def test_08_correlation_properties():
    day0 = parse_utc("2024-02-01")
    rng = random.Random(88)

    def series(values):
        return InflowSeries(days=tuple(day0 + i * DAY for i in range(len(values))),
                            values=tuple(values))

    base = [rng.randrange(-10**9, 10**9) for _ in range(400)]
    scaled = series([3 * v + 10**6 for v in base])  # positive affine map
    for _, value in rolling_inflow_correlation(series(base), scaled, 90, 1):
        assert value == pytest.approx(1.0, abs=1e-9)
    negated = series([-v for v in base])
    for _, value in rolling_inflow_correlation(series(base), negated, 90, 1):
        assert value == pytest.approx(-1.0, abs=1e-9)

    flat = series([42] * 200)
    noisy = series([rng.randrange(10**6) for _ in range(200)])
    assert all(v is None for _, v in rolling_inflow_correlation(flat, noisy, 90, 1))

    a = series([rng.randrange(-10**8, 10**8) for _ in range(300)])
    b = series([rng.randrange(-10**8, 10**8) for _ in range(300)])
    ours = rolling_inflow_correlation(a, b)  # 90-day window, 1-day step defaults
    assert len(ours) == 300 - 90 + 1
    for i, (day, value) in enumerate(ours):
        xs = [v / 10**6 for v in a.values[i:i + 90]]
        ys = [v / 10**6 for v in b.values[i:i + 90]]
        independent = statistics.correlation(xs, ys)
        assert value == pytest.approx(independent, abs=1e-9)
        assert day == a.days[i + 89]
    report(8, "rolling correlation: affine limits, null windows, independent check")


def test_09_participation_partition():
    for seed in (1, 2, 3):
        ledger = fuzz_ledger(seed=seed, n=4_000)
        transactions = group_transactions(ledger.fills)
        cells, marginals, candidate_cells = participation_sets(collect_trader_activity(
            transactions, ledger.markets, exclude=[ledger.exchange_address]))
        total = len(ledger.trader_markets)
        assert sum(c.count for c in cells) == total  # exact partition
        assert sum(c.share for c in cells) == pytest.approx(100.0, abs=0.1)
        assert sum(c.count for c in candidate_cells) == total
        for label, pct in marginals.items():
            count_from_cells = sum(c.count for c in cells if label in c.markets)
            assert pct == pytest.approx(100.0 * count_from_cells / total, abs=1e-9)
        # generator membership oracle: exact cell counts
        expected: dict[frozenset, int] = {}
        for labels in ledger.trader_markets.values():
            key = frozenset(labels)
            expected[key] = expected.get(key, 0) + 1
        assert {c.markets: c.count for c in cells} == expected
    report(9, "participation cells partition the trader universe exactly")


def test_10_pipeline_determinism(tmp_path):
    runner = CliRunner()
    scenario = {
        "seed": 99,
        "markets": [{
            "candidate": m.candidate, "yesTokenId": m.yes_token_id,
            "noTokenId": m.no_token_id, "launch": "2024-01-04T23:00:00Z",
        } for m in market_specs()[:2]],
        "start": "2024-01-10T00:00:00Z",
        "end": "2024-04-10T00:00:00Z",
        "nTransactions": 4000,
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))

    snapshots = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        steps = [
            ["simulate", "--scenario", str(scenario_path), "--out", str(base / "sim")],
            ["decompose", "--input", str(base / "sim" / "fills.jsonl"),
             "--markets", str(base / "sim" / "markets.json"), "--out", str(base / "dec")],
            ["metrics", "--input", str(base / "dec" / "decomposed.csv"),
             "--market", "Trump", "--partition", "day", "--out", str(base / "met")],
            ["lambda", "--input", str(base / "sim" / "fills.jsonl"),
             "--markets", str(base / "sim" / "markets.json"), "--market", "Trump",
             "--side", "yes", "--out", str(base / "lam")],
        ]
        for step in steps:
            result = runner.invoke(cli_main, step, catch_exceptions=False)
            assert result.exit_code == 0, result.output
        snapshot = {}
        for path in sorted(base.rglob("*")):
            if path.is_file():
                snapshot[str(path.relative_to(base))] = path.read_bytes()
        snapshots.append(snapshot)
    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], f"{name} differs between runs"
    report(10, "simulate->decompose->metrics->lambda byte-identical across runs")
