import itertools
import random

import pytest

from fillflow.errors import ConfigError, InsufficientBalanceError
from fillflow.mechanics import (
    NO,
    YES,
    CategoricalMarket,
    Portfolio,
    convert_positions,
    merge_positions,
    payoff_at_resolution,
    split_position,
)

ABC = CategoricalMarket(("A", "B", "C"))


class TestPayoff:
    def test_two_no_shares_worth_two_when_third_wins(self):
        portfolio = Portfolio({(0, NO): 1, (1, NO): 1})
        assert payoff_at_resolution(portfolio, 2, ABC) == 2

    def test_yes_plus_cash_worth_one_when_other_wins(self):
        portfolio = Portfolio({(2, YES): 1}, cash=1)
        assert payoff_at_resolution(portfolio, 0, ABC) == 1

    def test_equivalent_portfolios_match_for_every_winner(self):
        first = Portfolio({(0, NO): 1, (1, NO): 1})
        second = Portfolio({(2, YES): 1}, cash=1)
        payoffs = [
            (payoff_at_resolution(first, w, ABC), payoff_at_resolution(second, w, ABC))
            for w in range(3)
        ]
        assert payoffs == [(1, 1), (1, 1), (2, 2)]

    def test_empty_portfolio(self):
        assert payoff_at_resolution(Portfolio(), 1, ABC) == 0

    def test_winner_out_of_range(self):
        with pytest.raises(ConfigError):
            payoff_at_resolution(Portfolio(), 3, ABC)


class TestConvert:
    def test_two_nos_become_yes_plus_cash(self):
        portfolio = Portfolio({(0, NO): 1, (1, NO): 1})
        converted = convert_positions(portfolio, {0, 1}, 1, ABC)
        assert converted.quantity(2, YES) == 1
        assert converted.cash == 1
        assert converted.quantity(0, NO) == 0

    def test_single_no_gives_all_other_yes_no_cash(self):
        portfolio = Portfolio({(0, NO): 1})
        converted = convert_positions(portfolio, {0}, 1, ABC)
        assert converted.quantity(1, YES) == 1
        assert converted.quantity(2, YES) == 1
        assert converted.cash == 0
        for w in range(3):
            assert payoff_at_resolution(portfolio, w, ABC) == \
                payoff_at_resolution(converted, w, ABC)

    def test_zero_quantity_is_identity(self):
        portfolio = Portfolio({(0, NO): 5})
        assert convert_positions(portfolio, {0}, 0, ABC) == portfolio

    def test_insufficient_shares(self):
        with pytest.raises(InsufficientBalanceError):
            convert_positions(Portfolio({(0, NO): 1}), {0, 1}, 1, ABC)

    def test_all_outcomes_rejected(self):
        portfolio = Portfolio({(0, NO): 1, (1, NO): 1, (2, NO): 1})
        with pytest.raises(ConfigError):
            convert_positions(portfolio, {0, 1, 2}, 1, ABC)

    def test_payoff_equivalence_exhaustive(self):
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


class TestSplitMerge:
    def test_split_then_merge_is_identity(self):
        start = Portfolio(cash=1)
        assert merge_positions(split_position(start, ABC, 0, 1), ABC, 0, 1) == start

    def test_split_locks_collateral_and_mints_full_set(self):
        start = Portfolio(cash=6000)
        after = split_position(start, ABC, 1, 6000)
        assert after.cash == 0
        assert after.quantity(1, YES) == 6000
        assert after.quantity(1, NO) == 6000

    def test_insufficient_cash(self):
        with pytest.raises(InsufficientBalanceError):
            split_position(Portfolio(cash=3), ABC, 0, 4)

    def test_insufficient_shares_to_merge(self):
        with pytest.raises(InsufficientBalanceError):
            merge_positions(Portfolio({(0, YES): 2, (0, NO): 1}), ABC, 0, 2)

    def test_random_sequences_preserve_resolution_value(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(2, 5)
            market = CategoricalMarket(tuple(f"O{i}" for i in range(n)))
            portfolio = Portfolio(cash=10_000)
            baseline = [payoff_at_resolution(portfolio, w, market) for w in range(n)]
            for _ in range(30):
                outcome = rng.randrange(n)
                quantity = rng.randint(0, 50)
                op = rng.random()
                try:
                    if op < 0.45:
                        portfolio = split_position(portfolio, market, outcome, quantity)
                    elif op < 0.9:
                        portfolio = merge_positions(portfolio, market, outcome, quantity)
                    else:
                        m = rng.randint(1, n - 1)
                        subset = rng.sample(range(n), m)
                        portfolio = convert_positions(portfolio, subset, quantity, market)
                except InsufficientBalanceError:
                    continue
                # split/merge conserve value; conversion also conserves it
                assert [payoff_at_resolution(portfolio, w, market)
                        for w in range(n)] == baseline

    def test_negative_quantities_rejected(self):
        with pytest.raises(InsufficientBalanceError):
            split_position(Portfolio(cash=5), ABC, 0, -1)
        with pytest.raises(InsufficientBalanceError):
            merge_positions(Portfolio(), ABC, 0, -1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: CategoricalMarket(("A",)), ConfigError,
     "a categorical market needs at least 2 outcomes"),
    (lambda: CategoricalMarket(("A", "B", "A")), ConfigError, "outcome labels must be distinct"),
    (lambda: Portfolio({(0, NO): -1}), InsufficientBalanceError, "negative share quantity"),
    (lambda: convert_positions(Portfolio(), [], 1, ABC), ConfigError,
     "conversion needs at least one outcome"),
    (lambda: convert_positions(Portfolio(), {0}, -1, ABC), InsufficientBalanceError,
     "negative conversion quantity"),
], ids=["one-outcome", "repeated-label", "negative-holding", "no-outcome", "negative-quantity"])
def test_argument_check(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
