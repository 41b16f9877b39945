"""Synthetic ledger generator with constructive ground truth.

Emits schema-conformant fills covering the full transaction taxonomy (pure
exchange with multi-fill partial matches, share minting, share burning, and
mixed mint/burn) from a scripted trader population. The per-transaction
volume components are recorded while each transaction is being composed,
never by re-running the decomposition, so replaying the fills through the
decomposer is a genuine end-to-end oracle.

Prices are integer micro-USD per share. Mint and burn legs always price a
full set at exactly $1, as the settlement mechanism enforces; quoted
exchange prices additionally carry the market's current deviation, which an
optional arbitrageur walks back toward zero via the split-and-sell /
buy-and-merge sequences.

Generation is single-threaded and fully determined by the scenario seed: a ledger
depends only on the ``getrandbits`` and ``random`` streams of ``Random(seed)``.
"""

from __future__ import annotations

import gc
import sys
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from random import Random
from typing import Sequence

from .decompose import DecomposedTransaction, TxKind, VolumeComponents
from .errors import ConfigError, ParseError
from .events import COLLATERAL_ID, FillEvent, MarketSpec, _load_text, markets_from_entries
from .traders import market_labels
from .units import DAY, MICRO, day_floor, parse_utc

BLOCK_SECONDS = 2  # settlement chain block cadence; timestamps sit on this grid
START_BLOCK = 50_000_000  # the block of a scenario's start

PRICE_LO = 60_000
PRICE_HI = 940_000
MAX_DEVIATION = 60_000
ARB_MIN_DEVIATION = 10_000  # one cent


@dataclass(frozen=True)
class WhaleEvent:
    """A scheduled large one-directional bet (fresh collateral via minting)."""

    timestamp: int
    market: str
    side: str
    usd: int


@dataclass(frozen=True)
class DeviationInjection:
    """Force p_yes + p_no - 1 to ``delta_micro`` at a point in time."""

    timestamp: int
    market: str
    delta_micro: int


@dataclass(frozen=True)
class ArbitrageEvent:
    timestamp: int
    market: str
    action: str  # split_and_sell | buy_and_merge
    quantity: int
    delta_before: int
    delta_after: int


@dataclass
class SyntheticScenario:
    seed: int
    markets: list[MarketSpec]
    start: int
    end: int
    n_transactions: int = 1000
    n_traders: int = 40
    directional_share: float = 0.5
    market_maker_share: float = 0.3
    arbitrageur: bool = False
    whale_schedule: list[WhaleEvent] = field(default_factory=list)
    deviation_injections: list[DeviationInjection] = field(default_factory=list)
    kind_weights: dict[str, float] | None = None
    hourly_weights: list[float] | None = None
    mixed_spread_micro: int = 2000

    def __post_init__(self):
        if not self.markets:
            raise ConfigError("scenario needs at least one market")
        # Anchor the block grid on an even second so hour boundaries are
        # preserved when timestamps are quantized.
        self.start -= self.start % BLOCK_SECONDS
        if self.end <= self.start:
            raise ConfigError("scenario end must be after start")
        for event in self.whale_schedule:
            if event.side not in ("yes", "no"):
                raise ConfigError(f"whale event side must be yes/no, got {event.side!r}")
        for event in (*self.whale_schedule, *self.deviation_injections):
            if event.market not in [m.candidate for m in self.markets]:
                raise ConfigError(f"{type(event).__name__} names unknown market {event.market!r}")
        if self.kind_weights is not None:
            if not isinstance(self.kind_weights, dict):
                raise ConfigError("scenario 'kindWeights' must map transaction kinds to weights, "
                                  f"got {self.kind_weights!r}")
            unknown = set(self.kind_weights) - {kind.value for kind in TxKind}
            if unknown:
                raise ConfigError("scenario 'kindWeights' names unknown transaction kinds "
                                  f"{sorted(unknown)}")
            _check_weights("kindWeights", self.kind_weights.values())
        if self.hourly_weights is not None:
            if not isinstance(self.hourly_weights, (list, tuple)) or len(self.hourly_weights) != 24:
                raise ConfigError("scenario 'hourlyWeights' must be a list of 24 weights")
            _check_weights("hourlyWeights", self.hourly_weights)
        for key, share in (("directionalShare", self.directional_share),
                           ("marketMakerShare", self.market_maker_share)):
            if not 0 <= share <= 1:
                raise ConfigError(f"scenario {key!r} must be within [0, 1], got {share!r}")
        if self.n_traders < 1:
            raise ConfigError(f"scenario 'nTraders' must be at least 1, got {self.n_traders!r}")
        for key, count in (("nTransactions", self.n_transactions),
                           ("mixedSpread", self.mixed_spread_micro)):
            if count < 0:
                raise ConfigError(f"scenario {key!r} must be non-negative, got {count!r}")


def _check_weights(key: str, weights) -> None:
    """Raise ConfigError naming scenario ``key`` unless each weight is a finite non-negative
    JSON number (an int or a float, not a bool) and their sum is positive and finite. It
    draws no random number, so it leaves the ledger of every seed unchanged."""
    for weight in weights:
        if type(weight) not in (int, float) or not 0 <= weight <= sys.float_info.max:
            raise ConfigError(
                f"scenario {key!r} weights must be non-negative numbers, got {weight!r}")
    total = sum(weights)
    if not total > 0:
        raise ConfigError(f"scenario {key!r} weights sum to zero")
    if not total <= sys.float_info.max:
        raise ConfigError(f"scenario {key!r} weights must have a finite sum, got {total!r}")


@dataclass
class SyntheticLedger:
    """Generator output: fills plus all constructive ground truth."""

    fills: list[FillEvent]
    truth: list[DecomposedTransaction]
    markets: list[MarketSpec]
    exchange_address: str
    trader_markets: dict[str, set[str]]
    hourly_participants: dict[tuple[int, int], set[str]]
    arbitrage_events: list[ArbitrageEvent]

    def transaction_count(self) -> int:
        return len(self.truth)


def _resolve_weights(scenario: SyntheticScenario) -> list[float]:
    if scenario.kind_weights is not None:
        weights = [float(scenario.kind_weights.get(kind.value, 0.0)) for kind in TxKind]
    else:
        mm = scenario.market_maker_share
        directional = scenario.directional_share
        rest = max(0.0, 1.0 - mm - directional)
        # Directional flow arrives as issuance/redemption; market-maker flow
        # as exchange; the remainder as mixed matches.
        weights = [mm, directional * 0.55, directional * 0.45, rest * 0.5, rest * 0.5]
    total = sum(weights)  # positive: __post_init__ checks the kind weights' sum
    return [w / total for w in weights]


def _sided(side: str, trade=0, mint=0, burn=0, c_mint=0, c_burn=0, buy=0,
           sell=0) -> VolumeComponents:
    """Components with `side` as the primary token and its complement."""
    if side == "yes":
        return VolumeComponents(trade, 0, mint, c_mint, burn, c_burn, buy, sell)
    return VolumeComponents(0, trade, c_mint, mint, c_burn, burn, buy, sell)


class _Generator:
    def __init__(self, scenario: SyntheticScenario):
        self.scenario = scenario
        self.rng = Random(scenario.seed)
        # The stream's own methods: they refer to the Random object, not to this generator.
        self.bits, self.random = self.rng.getrandbits, self.rng.random
        self.markets = {m.candidate: m for m in scenario.markets}
        self.labels = market_labels(scenario.markets)
        self.exchange_address = self._address("c5d")
        self.prices = {m.candidate: 250_000 + self._below(500_001) for m in scenario.markets}
        self.deviations = {m.candidate: 0 for m in scenario.markets}
        # Cumulative weights, from which ``_weighted`` draws as ``choices`` does from weights.
        self.kind_cum_weights = list(accumulate(_resolve_weights(scenario)))
        self.hour_cum_weights = (None if scenario.hourly_weights is None
                                 else list(accumulate(scenario.hourly_weights)))

        population = scenario.n_traders
        n_mm = max(1, round(population * scenario.market_maker_share))
        n_dir = max(2, round(population * scenario.directional_share))
        n_retail = max(2, population - n_mm - n_dir)
        self.market_makers = [self._address() for _ in range(n_mm)]
        self.retail = [self._address() for _ in range(n_retail)]
        self.directional: dict[tuple[str, str], list[str]] = {}
        for i in range(n_dir):
            market = scenario.markets[i % len(scenario.markets)].candidate
            side = "yes" if self.random() < 0.6 else "no"
            self.directional.setdefault((market, side), []).append(self._address())
        self.arb_address = self._address("a9b") if scenario.arbitrageur else None
        self.undirected = self.retail + self.market_makers

        self.fills: list[FillEvent] = []
        self.truth: list[DecomposedTransaction] = []
        self.trader_markets: dict[str, set[str]] = {}
        self.hourly_participants: dict[tuple[int, int], set[str]] = {}
        self.arbitrage_events: list[ArbitrageEvent] = []
        self._tx_index_by_block: dict[int, int] = {}

    # -- draws ------------------------------------------------------------------

    def _below(self, n: int) -> int:
        """``randrange(n)``, drawn from the same bits; ``seq[_below(len(seq))]`` is ``choice``."""
        if n <= 0:  # no r < n to draw: the loop below would never end
            raise ValueError(f"no int to draw in [0, {n})")
        k = n.bit_length()
        r = self.bits(k)
        while r >= n:
            r = self.bits(k)
        return r

    def _weighted(self, population, cum_weights):
        """``choices(population, cum_weights=cum_weights)[0]``: one ``random()`` draw."""
        return population[bisect(cum_weights, self.random() * cum_weights[-1], 0,
                                 len(population) - 1)]

    # -- population helpers -------------------------------------------------

    def _address(self, prefix: str = "") -> str:
        body = f"{self.bits(160):040x}"
        return "0x" + prefix + body[len(prefix):]

    def _pick_directional(self, market: str, side: str) -> str:
        pool = self.directional.get((market, side))
        if pool and self.random() < 0.7:
            return pool[self._below(len(pool))]
        return self.undirected[self._below(len(self.undirected))]

    def _pick_liquidity(self) -> str:
        if self.market_makers and self.random() < 0.8:
            return self.market_makers[self._below(len(self.market_makers))]
        return self.retail[self._below(len(self.retail))]

    # -- price state ---------------------------------------------------------

    def _quote(self, market: str, side: str) -> int:
        """Quoted exchange price: base price plus this side's deviation half."""
        p = self.prices[market]
        delta = self.deviations[market]
        if side == "yes":
            return p + (delta - delta // 2)
        return (MICRO - p) + delta // 2

    def _base_price(self, market: str, side: str) -> int:
        p = self.prices[market]
        return p if side == "yes" else MICRO - p

    def _walk_price(self, market: str) -> None:
        p = self.prices[market] - 1500 + self._below(3001)
        self.prices[market] = min(max(p, PRICE_LO), PRICE_HI)

    # -- timestamps and coordinates -------------------------------------------

    def _grid(self, ts: int) -> int:
        ts = max(self.scenario.start, min(ts, self.scenario.end - 1))
        return ts - (ts - self.scenario.start) % BLOCK_SECONDS

    def _draw_timestamp(self) -> int:
        scenario = self.scenario
        if self.hour_cum_weights is None:
            span = (scenario.end - scenario.start) // BLOCK_SECONDS
            return scenario.start + BLOCK_SECONDS * self._below(max(span, 1))
        for _ in range(1000):
            day = day_floor(scenario.start) + DAY * self._below(
                max(1, (scenario.end - day_floor(scenario.start) + DAY - 1) // DAY))
            hour = self._weighted(range(24), self.hour_cum_weights)
            ts = day + hour * 3600 + BLOCK_SECONDS * self._below(3600 // BLOCK_SECONDS)
            if scenario.start <= ts < scenario.end:
                return self._grid(ts)
        raise ConfigError("could not draw a timestamp inside the scenario window")

    # -- emission -------------------------------------------------------------

    def _split_quantity(self, total: int, parts: int) -> list[int]:
        parts = min(parts, total)
        if parts <= 1:
            return [total]
        if parts == 2:  # the one cut ``sample(range(1, total), 1)`` would draw
            cut = 1 + self._below(total - 1)
            return [cut, total - cut]
        cuts = sorted(self.rng.sample(range(1, total), parts - 1))
        bounds = [0] + cuts + [total]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def _emit(
        self,
        ts: int,
        market: MarketSpec,
        kind: TxKind,
        fill_specs: list[tuple[str, str, str, str, int, int]],
        components: VolumeComponents,
    ) -> None:
        """Materialize one transaction from (maker, taker, makerAsset, takerAsset, amounts)."""
        block = START_BLOCK + (ts - self.scenario.start) // BLOCK_SECONDS
        tx_index = self._tx_index_by_block.get(block, 0)
        self._tx_index_by_block[block] = tx_index + 1
        parties: set[str] = set()
        fills, labels, trader_markets = self.fills, self.labels, self.trader_markets
        for log_offset, (maker, taker, m_asset, t_asset, m_amount, t_amount) in enumerate(fill_specs):
            fills.append(FillEvent(block, tx_index, log_offset, maker, taker, m_asset, t_asset,
                                   m_amount, t_amount, ts))
            label = labels[t_asset if m_asset == COLLATERAL_ID else m_asset]
            for party in (maker, taker):
                if party != self.exchange_address:
                    parties.add(party)
                    known = trader_markets.get(party)
                    if known is None:
                        trader_markets[party] = {label}
                    else:
                        known.add(label)
        # The fields are those of a NamedTuple, so its generated __new__ can be skipped.
        row = tuple.__new__(DecomposedTransaction,
                            (block, tx_index, ts, market.candidate, kind, components))
        row.check()
        self.truth.append(row)
        self.hourly_participants.setdefault((ts - ts % DAY, ts % DAY // 3600),
                                            set()).update(parties)

    # -- transaction builders ---------------------------------------------------

    def _token(self, market: MarketSpec, side: str) -> str:
        return market.yes_token_id if side == "yes" else market.no_token_id

    def _build_exchange(self, ts: int, market: MarketSpec, side: str,
                        shares: int | None = None, buyer: str | None = None,
                        sellers: Sequence[str] | None = None) -> None:
        shares = shares or 5 + self._below(2996)
        price = self._quote(market.candidate, side)
        buyer = buyer or self._pick_directional(market.candidate, side)
        token = self._token(market, side)
        usdc = shares * price
        specs = [(buyer, self.exchange_address, COLLATERAL_ID, token, usdc, shares * MICRO)]
        lots = self._split_quantity(shares, 1 + self._below(3))
        pool = list(sellers) if sellers else None
        for lot in lots:
            seller = pool[self._below(len(pool))] if pool else self._pick_liquidity()
            specs.append((seller, buyer, token, COLLATERAL_ID, lot * MICRO, lot * price))
        self._emit(ts, market, TxKind.PURE_EXCHANGE, specs,
                   _sided(side, trade=usdc, buy=usdc, sell=usdc))

    def _build_minting(self, ts: int, market: MarketSpec, side_buyer: str | None = None,
                       shares: int | None = None, side: str = "yes") -> None:
        shares = shares or 5 + self._below(2996)
        p_yes = self._base_price(market.candidate, "yes")
        buyers = {
            "yes": side_buyer if side == "yes" and side_buyer else self._pick_directional(market.candidate, "yes"),
            "no": side_buyer if side == "no" and side_buyer else self._pick_directional(market.candidate, "no"),
        }
        specs = []
        for leg, price in (("yes", p_yes), ("no", MICRO - p_yes)):
            token = self._token(market, leg)
            for lot in self._split_quantity(shares, 1 + self._below(2)):
                specs.append((buyers[leg], self.exchange_address, COLLATERAL_ID, token,
                              lot * price, lot * MICRO))
        self._emit(ts, market, TxKind.SHARE_MINTING, specs, VolumeComponents(
            0, 0, shares * p_yes, shares * (MICRO - p_yes), 0, 0, shares * MICRO, 0))

    def _build_burning(self, ts: int, market: MarketSpec) -> None:
        shares = 5 + self._below(2996)
        p_yes = self._base_price(market.candidate, "yes")
        specs = []
        for leg, price in (("yes", p_yes), ("no", MICRO - p_yes)):
            token = self._token(market, leg)
            seller = self._pick_liquidity()
            for lot in self._split_quantity(shares, 1 + self._below(2)):
                specs.append((seller, self.exchange_address, token, COLLATERAL_ID,
                              lot * MICRO, lot * price))
        self._emit(ts, market, TxKind.SHARE_BURNING, specs, VolumeComponents(
            0, 0, 0, 0, shares * p_yes, shares * (MICRO - p_yes), 0, shares * MICRO))

    def _build_mixed_mint(self, ts: int, market: MarketSpec, side: str) -> None:
        exchanged = 5 + self._below(1996)
        minted = 1 + self._below(2000)
        p = self._base_price(market.candidate, side)
        spread = self._below(min(self.scenario.mixed_spread_micro, p - 1) + 1)
        p_sell = p - spread
        token = self._token(market, side)
        complement = self._token(market, "no" if side == "yes" else "yes")
        taker = self._pick_directional(market.candidate, side)
        maker = self._pick_liquidity()
        counter = self._pick_directional(market.candidate, "no" if side == "yes" else "yes")
        total = exchanged + minted
        specs = [
            (taker, self.exchange_address, COLLATERAL_ID, token, total * p, total * MICRO),
            (maker, taker, token, COLLATERAL_ID, exchanged * MICRO, exchanged * p_sell),
            (counter, self.exchange_address, COLLATERAL_ID, complement,
             minted * (MICRO - p), minted * MICRO),
        ]
        trade = exchanged * p_sell
        buy = total * p + minted * (MICRO - p)
        self._emit(ts, market, TxKind.MIXED_MINT, specs, _sided(
            side,
            trade=trade,
            mint=total * p - trade,
            c_mint=minted * (MICRO - p),
            buy=buy,
            sell=trade,
        ))

    def _build_mixed_burn(self, ts: int, market: MarketSpec, side: str) -> None:
        exchanged = 5 + self._below(1996)
        burned = 1 + self._below(2000)
        p = self._base_price(market.candidate, side)
        total = exchanged + burned
        max_spread = min(self.scenario.mixed_spread_micro,
                         (total * p - exchanged * p) // max(exchanged, 1),
                         MICRO - 1 - p)
        spread = self._below(max(0, max_spread) + 1)
        p_buy = p + spread
        token = self._token(market, side)
        complement = self._token(market, "no" if side == "yes" else "yes")
        taker = self._pick_liquidity()
        buyer = self._pick_directional(market.candidate, side)
        counter = self._pick_liquidity()
        specs = [
            (taker, self.exchange_address, token, COLLATERAL_ID, total * MICRO, total * p),
            (buyer, taker, COLLATERAL_ID, token, exchanged * p_buy, exchanged * MICRO),
            (counter, self.exchange_address, complement, COLLATERAL_ID,
             burned * MICRO, burned * (MICRO - p)),
        ]
        trade = exchanged * p_buy
        sell = total * p + burned * (MICRO - p)
        self._emit(ts, market, TxKind.MIXED_BURN, specs, _sided(
            side,
            trade=trade,
            burn=total * p - trade,
            c_burn=burned * (MICRO - p),
            buy=trade,
            sell=sell,
        ))

    def _build_whale(self, event: WhaleEvent) -> None:
        ts = self._grid(event.timestamp)
        price = self._base_price(event.market, event.side)
        shares = max(1, event.usd * MICRO // price)
        whale = self._address("f1a")
        self._build_minting(ts, self.markets[event.market], side_buyer=whale, shares=shares,
                            side=event.side)

    def _run_arbitrage(self, ts: int, market: MarketSpec) -> None:
        """Walk the deviation toward zero with the documented sequences."""
        candidate = market.candidate
        delta = self.deviations[candidate]
        if abs(delta) < ARB_MIN_DEVIATION or self.arb_address is None:
            return
        if ts + 2 * BLOCK_SECONDS >= self.scenario.end:
            return
        quantity = 50 + self._below(351)
        # Split $1 collateral into full sets and sell both legs at the inflated quotes
        # (downward pressure on both prices), or buy both legs at the depressed quotes
        # and merge them back into collateral (upward pressure).
        action = "split_and_sell" if delta > 0 else "buy_and_merge"
        sellers = [self.arb_address] if delta > 0 else None
        for i, side in enumerate(("yes", "no")):
            fill_ts = self._grid(ts + (i + 1) * BLOCK_SECONDS)
            buyer = self._pick_liquidity() if sellers else self.arb_address
            self._build_exchange(fill_ts, market, side, shares=quantity, buyer=buyer,
                                 sellers=sellers)
        after = delta // 2 if delta > 0 else -((-delta) // 2)
        self.deviations[candidate] = after
        self.arbitrage_events.append(ArbitrageEvent(
            timestamp=ts, market=candidate, action=action,
            quantity=quantity, delta_before=delta, delta_after=after,
        ))

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SyntheticLedger:
        scenario = self.scenario
        plan: list[tuple[int, int, str, object]] = []
        for i in range(scenario.n_transactions):
            plan.append((self._draw_timestamp(), i, "tx", None))
        for i, event in enumerate(scenario.whale_schedule):
            plan.append((self._grid(event.timestamp), scenario.n_transactions + i, "whale", event))
        for i, injection in enumerate(scenario.deviation_injections):
            delta = min(max(injection.delta_micro, -MAX_DEVIATION), MAX_DEVIATION)
            plan.append((self._grid(injection.timestamp), -len(scenario.deviation_injections) + i,
                         "inject", (injection.market, delta)))
        plan.sort(key=itemgetter(0, 1))

        sides, side_cum_weights = ["yes", "no"], list(accumulate([0.6, 0.4]))
        kinds = tuple(TxKind)
        for ts, _, action, payload in plan:
            if action == "inject":
                market_name, delta = payload
                self.deviations[market_name] = delta
                continue
            if action == "whale":
                self._build_whale(payload)
                continue
            market = scenario.markets[self._below(len(scenario.markets))]
            side = self._weighted(sides, side_cum_weights)
            kind = self._weighted(kinds, self.kind_cum_weights)
            if kind is TxKind.PURE_EXCHANGE:
                self._build_exchange(ts, market, side)
            elif kind is TxKind.SHARE_MINTING:
                self._build_minting(ts, market)
            elif kind is TxKind.SHARE_BURNING:
                self._build_burning(ts, market)
            elif kind is TxKind.MIXED_MINT:
                self._build_mixed_mint(ts, market, side)
            else:
                self._build_mixed_burn(ts, market, side)
            self._walk_price(market.candidate)
            if scenario.arbitrageur:
                self._run_arbitrage(ts, market)

        # By (block, txIndex, logIndex) and (block, txIndex): unique, so no later field counts.
        self.fills.sort()
        self.truth.sort()
        return SyntheticLedger(
            fills=self.fills,
            truth=self.truth,
            markets=list(scenario.markets),
            exchange_address=self.exchange_address,
            trader_markets=self.trader_markets,
            hourly_participants=self.hourly_participants,
            arbitrage_events=self.arbitrage_events,
        )


def generate_synthetic_ledger(scenario: SyntheticScenario) -> SyntheticLedger:
    """Generate a deterministic ledger plus ground truth for ``scenario``, with the cyclic GC
    paused, then restored: what generation builds is acyclic, so no collection frees any."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _Generator(scenario).run()
    finally:
        if enabled:
            gc.enable()


_JSON_TYPES = {"boolean": (bool,), "integer": (int,), "number": (int, float)}

# Generator key -> (SyntheticScenario field, JSON type); a key left out takes the field default.
_GENERATOR_KEYS = {
    "nTransactions": ("n_transactions", "integer"), "nTraders": ("n_traders", "integer"),
    "directionalShare": ("directional_share", "number"),
    "marketMakerShare": ("market_maker_share", "number"),
    "arbitrageur": ("arbitrageur", "boolean"), "mixedSpread": ("mixed_spread_micro", "integer")}


def _typed(doc: dict, key: str, kind: str):
    """``doc[key]``, which must be a JSON ``kind``; a number is returned as a float."""
    value = doc[key]
    if type(value) not in _JSON_TYPES[kind]:
        raise ConfigError(f"scenario {key!r} must be a JSON {kind}, got {value!r}")
    return float(value) if kind == "number" else value


def load_scenario(path, seed: int | None = None) -> SyntheticScenario:
    """Read a scenario document (market-config format plus generator keys)."""
    try:
        doc = _load_text(path)
    except (ParseError, ValueError) as exc:  # a byte that is not UTF-8; a bad document
        raise ConfigError(f"invalid scenario JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    try:
        markets = markets_from_entries(doc["markets"])
        scenario = SyntheticScenario(
            seed=_typed(doc, "seed", "integer") if seed is None else seed,
            markets=markets,
            start=parse_utc(doc["start"]),
            end=parse_utc(doc["end"]),
            **{name: _typed(doc, key, kind)
               for key, (name, kind) in _GENERATOR_KEYS.items() if key in doc},
            whale_schedule=[
                WhaleEvent(
                    timestamp=parse_utc(w["time"]),
                    market=w["market"],
                    side=w["side"],
                    usd=_typed(w, "usd", "integer"),
                )
                for w in doc.get("whaleSchedule", [])
            ],
            deviation_injections=[
                DeviationInjection(
                    timestamp=parse_utc(d["time"]),
                    market=d["market"],
                    delta_micro=round(_typed(d, "delta", "number") * MICRO),
                )
                for d in doc.get("deviationInjections", [])
            ],
            kind_weights=doc.get("kindWeights"),
            hourly_weights=doc.get("hourlyWeights"),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # a bad time; an infinite delta
        raise ConfigError(f"scenario: {exc}") from exc
    return scenario
