"""Reconstruct prediction-market activity from on-chain fill-event logs.

The pipeline: parse OrderFilled records into transactions, decompose each
settlement into trade/mint/burn volume per token side, then aggregate into
market measures and the price-efficiency, participation, and price-impact
analytics built on top.
"""

__version__ = "0.1.0"

from .decompose import (
    DecomposedTransaction,
    TxKind,
    VolumeComponents,
    decompose_ledger,
)
from .events import (
    FillEvent,
    MarketSpec,
    Transaction,
    group_transactions,
    load_market_config,
    read_fills,
    write_fills,
)
from .fetch import fetch_event_logs
from .mechanics import (
    CategoricalMarket,
    Portfolio,
    convert_positions,
    merge_positions,
    payoff_at_resolution,
    split_position,
)
from .metrics import (
    IntervalTotals,
    MarketMeasures,
    SideTotals,
    aggregate_components,
    side_measures,
)
from .microstructure import (
    HourBar,
    LambdaEstimate,
    RegressionResult,
    SignedTrade,
    hourly_bars,
    inverse_log_odds,
    kyle_lambda,
    lambda_volume_regression,
    log_odds,
    price_impact_delta_p,
    rolling_avg_volume,
    rolling_kyle_lambda,
    sign_trades,
)
from .prices import (
    DeviationPoint,
    InflowSeries,
    PricePoint,
    arbitrage_deviation,
    build_price_series,
    daily_net_inflow,
    rolling_inflow_correlation,
    splice_democrat_market,
)
from .synthetic import (
    SyntheticLedger,
    SyntheticScenario,
    generate_synthetic_ledger,
    load_scenario,
)
from .traders import (
    ParticipationCell,
    TraderActivity,
    cell_bitmask,
    collect_trader_activity,
    hourly_active_traders,
    participation_sets,
    top_decile_traders,
)
