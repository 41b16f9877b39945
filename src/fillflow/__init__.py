"""Reconstruct prediction-market activity from on-chain fill-event logs.

The pipeline: parse OrderFilled records into transactions, decompose each
settlement into trade/mint/burn volume per token side, then aggregate into
market measures and the price-efficiency, participation, and price-impact
analytics built on top.
"""

__version__ = "0.1.0"
