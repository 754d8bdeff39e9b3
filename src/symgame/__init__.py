"""Exact classification, decomposition, and mapping of symmetric 2x2 games."""

from .payoff import *
from .equilibria import *
from .cartography import *
from .taxonomy import *
from .ordergraph import *
from .svgmap import *

__version__ = "0.13.0"

__all__ = (
    payoff.__all__
    + equilibria.__all__
    + cartography.__all__
    + taxonomy.__all__
    + ordergraph.__all__
    + svgmap.__all__
)
