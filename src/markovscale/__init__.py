"""markovscale: asymptotic occupation structure of singularly perturbed
Markov chains, with a numeric oracle and a stochastic-game front end.

The package namespace holds the API documented in the README; every other
name is reached through its module (for example `markovscale.oracle`,
`markovscale.games`, `markovscale.structure.classify`)."""

from .asymptotics import ONE, ZERO, Monomial, monomial
from .chain_model import PerturbedChain, chain_from_entries, dump_chain, load_chain
from .errors import ChainFormatError, InputError, InternalError, ResourceError
from .evaluator import (
    absorbing_closed_form,
    critical_closed_form,
    limit_payoff,
    occupation,
    position,
)
from .hierarchy import HierarchyLevel, LimitModel, analyze, parse_report, report

__version__ = "0.1.0"

__all__ = [
    "ChainFormatError",
    "HierarchyLevel",
    "InputError",
    "InternalError",
    "LimitModel",
    "Monomial",
    "ONE",
    "PerturbedChain",
    "ResourceError",
    "ZERO",
    "absorbing_closed_form",
    "analyze",
    "chain_from_entries",
    "critical_closed_form",
    "dump_chain",
    "limit_payoff",
    "load_chain",
    "monomial",
    "occupation",
    "parse_report",
    "position",
    "report",
]
