"""Continuous-time Markov chain engine (the SURE-solver substitute).

Public surface:

* :class:`~repro.markov.chain.CTMC` — finite CTMC with transient solvers.
* :func:`~repro.markov.builder.build_chain` — BFS state-space exploration
  from a local transition rule, or level by level from its array form
  (:class:`~repro.markov.builder.FrontierRule`).
* :mod:`~repro.markov.solvers` — uniformization / expm / ODE transient
  solvers.
"""

from .absorbing import (
    absorption_probabilities,
    expected_time_in_states,
    mean_time_to_absorption,
)
from .builder import FrontierRule, build_chain
from .quasistationary import QuasiStationary, quasi_stationary
from .chain import CTMC
from .solvers import (
    TRANSIENT_SOLVERS,
    transient_expm,
    transient_ode,
    transient_uniformization,
)

__all__ = [
    "CTMC",
    "build_chain",
    "FrontierRule",
    "TRANSIENT_SOLVERS",
    "transient_expm",
    "transient_ode",
    "transient_uniformization",
    "absorption_probabilities",
    "expected_time_in_states",
    "mean_time_to_absorption",
    "QuasiStationary",
    "quasi_stationary",
]
