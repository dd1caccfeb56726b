"""Absorbing-chain analysis: where, when, and how long.

Complements the transient solvers with the classical fundamental-matrix
quantities for chains with absorbing states:

* :func:`absorption_probabilities` — which absorbing state eventually
  captures the process (useful when a model distinguishes failure modes,
  e.g. detected-uncorrectable vs silent corruption);
* :func:`expected_time_in_states` — expected sojourn in each transient
  state before absorption (the exposure-window budget behind the
  detection-latency analysis);
* :func:`mean_time_to_absorption` — re-exported convenience matching
  :meth:`repro.markov.chain.CTMC.mean_time_to_absorption`.

All solve dense linear systems on the transient block of the generator:
O(n²) memory and O(n³) time in the number of states n.  That suits the
chains of a few thousand states or fewer (a 5,000-state block takes
200 MB), not the duplex RS(36,16) chain: its 211,212 states would need
a 357 GB dense generator.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

import numpy as np

from .chain import CTMC

State = Hashable


def _split(chain: CTMC) -> tuple[List[int], List[int]]:
    """Indices of (transient, absorbing) states."""
    out = chain.exit_rates()
    transient = [i for i, r in enumerate(out) if r > 0.0]
    absorbing = [i for i, r in enumerate(out) if r == 0.0]
    return transient, absorbing


def absorption_probabilities(chain: CTMC) -> Dict[State, float]:
    """Probability of ultimately landing in each absorbing state.

    Solves ``-Q_TT B = R`` for the transient-to-absorbing hitting matrix
    and weights by the initial distribution.  States that can never be
    left (no absorbing set reachable from them) surface as missing mass;
    a chain with no absorbing states raises ValueError.
    """
    transient, absorbing = _split(chain)
    if not absorbing:
        raise ValueError("chain has no absorbing states")
    result = {chain.states[j]: 0.0 for j in absorbing}
    # initial mass already sitting on absorbing states
    for j in absorbing:
        result[chain.states[j]] += float(chain.p0[j])
    if transient:
        q = chain.generator(dense=True)
        q_tt = q[np.ix_(transient, transient)]
        q_ta = q[np.ix_(transient, absorbing)]
        hitting = np.linalg.solve(-q_tt, q_ta)  # (n_transient, n_absorbing)
        p0_t = chain.p0[transient]
        landed = p0_t @ hitting
        for col, j in enumerate(absorbing):
            result[chain.states[j]] += float(landed[col])
    return result


def expected_time_in_states(chain: CTMC) -> Dict[State, float]:
    """Expected total time spent in each transient state before absorption.

    The row sums of the CTMC fundamental matrix ``(-Q_TT)^{-1}`` weighted
    by the initial distribution; absorbing states are omitted.  Infinite
    sojourns (transient states from which no absorbing state is
    reachable) surface as ``inf``.
    """
    transient, absorbing = _split(chain)
    if not absorbing:
        raise ValueError("chain has no absorbing states")
    if not transient:
        return {}
    q = chain.generator(dense=True)
    q_tt = q[np.ix_(transient, transient)]
    p0_t = chain.p0[transient]
    try:
        sojourn = np.linalg.solve(-q_tt.T, p0_t)
    except np.linalg.LinAlgError:
        return {chain.states[i]: float("inf") for i in transient}
    out = {}
    for pos, i in enumerate(transient):
        value = float(sojourn[pos])
        out[chain.states[i]] = value if value > -1e-12 else float("inf")
    return out


def mean_time_to_absorption(chain: CTMC) -> float:
    """Expected time to absorption into *any* absorbing state."""
    return chain.mean_time_to_absorption(chain.absorbing_states())
