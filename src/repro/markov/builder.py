"""State-space exploration for Markov models.

The memory models describe their dynamics locally — "from state ``s`` the
possible moves are …" — and :func:`build_chain` turns that local rule into
a full :class:`~repro.markov.chain.CTMC` by breadth-first exploration from
the initial state.  This mirrors how reliability tools (and the paper's
SURE input) enumerate reachable configurations, and contains the state
explosion to what is actually reachable.

A model whose chain runs to hundreds of thousands of states (the duplex
RS(36,16) chain has 211,212) can also supply a :class:`FrontierRule`: the
same rule over arrays of integer-coded states.  :func:`build_chain` then
expands one BFS level at a time with array operations instead of calling
the rule once per state, and returns the very same chain: states in the
same order, the same sparse arrays, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Protocol, Tuple

import numpy as np

from .chain import CTMC

State = Hashable
TransitionFn = Callable[[State], Iterable[Tuple[State, float]]]


class FrontierRule(Protocol):
    """Array form of a transition rule, for :func:`build_chain`.

    States are coded as int64 keys.  Negative keys are absorbing sinks
    (such as a model's ``FAIL``): :func:`build_chain` never expands them.
    """

    def encode(self, state: State) -> int:
        """The key of one state label."""

    def decode(self, keys: np.ndarray) -> List[State]:
        """The state labels of an array of keys."""

    def expand(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every move out of the (non-sink) states ``keys``.

        Returns ``(parent, target, rate)`` arrays: move ``i`` leaves
        ``keys[parent[i]]`` for the state keyed ``target[i]`` at
        ``rate[i]``.  Moves are ordered by parent, and for one parent in
        the order the per-state rule yields them.
        """


def build_chain(
    initial_state: State,
    transition_fn: TransitionFn,
    max_states: int = 2_000_000,
    frontier: Optional[FrontierRule] = None,
) -> CTMC:
    """Explore the reachable state space and assemble a CTMC.

    Parameters
    ----------
    initial_state:
        Starting state (receives probability 1).
    transition_fn:
        Maps a state to an iterable of ``(next_state, rate)`` pairs.
        Zero-rate pairs are ignored; returning an empty iterable makes the
        state absorbing.  Multiple pairs to the same successor are summed.
    max_states:
        Safety bound on the exploration; exceeding it raises RuntimeError
        rather than silently truncating the model.
    frontier:
        The same rule as ``transition_fn`` in array form.  When given, the
        exploration runs on it (``transition_fn`` is not called) and yields
        the chain the per-state exploration would.
    """
    if frontier is not None:
        return _build_frontier(initial_state, frontier, max_states)
    states: List[State] = [initial_state]
    index = {initial_state: 0}
    src: List[int] = []
    dst: List[int] = []
    rates: List[float] = []
    pos = 0
    # states are appended in discovery order, so walking the list is a FIFO
    # breadth-first search
    while pos < len(states):
        if pos >= max_states:
            raise RuntimeError(
                f"state space exceeds max_states={max_states}; "
                "raise the bound or shrink the model"
            )
        state = states[pos]
        for nxt, rate in transition_fn(state):
            if rate < 0:
                raise ValueError(f"negative rate {rate} from state {state!r}")
            if rate == 0.0 or nxt == state:
                continue
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(states)
                states.append(nxt)
            src.append(pos)
            dst.append(j)
            rates.append(rate)
        pos += 1
    return CTMC.from_arrays(states, src, dst, rates, initial_state)


def _build_frontier(
    initial_state: State, rule: FrontierRule, max_states: int
) -> CTMC:
    """Level-synchronous BFS over integer keys.

    Each level's new states are numbered in first-occurrence order over
    its moves, which :meth:`FrontierRule.expand` orders by (parent, move):
    exactly the order in which the per-state FIFO search discovers them.
    """
    start = np.array([rule.encode(initial_state)], dtype=np.int64)
    levels = [start]
    # every key seen so far, sorted, with its state index alongside
    seen_keys = start.copy()
    seen_index = np.zeros(1, dtype=np.int64)
    src_parts, dst_parts, rate_parts = [], [], []
    frontier, first, count = start, 0, 1
    while frontier.size:
        if count > max_states:
            raise RuntimeError(
                f"state space exceeds max_states={max_states}; "
                "raise the bound or shrink the model"
            )
        live = np.flatnonzero(frontier >= 0)
        parent, target, rate = rule.expand(frontier[live])
        parent_key = frontier[live[parent]]
        negative = np.flatnonzero(rate < 0)
        if negative.size:
            i = negative[0]
            [state] = rule.decode(parent_key[i : i + 1])
            raise ValueError(f"negative rate {rate[i]} from state {state!r}")
        keep = (rate != 0.0) & (target != parent_key)
        src = first + live[parent[keep]]
        target, rate = target[keep], rate[keep]

        # many moves share a target: look each distinct one up once
        unique, first_at, inverse = np.unique(
            target, return_index=True, return_inverse=True
        )
        at = np.searchsorted(seen_keys, unique)
        known = at < seen_keys.size
        known[known] = seen_keys[at[known]] == unique[known]
        new = ~known
        fresh = unique[new]
        # new states are numbered by their first move
        rank = np.empty(fresh.size, dtype=np.int64)
        rank[np.argsort(first_at[new])] = np.arange(fresh.size)
        ids = np.empty(unique.size, dtype=np.int64)
        ids[known] = seen_index[at[known]]
        ids[new] = count + rank
        dst = ids[inverse]

        seen_keys = np.insert(seen_keys, at[new], fresh)
        seen_index = np.insert(seen_index, at[new], count + rank)
        frontier = np.empty_like(fresh)
        frontier[rank] = fresh
        first, count = count, count + fresh.size
        levels.append(frontier)
        src_parts.append(src)
        dst_parts.append(dst)
        rate_parts.append(rate)
    states = rule.decode(np.concatenate(levels))
    return CTMC.from_arrays(
        states,
        np.concatenate(src_parts),
        np.concatenate(dst_parts),
        np.concatenate(rate_parts),
        initial_state,
    )
