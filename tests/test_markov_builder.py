"""Unit tests for BFS state-space exploration."""

import numpy as np
import pytest

from repro.markov import build_chain
from repro.memory import duplex_model


class TestExploration:
    def test_linear_chain(self):
        def transitions(state):
            if state < 3:
                return [(state + 1, 1.0)]
            return []

        chain = build_chain(0, transitions)
        assert chain.states == [0, 1, 2, 3]
        assert chain.absorbing_states() == [3]

    def test_unreachable_states_not_included(self):
        def transitions(state):
            return [(1, 2.0)] if state == 0 else []

        chain = build_chain(0, transitions)
        assert set(chain.states) == {0, 1}

    def test_branching_exploration(self):
        def transitions(state):
            if state == "root":
                return [("left", 1.0), ("right", 2.0)]
            if state == "left":
                return [("leaf", 0.5)]
            return []

        chain = build_chain("root", transitions)
        assert set(chain.states) == {"root", "left", "right", "leaf"}
        assert chain.rate("root", "right") == 2.0

    def test_cycles_terminate(self):
        def transitions(state):
            return [((state + 1) % 4, 1.0)]

        chain = build_chain(0, transitions)
        assert chain.num_states == 4

    def test_zero_rate_edges_not_explored(self):
        def transitions(state):
            if state == 0:
                return [(1, 0.0), (2, 1.0)]
            return []

        chain = build_chain(0, transitions)
        assert 1 not in chain.states

    def test_self_transition_ignored(self):
        def transitions(state):
            if state == 0:
                return [(0, 5.0), (1, 1.0)]
            return []

        chain = build_chain(0, transitions)
        assert chain.rate(0, 1) == 1.0
        assert chain.rate_matrix.diagonal().sum() == 0.0

    def test_parallel_moves_summed(self):
        def transitions(state):
            if state == "a":
                return [("b", 1.0), ("b", 2.0)]
            return []

        chain = build_chain("a", transitions)
        assert chain.rate("a", "b") == 3.0

    def test_max_states_guard(self):
        def transitions(state):
            return [(state + 1, 1.0)]

        with pytest.raises(RuntimeError, match="max_states"):
            build_chain(0, transitions, max_states=100)

    def test_negative_rate_rejected(self):
        def transitions(state):
            return [(1, -1.0)] if state == 0 else []

        with pytest.raises(ValueError, match="negative rate"):
            build_chain(0, transitions)

    def test_initial_state_gets_full_mass(self):
        chain = build_chain("only", lambda s: [])
        assert chain.p0.tolist() == [1.0]


class _Ladder:
    """Frontier rule of the birth chain ``0 -> 1 -> 2 -> ...`` at ``rate``."""

    def __init__(self, rate=1.0):
        self.rate = rate

    def encode(self, state):
        return state

    def decode(self, keys):
        return keys.tolist()

    def expand(self, keys):
        return np.arange(keys.size), keys + 1, np.full(keys.size, self.rate)


def _chain_arrays(chain):
    rates = chain.rate_matrix
    return {
        "states": np.fromiter(chain.states, dtype=object, count=chain.num_states),
        "p0": chain.p0,
        "indptr": rates.indptr,
        "indices": rates.indices,
        "data": rates.data,
    }


class TestFrontierExploration:
    """The array-form exploration must return the per-state chain exactly:
    same state order, same initial vector, same CSR arrays bit for bit."""

    @pytest.mark.parametrize("n,k", [(18, 16), (15, 9), (36, 32), (36, 28)])
    @pytest.mark.parametrize("fail_rule", ["either", "both"])
    @pytest.mark.parametrize("scrub", [None, 900.0], ids=["no-scrub", "scrub"])
    @pytest.mark.parametrize(
        "seu,permanent",
        [(1e-3, 0.0), (0.0, 1e-3), (1e-3, 1e-4)],
        ids=["seu", "permanent", "seu+permanent"],
    )
    def test_duplex_matches_per_state_build(
        self, n, k, fail_rule, scrub, seu, permanent
    ):
        model = duplex_model(
            n,
            k,
            seu_per_bit_day=seu,
            erasure_per_symbol_day=permanent,
            scrub_period_seconds=scrub,
            fail_rule=fail_rule,
        )
        assert model.frontier_rule() is not None
        frontier = _chain_arrays(model.chain)
        per_state = _chain_arrays(
            build_chain(model.initial_state(), model.transitions)
        )
        for name, array in per_state.items():
            assert np.array_equal(frontier[name], array), name
        assert frontier["indices"].dtype == per_state["indices"].dtype
        labels = [s for s in model.chain.states if s != "FAIL"]
        assert all(type(c) is int for s in labels for c in s)

    def test_no_frontier_rule_when_keys_would_overflow(self):
        # (n + 1)^6 must stay below 2^62 for the int64 keys
        assert duplex_model(2100, 2090, m=12).frontier_rule() is None
        assert duplex_model(255, 223).frontier_rule() is not None

    def test_max_states_guard(self):
        model = duplex_model(
            36, 32, seu_per_bit_day=1e-3, erasure_per_symbol_day=1e-4
        )
        with pytest.raises(RuntimeError, match="max_states"):
            build_chain(
                model.initial_state(),
                model.transitions,
                max_states=100,
                frontier=model.frontier_rule(),
            )
        with pytest.raises(RuntimeError, match="max_states"):
            build_chain(0, None, max_states=100, frontier=_Ladder())

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative rate"):
            build_chain(0, None, frontier=_Ladder(rate=-1.0))

    def test_sink_keys_are_never_expanded(self):
        class Fork:
            """0 -> 1 and 0 -> sink; 1 -> sink; expanding the sink raises."""

            def encode(self, state):
                return -1 if state == "FAIL" else state

            def decode(self, keys):
                return ["FAIL" if key < 0 else key for key in keys.tolist()]

            def expand(self, keys):
                if (keys < 0).any():
                    raise AssertionError("sink expanded")
                parent = np.repeat(np.arange(keys.size), 2)
                root = keys[:, None] == 0
                target = np.where(root, [[1, -1]], [[-1, -1]])
                rate = np.where(root, [[2.0, 3.0]], [[5.0, 0.0]])
                return parent, target.ravel(), rate.ravel()

        chain = build_chain(0, None, frontier=Fork())
        assert chain.states == [0, 1, "FAIL"]
        assert chain.absorbing_states() == ["FAIL"]
        assert chain.rate(0, "FAIL") == 3.0
        assert chain.rate(1, "FAIL") == 5.0
