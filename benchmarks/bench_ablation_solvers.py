"""Ablation: transient-solver accuracy and cost on the paper's chains.

Times uniformization (default), expm and RK45 on the scrubbed duplex
chain of Fig. 7 and checks their mutual agreement, plus the deep-tail
case where only uniformization and the closed form retain relative
accuracy (absolute-accuracy methods bottom out near 1e-16).
"""

import numpy as np
import pytest

from repro.analysis.tables import _render, format_ber
from repro.memory import duplex_model, simplex_model
from repro.memory.analytic import simplex_fail_probability

TIMES = np.linspace(0.0, 48.0, 13)


def make_model():
    return duplex_model(
        18, 16, seu_per_bit_day=1.7e-5, scrub_period_seconds=1800.0
    )


@pytest.mark.parametrize("method", ["uniformization", "expm", "ode"])
def test_solver_timing(benchmark, method):
    model = make_model()
    model.chain  # build outside the timed region
    result = benchmark(model.fail_probability, TIMES, method=method)
    reference = model.fail_probability(TIMES, method="uniformization")
    atol = 1e-12 if method == "expm" else 1e-9
    assert np.allclose(result, reference, atol=atol)


def test_deep_tail_solver_fidelity(benchmark, save_table):
    """Only positive-series methods resolve the Fig. 8-10 tails."""
    model = simplex_model(18, 16, erasure_per_symbol_day=1e-9)
    t = [24 * 730.0]
    exact = benchmark(simplex_fail_probability, model, t)[0]
    uni = model.fail_probability(t, method="uniformization")[0]
    exp = model.fail_probability(t, method="expm")[0]
    assert exact < 1e-15  # deep below expm's absolute floor
    assert uni == pytest.approx(exact, rel=1e-9, abs=0)
    rows = [
        ["closed form (reference)", format_ber(exact), "-"],
        ["uniformization", format_ber(uni), f"{abs(uni - exact) / exact:.1e}"],
        ["expm", format_ber(exp), f"{abs(exp - exact) / exact:.1e}"],
    ]
    save_table(
        "ablation_solvers",
        "Deep-tail fidelity: P_fail of simplex RS(18,16), "
        "lambda_e=1e-9/symbol/day, 24 months",
        _render(["solver", "P_fail", "relative error"], rows),
    )
