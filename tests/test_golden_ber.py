"""Golden-vector regression: pinned BER values for the paper's figures.

The Fig. 5 (simplex, SEU sweep) and Fig. 6 (duplex, SEU sweep) horizon
BERs are the anchor points of the reproduction — every curve the repo
publishes flows through the same models and solvers.  These values were
produced by the seed-state solvers and are pinned to a tight relative
tolerance so that codec, solver or batching refactors cannot silently
shift the paper curves.  Beyond those anchors, every grid point of every
curve of Figs. 5-10 is pinned from ``tests/vectors/ber_golden.json``
(``tests/vectors/make_ber_golden.py``).  A deliberate modelling change
that moves them must update the goldens *in the same change* and say
why.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import ALL_FIGURES, fig5_simplex_seu, fig6_duplex_seu

# Curve labels are the swept SEU rates (errors/bit/day); values are
# BER(48 h) from the seed-state analytic solvers.
GOLDEN_FIG5 = {
    "7.3E-07": 2.0869783174725508e-08,
    "3.6E-06": 5.072762901311551e-07,
    "1.7E-05": 1.1283695342864154e-05,
}

GOLDEN_FIG6 = {
    "7.3E-07": 4.1739565913903167e-08,
    "3.6E-06": 1.0145523229330757e-06,
    "1.7E-05": 2.2567263363947718e-05,
}

#: Relative tolerance: generous enough for BLAS/ordering noise across
#: platforms, far tighter than any physically meaningful curve shift.
RTOL = 1e-9

#: Every curve of Figs. 5-10 at its default 25-point grid.
GOLDEN_ARRAYS = json.loads(
    (Path(__file__).resolve().parent / "vectors" / "ber_golden.json").read_text()
)["figures"]


@pytest.mark.parametrize(
    "build,golden",
    [(fig5_simplex_seu, GOLDEN_FIG5), (fig6_duplex_seu, GOLDEN_FIG6)],
    ids=["fig5", "fig6"],
)
class TestGoldenBER:
    def test_final_bers_match_golden(self, build, golden):
        result = build(points=5)
        finals = result.final_ber_map()
        assert set(finals) == set(golden), "curve labels changed"
        for label, expected in golden.items():
            # abs=0: approx's default 1e-12 floor would swamp RTOL here
            assert finals[label] == pytest.approx(expected, rel=RTOL, abs=0), (
                f"{result.experiment_id} curve {label}: "
                f"{finals[label]!r} drifted from golden {expected!r}"
            )

    def test_goldens_are_grid_invariant(self, build, golden):
        """The horizon BER must not depend on the time-grid resolution."""
        coarse = build(points=3).final_ber_map()
        fine = build(points=9).final_ber_map()
        for label in golden:
            assert coarse[label] == pytest.approx(fine[label], rel=1e-6, abs=0)


@pytest.mark.parametrize("fig_id", sorted(ALL_FIGURES))
def test_every_curve_matches_golden_array(fig_id):
    golden = GOLDEN_ARRAYS[fig_id]
    result = ALL_FIGURES[fig_id]()
    assert [c.label for c in result.curves] == list(golden["curves"])
    for curve in result.curves:
        np.testing.assert_array_equal(curve.times_hours, golden["times_hours"])
        np.testing.assert_allclose(
            curve.ber,
            golden["curves"][curve.label],
            rtol=RTOL,
            atol=0.0,
            err_msg=f"{fig_id} curve {curve.label}",
        )


def test_golden_arrays_cover_every_figure():
    assert sorted(GOLDEN_ARRAYS) == sorted(ALL_FIGURES)
    curves = [ber for fig in GOLDEN_ARRAYS.values() for ber in fig["curves"].values()]
    assert len(curves) == 31 and all(len(ber) == 25 for ber in curves)
