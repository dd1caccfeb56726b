"""Property tests: vectorized GF(2^m) agrees elementwise with the scalar field.

Exhaustive sweeps over every element pair for small m, plus
hypothesis-driven (falling back to seeded-random when hypothesis is not
installed) batches for GF(256), plus shape/broadcasting edge cases —
empty batches, B=1, scalars against vectors.  The zero-sentinel tables
the RS decoder gathers from are also checked against the table-free
reference multiplier of :mod:`repro.verify.oracles`.
"""

import numpy as np
import pytest

from repro.gf import GF2m, batch_field
from repro.gf.batch import BatchGF
from repro.verify.oracles import gf_mul_reference, gf_pow_reference

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False


SMALL_MS = [2, 3, 4]
ALL_MS = [2, 3, 4, 8]


@pytest.fixture(params=ALL_MS, ids=lambda m: f"GF(2^{m})")
def fields(request):
    m = request.param
    return GF2m(m), batch_field(m)


def full_pair_grid(order):
    a, b = np.meshgrid(np.arange(order), np.arange(order), indexing="ij")
    return a.ravel(), b.ravel()


class TestExhaustiveAgreement:
    """Every (a, b) pair of the full field, for every m <= 8."""

    @pytest.mark.parametrize("m", ALL_MS)
    def test_mul_agrees_on_full_field(self, m):
        gf, bgf = GF2m(m), batch_field(m)
        a, b = full_pair_grid(gf.order)
        got = bgf.mul(a, b)
        expected = np.array(
            [gf.mul(int(x), int(y)) for x, y in zip(a, b)]
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("m", ALL_MS)
    def test_div_agrees_on_full_field_nonzero_divisors(self, m):
        gf, bgf = GF2m(m), batch_field(m)
        a, b = full_pair_grid(gf.order)
        mask = b != 0
        a, b = a[mask], b[mask]
        got = bgf.div(a, b)
        expected = np.array(
            [gf.div(int(x), int(y)) for x, y in zip(a, b)]
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("m", ALL_MS)
    def test_inv_agrees_on_full_multiplicative_group(self, m):
        gf, bgf = GF2m(m), batch_field(m)
        a = np.arange(1, gf.order)
        np.testing.assert_array_equal(
            bgf.inv(a), np.array([gf.inv(int(x)) for x in a])
        )

    @pytest.mark.parametrize("m", SMALL_MS)
    @pytest.mark.parametrize("e", [-3, -1, 0, 1, 2, 5, 255])
    def test_pow_agrees_on_full_field(self, m, e):
        gf, bgf = GF2m(m), batch_field(m)
        lo = 1 if e < 0 else 0
        a = np.arange(lo, gf.order)
        np.testing.assert_array_equal(
            bgf.pow(a, e), np.array([gf.pow(int(x), e) for x in a])
        )

    @pytest.mark.parametrize("m", SMALL_MS)
    def test_poly_eval_agrees_on_full_field(self, m):
        from repro.gf import poly

        gf, bgf = GF2m(m), batch_field(m)
        rng = np.random.default_rng(m)
        coeffs = [int(c) for c in rng.integers(0, gf.order, size=6)]
        x = np.arange(gf.order)
        np.testing.assert_array_equal(
            bgf.poly_eval(coeffs, x),
            np.array([poly.eval_at(gf, coeffs, int(v)) for v in x]),
        )


#: Fields checked against the table-free reference multiplier: every
#: width above, and GF(2^8) under a non-default primitive polynomial.
REFERENCE_FIELDS = [(m, None) for m in ALL_MS] + [(8, 0x12B)]


def field_id(field):
    m, prim = field
    return f"GF(2^{m})" if prim is None else f"GF(2^{m})/{prim:#x}"


class TestSentinelTablesAgainstReference:
    """The zero-sentinel gathers the RS decoder indexes directly.

    The agreement tests above compare ``BatchGF`` with ``GF2m``, which
    builds the exp/log tables both of them read.  Here the gathers are
    compared with :func:`~repro.verify.oracles.gf_mul_reference`, a
    carry-less multiplier that uses no tables at all.
    """

    @pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=field_id)
    def test_product_gather(self, field):
        m, prim = field
        bgf = batch_field(m, prim)
        a, b = full_pair_grid(bgf.order)
        got = bgf.zexp[bgf.zlog[a] + bgf.zlog[b]]
        expected = [
            gf_mul_reference(m, int(x), int(y), prim) for x, y in zip(a, b)
        ]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=field_id)
    def test_quotient_product_chain(self, field):
        """``zexp[zlog[a] - zlog[b] + (q - 1) + zlog[c]]`` is ``a / b * c``.

        The decoder folds a division and a product into this one gather;
        a zero ``a`` or ``c`` must land in the all-zero tail of ``zexp``.
        Every triple for small m, a seeded sample with zeros for m = 8.
        """
        m, prim = field
        bgf = batch_field(m, prim)
        order = bgf.order
        if m <= 4:
            a, b, c = (
                grid.ravel()
                for grid in np.meshgrid(
                    np.arange(order),
                    np.arange(1, order),
                    np.arange(order),
                    indexing="ij",
                )
            )
        else:
            rng = np.random.default_rng(m)
            a = rng.integers(0, order, size=4096)
            b = rng.integers(1, order, size=4096)
            c = rng.integers(0, order, size=4096)
            a[:64] = 0
            c[32:96] = 0  # rows 32..63 have both a and c zero
        got = bgf.zexp[bgf.zlog[a] - bgf.zlog[b] + (order - 1) + bgf.zlog[c]]
        expected = [
            gf_mul_reference(
                m,
                gf_mul_reference(
                    m, int(x), gf_pow_reference(m, int(y), order - 2, prim), prim
                ),
                int(z),
                prim,
            )
            for x, y, z in zip(a, b, c)
        ]
        np.testing.assert_array_equal(got, expected)


if HAVE_HYPOTHESIS:

    class TestHypothesisGF256:
        @settings(max_examples=50, deadline=None)
        @given(
            st.lists(
                st.tuples(
                    st.integers(0, 255), st.integers(0, 255)
                ),
                min_size=1,
                max_size=64,
            )
        )
        def test_mul_matches_scalar(self, pairs):
            gf, bgf = GF2m(8), batch_field(8)
            a = np.array([p[0] for p in pairs])
            b = np.array([p[1] for p in pairs])
            expected = [gf.mul(int(x), int(y)) for x, y in zip(a, b)]
            assert bgf.mul(a, b).tolist() == expected

        @settings(max_examples=50, deadline=None)
        @given(
            st.lists(
                st.tuples(
                    st.integers(0, 255), st.integers(1, 255)
                ),
                min_size=1,
                max_size=64,
            )
        )
        def test_div_mul_roundtrip(self, pairs):
            bgf = batch_field(8)
            a = np.array([p[0] for p in pairs])
            b = np.array([p[1] for p in pairs])
            assert bgf.mul(bgf.div(a, b), b).tolist() == a.tolist()

else:  # pragma: no cover - exercised only without hypothesis

    class TestSeededRandomGF256:
        def test_mul_matches_scalar(self):
            gf, bgf = GF2m(8), batch_field(8)
            rng = np.random.default_rng(2005)
            a = rng.integers(0, 256, size=4096)
            b = rng.integers(0, 256, size=4096)
            expected = [gf.mul(int(x), int(y)) for x, y in zip(a, b)]
            assert bgf.mul(a, b).tolist() == expected

        def test_div_mul_roundtrip(self):
            bgf = batch_field(8)
            rng = np.random.default_rng(2006)
            a = rng.integers(0, 256, size=4096)
            b = rng.integers(1, 256, size=4096)
            assert bgf.mul(bgf.div(a, b), b).tolist() == a.tolist()


class TestShapesAndBroadcasting:
    def test_empty_batch(self, fields):
        _, bgf = fields
        empty = np.zeros(0, dtype=int)
        assert bgf.mul(empty, empty).shape == (0,)
        assert bgf.add(empty, empty).shape == (0,)
        assert bgf.pow(empty, 3).shape == (0,)
        assert bgf.poly_eval([1, 2], empty).shape == (0,)
        assert bgf.poly_eval_batch(
            np.zeros((0, 4), dtype=int), [1, 2]
        ).shape == (0, 2)

    def test_single_element_batch(self, fields):
        gf, bgf = fields
        a = np.array([3 % gf.order])
        b = np.array([2])
        assert bgf.mul(a, b).tolist() == [gf.mul(int(a[0]), 2)]

    def test_broadcasting_column_against_row(self, fields):
        gf, bgf = fields
        col = np.arange(gf.order).reshape(-1, 1)
        row = np.arange(gf.order).reshape(1, -1)
        table = bgf.mul(col, row)
        assert table.shape == (gf.order, gf.order)
        assert table[3 % gf.order, 2] == gf.mul(3 % gf.order, 2)

    def test_python_scalars_accepted(self, fields):
        gf, bgf = fields
        assert int(bgf.mul(3 % gf.order, 2)) == gf.mul(3 % gf.order, 2)

    def test_poly_eval_batch_is_syndrome_shaped(self):
        bgf = batch_field(8)
        rows = np.random.default_rng(1).integers(0, 256, size=(5, 18))
        points = [bgf.gf.exp(1 + j) for j in range(2)]
        out = bgf.poly_eval_batch(rows, points)
        assert out.shape == (5, 2)

    def test_poly_eval_batch_rejects_non_2d(self):
        bgf = batch_field(8)
        with pytest.raises(ValueError, match="2-D"):
            bgf.poly_eval_batch(np.zeros(4, dtype=int), [1])


class TestErrorContract:
    def test_div_by_zero_raises(self, fields):
        _, bgf = fields
        with pytest.raises(ZeroDivisionError):
            bgf.div(np.array([1, 2]), np.array([1, 0]))

    def test_inv_of_zero_raises(self, fields):
        _, bgf = fields
        with pytest.raises(ZeroDivisionError):
            bgf.inv(np.array([0, 1]))

    def test_negative_power_of_zero_raises(self, fields):
        _, bgf = fields
        with pytest.raises(ZeroDivisionError):
            bgf.pow(np.array([0]), -1)

    def test_log_of_zero_raises(self, fields):
        _, bgf = fields
        with pytest.raises(ValueError):
            bgf.log(np.array([0]))

    def test_validate_elements_rejects_out_of_range(self, fields):
        gf, bgf = fields
        with pytest.raises(ValueError, match="outside"):
            bgf.validate_elements(np.array([gf.order]))
        with pytest.raises(ValueError, match="outside"):
            bgf.validate_elements(np.array([-1]))

    def test_mismatched_field_wrap_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            BatchGF(4, gf=GF2m(8))


class TestCaching:
    def test_batch_field_is_cached(self):
        assert batch_field(8) is batch_field(8)
        assert batch_field(4) is not batch_field(8)

    def test_cached_field_equals_fresh(self):
        assert batch_field(5) == BatchGF(5)
        assert hash(batch_field(5)) == hash(BatchGF(5))

    def test_tables_shared_with_scalar_field(self):
        gf = GF2m(6)
        bgf = BatchGF(6, gf=gf)
        assert bgf.gf is gf
        np.testing.assert_array_equal(bgf._exp, np.asarray(gf._exp))
