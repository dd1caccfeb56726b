"""Vectorized GF(2^m) arithmetic on numpy arrays.

:class:`BatchGF` lifts the table-driven field of :class:`~repro.gf.field.GF2m`
to whole ndarrays: multiplication, division, inversion and powering become a
handful of numpy gather operations over the shared exp/log tables, and
polynomial evaluation runs Horner's rule across an entire batch at once.
This is the arithmetic substrate of the batch RS codec
(:mod:`repro.rs.batch`) and the chunked Monte-Carlo engine.

Semantics match the scalar field element-for-element:

* ``mul``/``div``/``inv``/``pow`` agree with ``GF2m.mul``/``div``/``inv``/
  ``pow`` on every element pair (the property suite in
  ``tests/test_gf_batch_property.py`` sweeps the full field for small m);
* division by zero and inversion of zero raise :class:`ZeroDivisionError`
  if *any* element of the divisor array is zero, mirroring the scalar
  per-element contract;
* inputs follow normal numpy broadcasting, so ``(B, 1)`` against ``(n,)``
  works as expected, including empty (``B == 0``) batches.

Products are single gathers through *zero-sentinel* tables
(:attr:`BatchGF.zlog` / :attr:`BatchGF.zexp`): ``zlog[0]`` is a sentinel
so large that any index sum involving it lands in the all-zero tail of
``zexp``, so ``a * b == zexp[zlog[a] + zlog[b]]`` needs no zero mask.
The vectorized RS decoder (:mod:`repro.rs.batch_decode`) indexes these
tables directly, folding a quotient and a product into one gather.

Field/table construction is cached per ``(m, primitive_polynomial)`` via
:func:`batch_field`, so codecs, simulators and worker processes share one
table set per field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .field import GF2m

ArrayLike = Union[int, Sequence[int], np.ndarray]

#: dtype used for all internal table lookups; wide enough for m <= 16
#: symbol values and for summed log indices.
_DTYPE = np.int64


class BatchGF:
    """Vectorized arithmetic over GF(2^m), table-compatible with ``GF2m``.

    Parameters
    ----------
    m:
        Symbol width in bits.
    primitive_polynomial:
        Optional primitive polynomial override, forwarded to ``GF2m``
        (which validates primitivity while building the tables).
    gf:
        Optionally wrap an existing scalar field instance instead of
        constructing a new one; tables are shared, never rebuilt.
    """

    def __init__(
        self,
        m: int,
        primitive_polynomial: Optional[int] = None,
        gf: Optional[GF2m] = None,
    ):
        if gf is None:
            gf = GF2m(m, primitive_polynomial)
        elif gf.m != m:
            raise ValueError(f"supplied field GF(2^{gf.m}) does not match m={m}")
        self.gf = gf
        self.m = gf.m
        self.order = gf.order
        # _exp is already doubled in GF2m so summed logs need no modulo.
        self._exp = np.asarray(gf._exp, dtype=_DTYPE)
        self._log = np.asarray(gf._log, dtype=_DTYPE)
        q1 = self.order - 1
        #: Log of zero in :attr:`zlog`.  The longest nonzero chain in use,
        #: ``log a - log b + (q - 1) + log c`` (``a / b * c``), stays below
        #: it (``<= 3q - 5``).
        self.zero_log = 3 * q1
        #: ``zlog[a]`` is ``log(a)``, or :attr:`zero_log` for ``a == 0``.
        self.zlog = self._log.copy()
        self.zlog[0] = self.zero_log
        #: ``zexp[i]`` is ``alpha^i`` below :attr:`zero_log` and ``0`` from
        #: there on; long enough for any such chain with zeros in it.
        self.zexp = np.zeros(3 * self.zero_log + 1, dtype=_DTYPE)
        self.zexp[: self.zero_log] = np.tile(self._exp[:q1], 3)

    # -- coercion -----------------------------------------------------------

    def asarray(self, a: ArrayLike) -> np.ndarray:
        """Coerce to the internal integer dtype (no range check)."""
        return np.asarray(a, dtype=_DTYPE)

    def validate_elements(self, a: ArrayLike) -> np.ndarray:
        """Coerce and range-check an array of field elements.

        Non-integer arrays are rejected, not truncated: a float symbol
        such as ``1.7`` would otherwise be cast to ``1`` and silently
        encoded, where the scalar codec raises.
        """
        arr = np.asarray(a)
        if arr.size and arr.dtype.kind not in "iub":
            raise ValueError(
                f"GF(2^{self.m}) elements must be integers, got an array "
                f"of dtype {arr.dtype}"
            )
        arr = arr.astype(_DTYPE, copy=False)
        if arr.size and (arr.min() < 0 or arr.max() >= self.order):
            raise ValueError(
                f"array contains values outside GF(2^{self.m}) "
                f"[0, {self.order - 1}]"
            )
        return arr

    # -- elementwise field operations ---------------------------------------

    def add(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise field addition (XOR). Identical to :meth:`sub`."""
        return np.bitwise_xor(self.asarray(a), self.asarray(b))

    sub = add

    def mul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise field multiplication via the shared log/exp tables."""
        return self.zexp[self.zlog[self.asarray(a)] + self.zlog[self.asarray(b)]]

    def div(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise ``a / b``; any zero divisor raises ZeroDivisionError."""
        a = self.asarray(a)
        b = self.asarray(b)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^m)")
        quot = self._exp[self._log[a] - self._log[b] + (self.order - 1)]
        return np.where(a == 0, 0, quot)

    def inv(self, a: ArrayLike) -> np.ndarray:
        """Elementwise multiplicative inverse; zero raises ZeroDivisionError."""
        a = self.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(self.order - 1) - self._log[a]]

    def pow(self, a: ArrayLike, e: int) -> np.ndarray:
        """Raise every element of ``a`` to the integer power ``e``.

        Matches ``GF2m.pow`` elementwise: ``0**e == 0`` for positive ``e``,
        ``0**0 == 1``, and a negative power of zero raises
        :class:`ZeroDivisionError`.
        """
        a = self.asarray(a)
        e = int(e)
        zero = a == 0
        if e < 0 and np.any(zero):
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        idx = (self._log[a] * e) % (self.order - 1)
        out = self._exp[idx]
        if e == 0:
            return np.ones_like(a)
        return np.where(zero, 0, out)

    def exp(self, e: ArrayLike) -> np.ndarray:
        """``alpha^e`` for an array of integer exponents."""
        e = self.asarray(e)
        return self._exp[np.mod(e, self.order - 1)]

    def log(self, a: ArrayLike) -> np.ndarray:
        """Discrete log base alpha; any zero element raises ValueError."""
        a = self.asarray(a)
        if np.any(a == 0):
            raise ValueError("log(0) is undefined")
        return self._log[a]

    # -- polynomial evaluation ----------------------------------------------

    def poly_eval(self, coeffs: Sequence[int], x: ArrayLike) -> np.ndarray:
        """Evaluate one polynomial at an array of points (Horner).

        ``coeffs`` is an ascending-order coefficient list (the
        :mod:`repro.gf.poly` convention); ``x`` may be any shape.
        """
        log_x = self.zlog[self.asarray(x)]
        acc = np.zeros_like(log_x)
        for c in reversed(list(coeffs)):
            acc = self.zexp[self.zlog[acc] + log_x] ^ int(c)
        return acc

    def poly_eval_batch(
        self, coeff_rows: ArrayLike, x: ArrayLike
    ) -> np.ndarray:
        """Evaluate a batch of polynomials at a shared set of points.

        Parameters
        ----------
        coeff_rows:
            ``(B, L)`` matrix; row ``b`` holds the ascending-order
            coefficients of polynomial ``b``.
        x:
            ``(P,)`` evaluation points shared by every row.

        Returns
        -------
        ``(B, P)`` matrix of evaluations — for RS decoding, with
        ``x = [alpha^fcr, ..., alpha^(fcr+nsym-1)]``, this is the full
        syndrome matrix of a received batch in one call.
        """
        rows = self.asarray(coeff_rows)
        if rows.ndim != 2:
            raise ValueError(f"coeff_rows must be 2-D, got shape {rows.shape}")
        log_pts = self.zlog[self.asarray(x).reshape(1, -1)]
        acc = np.zeros((rows.shape[0], log_pts.size), dtype=_DTYPE)
        for j in range(rows.shape[1] - 1, -1, -1):
            acc = self.zexp[self.zlog[acc] + log_pts] ^ rows[:, j : j + 1]
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BatchGF) and other.gf == self.gf

    def __hash__(self) -> int:
        return hash(("BatchGF", self.gf))

    def __repr__(self) -> str:
        return f"BatchGF(m={self.m}, prim_poly={self.gf.prim_poly:#x})"


@lru_cache(maxsize=None)
def batch_field(m: int, primitive_polynomial: Optional[int] = None) -> BatchGF:
    """Cached :class:`BatchGF` per ``(m, primitive_polynomial)``.

    Table construction costs O(2^m) and validates primitivity, so every
    codec, simulator chunk and worker process should go through this
    cache rather than constructing fields ad hoc.
    """
    return BatchGF(m, primitive_polynomial)
