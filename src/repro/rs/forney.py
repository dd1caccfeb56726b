"""Chien search and the Forney error-magnitude algorithm.

Once the errata locator ``Psi(x)`` (errors times erasures) is known, the
errata *positions* are the codeword indices ``p`` with
``Psi(alpha^{-p}) = 0`` (Chien search) and the errata *magnitudes* follow
from Forney's formula

    Y_l = X_l^{1 - fcr} * Omega(X_l^{-1}) / Psi'(X_l^{-1})

with ``X_l = alpha^{p_l}`` and the evaluator
``Omega(x) = S(x) * Psi(x) mod x^{nsym}``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..gf import GF2m, poly

#: Message of the zero-derivative failure (shared with the batch decoder).
DERIVATIVE_ZERO = (
    "locator derivative vanishes at position {position}; "
    "inconsistent errata locator"
)


def chien_search(gf: GF2m, locator: Sequence[int], n: int) -> List[int]:
    """Return codeword positions ``p < n`` where the locator has a root.

    A position ``p`` is an errata location iff ``alpha^{-p}`` is a root of
    the locator.  For shortened codes (``n < 2^m - 1``) only positions below
    ``n`` are meaningful; roots pointing outside the codeword indicate a
    decoding failure, which the caller detects by comparing the number of
    found positions against the locator degree.
    """
    positions = []
    for p in range(n):
        if poly.eval_at(gf, locator, gf.exp(-p)) == 0:
            positions.append(p)
    return positions


def error_evaluator(
    gf: GF2m, syndromes: Sequence[int], locator: Sequence[int]
) -> List[int]:
    """Compute ``Omega(x) = S(x) * Psi(x) mod x^{nsym}``."""
    nsym = len(syndromes)
    omega = poly.mul(gf, list(syndromes), locator)
    return poly.normalize((omega + [0] * nsym)[:nsym])


def forney_magnitudes(
    gf: GF2m,
    syndromes: Sequence[int],
    locator: Sequence[int],
    positions: Sequence[int],
    fcr: int = 1,
) -> List[int]:
    """Return the errata magnitude for each position in ``positions``.

    Raises ZeroDivisionError if the locator derivative vanishes at a root,
    which indicates an inconsistent locator (treated as decoding failure by
    the caller).
    """
    omega = error_evaluator(gf, syndromes, locator)
    dpsi = poly.derivative(gf, locator)
    magnitudes = []
    for p in positions:
        x_inv = gf.exp(-p)
        num = poly.eval_at(gf, omega, x_inv)
        den = poly.eval_at(gf, dpsi, x_inv)
        if den == 0:
            raise ZeroDivisionError(DERIVATIVE_ZERO.format(position=p))
        mag = gf.div(num, den)
        if fcr != 1:
            mag = gf.mul(mag, gf.pow(gf.exp(p), 1 - fcr))
        magnitudes.append(mag)
    return magnitudes
