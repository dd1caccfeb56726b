"""Systematic Reed-Solomon encoder and errors-and-erasures decoder.

An RS(n, k) code over GF(2^m) encodes ``k`` data symbols into ``n``
codeword symbols and corrects any pattern with ``2*re + er <= n - k``
random errors ``re`` and erasures ``er`` (paper §2).  Codewords are lists
of ``n`` field elements in ascending polynomial order: position ``p`` is
the coefficient of ``x^p``; parity occupies positions ``0 .. n-k-1`` and
data occupies positions ``n-k .. n-1``.

The decoder implements the classical errors-and-erasures pipeline:
syndromes → Forney syndromes (erasures folded out) → Berlekamp-Massey →
Chien search → Forney magnitudes → verification re-encode.  Detected
failures raise :class:`RSDecodingError`; undetected miscorrections (the
paper's *mis-correction* events that drive the duplex arbiter design) are
possible exactly as in real hardware and are reported faithfully by the
verification step only when detectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..gf import GF2m, poly
from .berlekamp import berlekamp_massey
from .forney import chien_search, forney_magnitudes
from .syndromes import compute_syndromes, erasure_locator, forney_syndromes


class RSDecodingError(Exception):
    """Raised when the decoder detects an uncorrectable word."""


# Failure messages of :meth:`RSCode.decode`, in the order the decoder
# checks them.  The batch decoder formats the same templates, so its
# diagnostics are byte-identical to the scalar ones.
OVER_ERASED = "{rho} erasures exceed correction capability n-k={nsym}"
LOCATOR_DEGREE = (
    "error locator degree {num_errors} with {rho} erasures "
    "exceeds capability n-k={nsym}"
)
ROOT_COUNT = (
    "errata locator of degree {degree} has "
    "{roots} roots in the codeword: uncorrectable"
)
POST_SYNDROMES = "post-correction syndromes nonzero"


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a successful decode.

    Attributes
    ----------
    data: the recovered ``k`` data symbols.
    codeword: the full corrected ``n``-symbol codeword.
    num_errors: count of corrected unknown-position errors.
    num_erasures: count of corrected erasure positions (nonzero magnitude
        or not — all supplied erasure positions are counted).
    corrected: True if any symbol value actually changed (this is the
        "flag" the duplex arbiter of paper §3 inspects).
    error_positions: positions whose value was changed by the decoder.
    """

    data: List[int]
    codeword: List[int]
    num_errors: int
    num_erasures: int
    corrected: bool
    error_positions: List[int] = field(default_factory=list)


class RSCode:
    """A systematic RS(n, k) code over GF(2^m).

    Parameters
    ----------
    n: codeword length in symbols (``k < n <= 2^m - 1``).
    k: dataword length in symbols.
    m: symbol width in bits.  Defaults to 8 (byte-organised memories, the
        convention of the paper's companion works [6][7]); any ``m`` with
        ``n <= 2^m - 1`` is accepted.
    fcr: exponent of the first consecutive generator root (default 1).
    gf: optionally share a prebuilt field instance.
    """

    def __init__(
        self,
        n: int,
        k: int,
        m: int = 8,
        fcr: int = 1,
        gf: Optional[GF2m] = None,
        key_solver: str = "bm",
    ):
        if gf is None:
            gf = GF2m(m)
        elif gf.m != m:
            raise ValueError(f"supplied field GF(2^{gf.m}) does not match m={m}")
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got n={n}, k={k}")
        if n > gf.order - 1:
            raise ValueError(
                f"codeword length n={n} exceeds 2^m - 1 = {gf.order - 1}"
            )
        if key_solver not in ("bm", "euclid"):
            raise ValueError(
                f"key_solver must be 'bm' (Berlekamp-Massey) or 'euclid' "
                f"(Sugiyama), got {key_solver!r}"
            )
        self.n = n
        self.k = k
        self.m = m
        self.fcr = fcr
        self.gf = gf
        self.key_solver = key_solver
        self.nsym = n - k
        #: maximum random errors correctable with no erasures, t = (n-k)/2
        self.t = self.nsym // 2
        self.generator = self._build_generator()

    def _build_generator(self) -> List[int]:
        """Generator ``g(x) = prod_{i=fcr}^{fcr+nsym-1} (x - alpha^i)``."""
        g: List[int] = [1]
        for i in range(self.fcr, self.fcr + self.nsym):
            g = poly.mul(self.gf, g, [self.gf.exp(i), 1])
        return g

    # -- capability ---------------------------------------------------------

    def within_capability(self, num_erasures: int, num_errors: int) -> bool:
        """Paper §2: correctable iff ``2*re + er <= n - k``."""
        return 2 * num_errors + num_erasures <= self.nsym

    # -- encoding -------------------------------------------------------

    def encode(self, data: Sequence[int]) -> List[int]:
        """Systematically encode ``k`` data symbols into an ``n``-symbol codeword.

        The codeword is ``d(x) * x^{n-k} + (d(x) * x^{n-k} mod g(x))``:
        data lands unchanged in positions ``n-k ..``, parity in ``0 .. n-k-1``.
        """
        data = list(data)
        if len(data) != self.k:
            raise ValueError(f"expected {self.k} data symbols, got {len(data)}")
        for s in data:
            self.gf.validate_element(s)
        shifted = poly.mul_by_xn(data, self.nsym)
        remainder = poly.mod(self.gf, shifted, self.generator)
        parity = (remainder + [0] * self.nsym)[: self.nsym]
        return parity + data

    def extract_data(self, codeword: Sequence[int]) -> List[int]:
        """Return the data symbols of a (corrected) codeword."""
        return list(codeword[self.nsym :])

    def is_codeword(self, word: Sequence[int]) -> bool:
        """True if every syndrome of ``word`` is zero."""
        return all(
            s == 0 for s in compute_syndromes(self.gf, word, self.nsym, self.fcr)
        )

    # -- decoding -------------------------------------------------------

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Sequence[int] = (),
    ) -> DecodeResult:
        """Correct ``received`` given known erasure positions.

        Raises
        ------
        RSDecodingError
            when the word is detectably uncorrectable: too many erasures,
            locator degree/roots mismatch, or nonzero post-correction
            syndromes.
        """
        received = list(received)
        if len(received) != self.n:
            raise ValueError(f"expected {self.n} symbols, got {len(received)}")
        erasure_positions = sorted(set(erasure_positions))
        if any(not 0 <= p < self.n for p in erasure_positions):
            raise ValueError("erasure position out of range")
        rho = len(erasure_positions)
        if rho > self.nsym:
            raise RSDecodingError(OVER_ERASED.format(rho=rho, nsym=self.nsym))

        syndromes = compute_syndromes(self.gf, received, self.nsym, self.fcr)
        if all(s == 0 for s in syndromes):
            # Already a codeword; erased positions happened to hold correct
            # values (zero errata magnitude).
            return DecodeResult(
                data=self.extract_data(received),
                codeword=received,
                num_errors=0,
                num_erasures=rho,
                corrected=False,
            )

        # Fold erasures out, find the unknown-error locator, recombine.
        t_synd = forney_syndromes(self.gf, syndromes, erasure_positions)
        lam = self._solve_key_equation(t_synd)
        num_errors = poly.degree(lam)
        if 2 * num_errors + rho > self.nsym:
            raise RSDecodingError(
                LOCATOR_DEGREE.format(
                    num_errors=num_errors, rho=rho, nsym=self.nsym
                )
            )
        gamma = erasure_locator(self.gf, erasure_positions)
        psi = poly.mul(self.gf, lam, gamma)

        positions = chien_search(self.gf, psi, self.n)
        if len(positions) != poly.degree(psi):
            raise RSDecodingError(
                ROOT_COUNT.format(
                    degree=poly.degree(psi), roots=len(positions)
                )
            )

        try:
            magnitudes = forney_magnitudes(
                self.gf, syndromes, psi, positions, self.fcr
            )
        except ZeroDivisionError as exc:
            raise RSDecodingError(str(exc)) from exc

        corrected = list(received)
        changed = []
        for p, mag in zip(positions, magnitudes):
            if mag != 0:
                corrected[p] ^= mag
                changed.append(p)

        if not self.is_codeword(corrected):
            raise RSDecodingError(POST_SYNDROMES)

        return DecodeResult(
            data=self.extract_data(corrected),
            codeword=corrected,
            num_errors=num_errors,
            num_erasures=rho,
            corrected=bool(changed),
            error_positions=changed,
        )

    def _solve_key_equation(self, t_synd):
        """Locator of the unknown errors, via the configured solver."""
        if self.key_solver == "bm":
            return berlekamp_massey(self.gf, t_synd)
        from .euclid import euclid_key_equation

        try:
            locator, _evaluator = euclid_key_equation(
                self.gf, t_synd, len(t_synd)
            )
        except ZeroDivisionError as exc:
            raise RSDecodingError(str(exc)) from exc
        return locator

    def __repr__(self) -> str:
        return f"RSCode(n={self.n}, k={self.k}, m={self.m}, fcr={self.fcr})"
