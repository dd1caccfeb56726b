"""Vectorized errors-and-erasures decoding of a batch of dirty RS words.

:class:`ErrataDecoder` runs the decoder of :meth:`repro.rs.codec.RSCode.decode`
— erasure locator and Forney syndromes, Berlekamp-Massey, Chien search,
Forney magnitudes, post-correction syndrome check — on a whole ``(D, n)``
batch at once, one numpy operation per stage step instead of one Python
loop per word:

* **Erasures.**  The erasure locator ``Gamma(x)`` and the modified
  syndromes ``Xi(x) = Gamma(x) S(x) mod x^(n-k)`` grow together, one
  factor ``(1 + alpha^p x)`` per erasure slot: at most ``max rho``
  steps, none when no row has erasures.  Row ``i`` then runs
  Berlekamp-Massey on ``T = Xi[rho_i:]``.
* **Berlekamp-Massey** takes ``n - k`` fixed steps.  A row whose ``T``
  is shorter (``rho > 0``) stops updating once it is used up, which is
  exactly where the scalar loop ends.
* **Chien and Forney.**  ``Psi = Lambda Gamma`` (again one step per
  erasure slot) is evaluated at every ``alpha^-p``, ``p < n``, in one
  Horner pass; its formal derivative and the evaluator
  ``Omega = S Psi mod x^(n-k)`` only at the roots found, as a flat
  list of ``(row, position)`` pairs.  Temporaries are ``O(D n)`` plus
  one ``(D, n-k, n-k)`` Toeplitz product for ``Omega``.
* **Check.**  By linearity the corrected word is a codeword iff the
  syndromes of the errata pattern, summed over the roots, equal those
  of the received word.

Every product goes through the zero-sentinel log tables of
:class:`~repro.gf.batch.BatchGF`, so the arithmetic is exact and each
row's outcome — corrected word, error count, or the *first* failure the
scalar decoder would raise, with the numbers its message needs — is
identical to :class:`~repro.rs.codec.RSCode`'s, which remains the oracle
(``tests/test_batch_differential.py``, the backend conformance suite and
the ``rs-batch-scalar`` fuzz target).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..gf.batch import BatchGF

#: Per-row failure codes, in the order the scalar decoder checks them.
OK, OVER_ERASED, LOCATOR_DEGREE, ROOT_COUNT, DERIVATIVE_ZERO, POST_SYNDROMES = (
    range(6)
)


@dataclass
class ErrataDecode:
    """Per-row outcome of :meth:`ErrataDecoder.decode` (all ``(D, ...)``)."""

    #: the errata of rows that decoded: row index, position, magnitude
    #: (nonzero magnitudes only), rows ascending, positions ascending
    errata: Tuple[np.ndarray, np.ndarray, np.ndarray]
    #: degree of the error locator Lambda
    num_errors: np.ndarray
    #: failure code (:data:`OK` .. :data:`POST_SYNDROMES`)
    fail: np.ndarray
    #: Chien roots of Psi among the ``n`` positions
    num_roots: np.ndarray
    #: first root where Psi' vanishes (meaningful for DERIVATIVE_ZERO)
    zero_position: np.ndarray


class ErrataDecoder:
    """Batch errors-and-erasures decoder for one RS(n, k) code."""

    def __init__(self, bgf: BatchGF, n: int, nsym: int, fcr: int):
        self.bgf = bgf
        self.n = n
        self.nsym = nsym
        q1 = bgf.order - 1
        p = np.arange(n)
        #: log alpha^-p, the Chien evaluation points
        self._chien_log = (-p) % q1
        #: q - 1 + log alpha^(p (1 - fcr)): the division offset and the
        #: Forney factor X^(1 - fcr) in one
        self._forney_log = q1 + (p * (1 - fcr)) % q1
        #: ``synd_log[j, p]`` is log alpha^((fcr + j) p): the log factor
        #: taking a symbol at position p into syndrome j
        self.synd_log = ((fcr + np.arange(nsym))[:, None] * p) % q1
        #: index into [Z]*nsym + log S giving S_{j-i} (zero for i > j)
        j = np.arange(nsym)
        self._toeplitz = nsym + j[:, None] - j[None, :]

    def decode(
        self,
        received: np.ndarray,
        syndromes: np.ndarray,
        rho: np.ndarray,
        erasures: np.ndarray,
    ) -> ErrataDecode:
        """Decode ``(D, n)`` words with nonzero syndromes.

        ``rho`` holds each row's erasure count (at most ``n - k``) and
        ``erasures`` its sorted positions in the first ``rho`` columns of
        a ``(D, max rho)`` table.
        """
        zexp, zlog, zero = self.bgf.zexp, self.bgf.zlog, self.bgf.zero_log
        q1 = self.bgf.order - 1
        nsym = self.nsym
        D = received.shape[0]
        W = nsym + 1
        # [Z]*nsym + log S: left-padded so that windows and the Toeplitz
        # gather read log 0 before S_0.
        log_s = np.concatenate(
            [np.full((D, nsym), zero, dtype=np.int64), zlog[syndromes]], 1
        )

        # -- Gamma and the Forney syndromes, one erasure slot per step.
        # log alpha^p of every erasure slot; unused slots multiply by 1.
        slot_log = np.where(
            np.arange(erasures.shape[1]) < rho[:, None], erasures, zero
        )
        if slot_log.shape[1]:
            gx = np.zeros((D, 2, W), dtype=np.int64)
            gx[:, 0, 0] = 1
            gx[:, 1, :nsym] = syndromes
            for col in slot_log.T:
                gx[:, :, 1:] ^= zexp[zlog[gx[:, :, :-1]] + col[:, None, None]]
            xi = np.concatenate([gx[:, 1, :nsym], np.zeros_like(syndromes)], 1)
            t_synd = np.take_along_axis(xi, np.arange(nsym) + rho[:, None], 1)
            log_t = np.concatenate([log_s[:, :nsym], zlog[t_synd]], 1)
            # Row i's T is used up after nsym - rho[i] steps.
            spent = np.arange(nsym) >= nsym - rho[:, None]
        else:
            t_synd, log_t, spent = syndromes, log_s, None

        # -- Berlekamp-Massey, nsym steps with per-row masks.  bx is
        # x^shift * B(x) of the scalar loop: shifted once every step and
        # reset to x * Lambda on a length change; a shift is a view one
        # column further left in a zero-padded buffer.  Step 0 starts
        # from Lambda = B = 1, L = 0, so it only records T_0.
        d = t_synd[:, 0].copy()
        if spent is not None:
            d[spent[:, 0]] = 0
        change = d != 0
        lam = np.zeros((D, W), dtype=np.int64)
        lam[:, 0] = 1
        lam[:, 1] = d
        length = change.astype(np.int64)
        log_b = np.where(change, zlog[d], 0)
        buf = np.zeros((D, nsym + W), dtype=np.int64)
        buf[:, nsym] = change
        buf[:, nsym + 1] = ~change
        for r in range(1, nsym):
            bx = buf[:, nsym - r : nsym - r + W]
            d = np.bitwise_xor.reduce(
                zexp[zlog[lam] + log_t[:, r : r + W][:, ::-1]], axis=1
            )
            if spent is not None:
                d[spent[:, r]] = 0
            log_d = zlog[d]
            if r == nsym - 1:  # last step: only Lambda is still needed
                lam ^= zexp[(log_d - log_b + q1)[:, None] + zlog[bx]]
                break
            change = (d != 0) & (length <= r // 2)
            base = np.where(change[:, None], lam, bx)
            lam ^= zexp[(log_d - log_b + q1)[:, None] + zlog[bx]]
            length = np.where(change, r + 1 - length, length)
            log_b = np.where(change, log_d, log_b)
            buf[:, nsym - r : nsym - r + W] = base
        num_errors = W - 1 - np.argmax(lam[:, ::-1] != 0, axis=1)

        # -- Psi = Lambda * Gamma, one erasure slot per step.
        psi = lam
        for col in slot_log.T:
            psi[:, 1:] ^= zexp[zlog[psi[:, :-1]] + col[:, None]]

        # -- Chien: Psi at every position, one Horner pass.
        psi_at = psi[:, W - 1 :]
        for j in range(W - 2, -1, -1):
            psi_at = zexp[zlog[psi_at] + self._chien_log] ^ psi[:, j : j + 1]
        roots = psi_at == 0
        num_roots = np.add.reduce(roots, axis=1)
        fail = np.where(
            2 * num_errors + rho > nsym,
            LOCATOR_DEGREE,
            np.where(num_roots != num_errors + rho, ROOT_COUNT, OK),
        )
        # Roots as (row, position) pairs, row-major: positions ascend
        # within a row, as in the scalar Chien search.
        row, pos = np.nonzero(roots)

        # -- Forney at the roots: Omega = S * Psi mod x^nsym (one Toeplitz
        # product) and Psi', which keeps Psi's odd coefficients
        # (characteristic 2), by Horner at each root's alpha^-p.
        polys = np.zeros((2, D, W), dtype=np.int64)
        polys[0, :, :nsym] = np.bitwise_xor.reduce(
            zexp[log_s[:, self._toeplitz] + zlog[psi[:, None, :nsym]]], axis=2
        )
        polys[1, :, :nsym:2] = psi[:, 1::2]
        polys = polys[:, row]
        x_log = self._chien_log[pos]
        acc = polys[:, :, W - 1]
        for j in range(W - 2, -1, -1):
            acc = zexp[zlog[acc] + x_log] ^ polys[:, :, j]
        omega_at, dpsi_at = acc

        zero_position = np.zeros(D, dtype=np.int64)
        zero_den = dpsi_at == 0
        if zero_den.any():
            zero_position[:] = self.n
            np.minimum.at(zero_position, row[zero_den], pos[zero_den])
            fail[(fail == OK) & (zero_position < self.n)] = DERIVATIVE_ZERO
        # A zero Psi' makes the index below negative; it then reads an
        # arbitrary table entry, but only in rows failed just above.
        magnitude = zexp[
            zlog[omega_at] - zlog[dpsi_at] + self._forney_log[pos]
        ]

        # -- The corrected word is a codeword iff S(errata) == S(received).
        keep = fail[row] == OK
        row, pos, magnitude = row[keep], pos[keep], magnitude[keep]
        errata_synd = np.zeros_like(syndromes)
        np.bitwise_xor.at(
            errata_synd,
            row,
            zexp[zlog[magnitude][:, None] + self.synd_log[:, pos].T],
        )
        post_bad = (fail == OK) & (errata_synd != syndromes).any(axis=1)
        fail[post_bad] = POST_SYNDROMES
        keep = (fail[row] == OK) & (magnitude != 0)
        return ErrataDecode(
            errata=(row[keep], pos[keep], magnitude[keep]),
            num_errors=num_errors,
            fail=fail,
            num_roots=num_roots,
            zero_position=zero_position,
        )
