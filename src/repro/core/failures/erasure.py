"""Systematic Reed–Solomon erasure codes over GF(2^8).

``ReedSolomon(k, m)`` turns *k* data shards into *k + m* total shards
such that **any** *k* of them reconstruct the data — the scheme Carbink
(cited by §5) uses to mask far-memory failures without 2x replication
overhead.

Construction: the generator matrix is ``[I ; C]`` where ``C`` is an
``m x k`` Cauchy matrix ``C[j][i] = 1/(x_j ^ y_i)`` with the ``x`` and
``y`` element sets disjoint.  Every square submatrix of a Cauchy matrix
is nonsingular, so any *k* rows of ``[I ; C]`` are invertible — the
property decoding relies on.

Arithmetic is table-driven (log/antilog over the AES polynomial 0x11b)
and vectorized with numpy via a precomputed 256x256 multiplication
table, so encoding throughput is a few hundred MB/s in pure
Python+numpy — plenty for the simulator's functional data.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ConfigError, RecoveryError

_PRIMITIVE_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1 (the AES polynomial)
_GENERATOR = 0x03


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exp, log, mul) tables for GF(256)."""
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        # v *= generator (0x03)  ==  (v * 2) ^ v, reduced mod the polynomial
        doubled = value << 1
        if doubled & 0x100:
            doubled ^= _PRIMITIVE_POLY
        value = doubled ^ value
    exp[255:510] = exp[0:255]  # wraparound for cheap modular indexing

    mul = np.zeros((256, 256), dtype=np.uint8)
    a = np.arange(256)
    for i in range(1, 256):
        mul[i, 1:] = exp[(log[i] + log[a[1:]]) % 255]
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def gf_mul_bytes(scalar: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of *data* by *scalar* (vectorized)."""
    return _MUL[scalar & 0xFF][data]


def _gf_matrix_invert(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix by Gauss–Jordan elimination."""
    n = matrix.shape[0]
    work = matrix.astype(np.uint8).copy()
    inverse = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if work[row, col]:
                pivot = row
                break
        if pivot is None:
            raise RecoveryError("singular decode matrix (duplicate shards?)")
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inverse[[col, pivot]] = inverse[[pivot, col]]
        inv_p = gf_inv(int(work[col, col]))
        work[col] = gf_mul_bytes(inv_p, work[col])
        inverse[col] = gf_mul_bytes(inv_p, inverse[col])
        for row in range(n):
            if row != col and work[row, col]:
                factor = int(work[row, col])
                work[row] ^= gf_mul_bytes(factor, work[col])
                inverse[row] ^= gf_mul_bytes(factor, inverse[col])
    return inverse


class ReedSolomon:
    """A systematic RS(k, m) code: shards 0..k-1 are the data itself,
    shards k..k+m-1 are parity."""

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards < 1 or parity_shards < 0:
            raise ConfigError(
                f"need data_shards >= 1 and parity_shards >= 0, got "
                f"({data_shards}, {parity_shards})"
            )
        if data_shards + parity_shards > 256:
            raise ConfigError("GF(256) supports at most 256 total shards")
        self.k = data_shards
        self.m = parity_shards
        self._cauchy = self._build_cauchy(data_shards, parity_shards)

    @staticmethod
    def _build_cauchy(k: int, m: int) -> np.ndarray:
        """C[j][i] = 1/(x_j ^ y_i), x = {k..k+m-1}, y = {0..k-1}."""
        cauchy = np.zeros((m, k), dtype=np.uint8)
        for j in range(m):
            for i in range(k):
                cauchy[j, i] = gf_inv((k + j) ^ i)
        return cauchy

    # -- encode -------------------------------------------------------------

    def encode(self, data: bytes) -> list[bytes]:
        """Split *data* into k shards (zero-padded) and append m parity
        shards; returns k+m equal-length shards."""
        shard_len = -(-max(len(data), 1) // self.k)
        padded = np.zeros(shard_len * self.k, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        data_shards = padded.reshape(self.k, shard_len)
        parity = np.zeros((self.m, shard_len), dtype=np.uint8)
        for j in range(self.m):
            acc = parity[j]
            for i in range(self.k):
                acc ^= gf_mul_bytes(int(self._cauchy[j, i]), data_shards[i])
        return [bytes(s) for s in data_shards] + [bytes(p) for p in parity]

    # -- decode -------------------------------------------------------------

    def decode(self, shards: dict[int, bytes], data_len: int) -> bytes:
        """Reconstruct the original bytes from any k shards.

        *shards* maps shard index -> shard bytes; *data_len* is the
        original length (to strip padding).
        """
        if len(shards) < self.k:
            raise RecoveryError(
                f"RS({self.k},{self.m}) needs {self.k} shards, got {len(shards)} "
                f"— too many erasures to mask"
            )
        indices = sorted(shards)[: self.k]
        shard_len = len(shards[indices[0]])
        for idx in indices:
            if len(shards[idx]) != shard_len:
                raise RecoveryError("shard length mismatch")
            if not 0 <= idx < self.k + self.m:
                raise RecoveryError(f"shard index {idx} out of range")

        if indices == list(range(self.k)):
            # fast path: all data shards survived
            data = b"".join(shards[i] for i in range(self.k))
            return data[:data_len]

        # Build the k x k matrix whose rows generated the surviving shards.
        matrix = np.zeros((self.k, self.k), dtype=np.uint8)
        for row, idx in enumerate(indices):
            if idx < self.k:
                matrix[row, idx] = 1
            else:
                matrix[row] = self._cauchy[idx - self.k]
        inverse = _gf_matrix_invert(matrix)

        survivors = np.stack(
            [np.frombuffer(shards[idx], dtype=np.uint8) for idx in indices]
        )
        recovered = np.zeros((self.k, shard_len), dtype=np.uint8)
        for i in range(self.k):
            acc = recovered[i]
            for row in range(self.k):
                factor = int(inverse[i, row])
                if factor:
                    acc ^= gf_mul_bytes(factor, survivors[row])
        return bytes(recovered.reshape(-1))[:data_len]

    @functools.cached_property
    def storage_overhead(self) -> float:
        """Extra bytes stored per data byte (m/k) — vs 1.0 for mirroring."""
        return self.m / self.k
