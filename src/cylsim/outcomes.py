"""Outcome tables: the sampler's count tables and the oracle's exact
distributions.

An OutcomeTable maps outcome bitstrings, position v holding vertex v's bit,
to values, and stores them as two arrays: rows, the distinct outcomes as
packed-bit rows (np.packbits, one void scalar of ceil(n/8) bytes a row) in
ascending order, and mass, their values.  Packed rows sort bytewise, so the
order of rows is the order of the bitstrings, and keys iterate sorted.  The
strings are built once, on the first string access (a lookup, iteration or
a view); code that compares tables (oracle.normalize_counts,
oracle.tv_distance) reads the arrays alone.  A plain mapping of bitstrings
becomes a table by as_table.

This module alone packs, sorts and merges rows: total sums tables over the
union of their outcomes, the sampler's blocks' counts and the TV distance's p
and -q alike.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np


def _pack(bits: np.ndarray) -> np.ndarray:
    """Outcome bits (k, n) as k packed-bit void scalars of ceil(n/8) bytes."""
    packed = np.ascontiguousarray(np.packbits(bits, axis=1))
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """The bytes of k packed-bit rows as a (k, ceil(n/8)) uint8 view."""
    return rows.view(np.uint8).reshape(len(rows), rows.dtype.itemsize)


def _summed(n: int, rows: np.ndarray, mass: np.ndarray) -> OutcomeTable:
    """Table of packed-bit rows, in any order and possibly repeated, each
    distinct row with the sum of its values in the order they come.  A stable
    lexsort over the byte columns is far faster than numpy's sort of void
    scalars; a row that occurs once keeps its value bit for bit."""
    order = np.lexsort(_row_bytes(rows).T[::-1])
    rows, mass = rows[order], mass[order]
    start = np.flatnonzero(np.r_[len(rows) > 0, rows[1:] != rows[:-1]])  # where runs begin
    return OutcomeTable(n, rows[start], np.add.reduceat(mass, start))


class OutcomeTable(Mapping):
    """Read-only bitstring -> value mapping over n-bit outcomes: rows are the
    sorted, distinct packed-bit outcomes and mass their values."""

    def __init__(self, n: int, rows: np.ndarray, mass: np.ndarray):
        rows.flags.writeable = mass.flags.writeable = False
        self.n, self.rows, self.mass = n, rows, mass
        self._strings = None

    @classmethod
    def from_bits(cls, bits: np.ndarray, mass: np.ndarray) -> OutcomeTable:
        """Table of distinct outcome rows bits (k, n), in any order, and their values."""
        return _summed(bits.shape[1], _pack(bits), mass)

    @classmethod
    def counted(cls, bits: np.ndarray) -> OutcomeTable:
        """Table of the distinct outcome rows of bits (k, n) and their counts.
        It keeps np.unique, slower than _summed's lexsort: bench/run.py holds
        every sample-long pass's tables until it reads peak_rss_mb, so a
        faster tally makes more passes and reads as a memory regression."""
        rows, counts = np.unique(_pack(bits), return_counts=True)
        return cls(bits.shape[1], rows, counts)

    def as_dict(self) -> dict:
        """The bitstring -> value dict, built on the first call."""
        if self._strings is None:
            n = self.n
            bits = np.unpackbits(_row_bytes(self.rows), axis=1)[:, :n]
            text = (bits + ord("0")).tobytes().decode("ascii")
            self._strings = {text[i * n:(i + 1) * n]: x for i, x in enumerate(self.mass.tolist())}
        return self._strings

    def __getitem__(self, key):
        return self.as_dict()[key]

    def __iter__(self):
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, OutcomeTable):
            return (self.n == other.n and np.array_equal(self.rows, other.rows)
                    and np.array_equal(self.mass, other.mass))
        return Mapping.__eq__(self, other)

    def __neg__(self) -> OutcomeTable:
        return OutcomeTable(self.n, self.rows, -self.mass)

    def __repr__(self) -> str:
        return f"OutcomeTable({self.as_dict()!r})"


def as_table(table: Mapping) -> OutcomeTable:
    """table itself if it is an OutcomeTable, else the table of a mapping whose
    keys are bitstrings of '0' and '1', all of one length."""
    if isinstance(table, OutcomeTable):
        return table
    keys = list(table)
    n = len(keys[0]) if keys else 0
    text = "".join(keys)
    if not set(text) <= {"0", "1"} or any(len(k) != n for k in keys) or (keys and not n):
        raise ValueError("outcome keys must be nonempty bitstrings of one length")
    bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(keys), n) - ord("0")
    return OutcomeTable.from_bits(bits, np.array([table[k] for k in keys]))


def total(n: int, tables) -> OutcomeTable:
    """Table of n-bit outcomes summing tables over the union of their
    outcomes, each outcome's values in table order.  Empty tables add
    nothing, and no tables give an empty table of int64 counts."""
    empty = OutcomeTable(n, _pack(np.zeros((0, n), np.uint8)), np.zeros(0, np.int64))
    tables = [t for t in tables if len(t)] or [empty]
    rows = np.concatenate([t.rows for t in tables])
    return _summed(n, rows, np.concatenate([t.mass for t in tables]))
