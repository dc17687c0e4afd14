"""Seeded random streams and finite-population sampling primitives.

Randomness is organized around explicit streams: a (master_seed, stream_id)
pair keys a Philox counter-based generator, so distinct stream ids give
statistically independent streams with no shared state and the same pair
reproduces the same draws on every run, platform, and thread count. An
SRSWOR sample is one draw of numpy's without-replacement sampler
(``Generator.choice``) from its stream.

A population lives on disk as a CSV with header ``ncs,top10`` and one
``score,flag`` row per record.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PopulationParseError

_UINT64_MAX = 2**64 - 1
_INT64_MAX = 2**63 - 1
_POPULATION_HEADER = "ncs,top10"
_FLAG_TOKENS = {"0": False, "false": False, "1": True, "true": True}


@dataclass(frozen=True)
class RngStream:
    """A deterministic random stream keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int
    # a string, so that defining the class leaves numpy.random unloaded
    generator: "np.random.Generator" = field(repr=False, compare=False)


# The three argument rules: every count, level and finite value the API
# takes is checked by one of them, so a bad argument is a ValueError that
# names it, raised before the first draw.


def _count(name: str, value, lo: int = 0, hi: int | None = None) -> int:
    """``value`` as an ``int``: an int or numpy integer, not a bool, in [lo, hi] (no upper bound if hi is None)."""
    # a bool is an int, but True is not a count
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not whole or int(value) < lo or (hi is not None and int(value) > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {'2**64 - 1' if hi == _UINT64_MAX else hi}]"
        raise ValueError(f"{name} must be a whole number {span}, got {value!r}")
    return int(value)


def _level(level) -> None:
    """A confidence level: a number in (0, 1)."""
    if not (isinstance(level, (int, float, np.integer, np.floating)) and 0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")


def _finite(name: str, values, nonnegative: bool = True) -> np.ndarray:
    """``values`` as a float64 array (the input itself if it is one), each a finite number >= 0.

    Strings and bools are not numbers. ``nonnegative=False`` lets negative values through.
    """
    arr = np.asarray(values)
    numeric = arr.dtype.kind in "iuf"
    if numeric and np.isfinite(arr).all() and not (nonnegative and (arr < 0).any()):
        return arr.astype(np.float64, copy=False)
    flat = arr.reshape(-1)
    bad = flat[~np.isfinite(flat) | (nonnegative & (flat < 0))] if numeric else flat
    raise _not_finite(name, (bad[:1].tolist() or [arr.dtype])[0], nonnegative)


def _number(name: str, value, nonnegative: bool = True) -> float:
    """``value`` as a ``float``: one number (0-d, not a sequence) by ``_finite``'s rule."""
    if np.ndim(value):
        raise _not_finite(name, value, nonnegative)
    return float(_finite(name, value, nonnegative))


def _not_finite(name: str, got, nonnegative: bool) -> ValueError:
    return ValueError(f"{name} must be {'a finite number >= 0' if nonnegative else 'a finite number'}, got {got!r}")


def make_rng(master_seed: int, stream_id: int) -> RngStream:
    """Create the stream keyed by (master_seed, stream_id).

    The two 64-bit words form the Philox key, so any two distinct
    (master_seed, stream_id) pairs yield unrelated streams.
    """
    master_seed = _count("master_seed", master_seed, hi=_UINT64_MAX)
    stream_id = _count("stream_id", stream_id, hi=_UINT64_MAX)
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return RngStream(master_seed, stream_id, np.random.Generator(np.random.Philox(key=key)))


def _flags(top10) -> np.ndarray:
    """A fresh bool array of top-10% flags, each a bool or a number equal to 0 or 1."""
    arr = np.asarray(top10)
    # a bool array passes on its dtype, with no pass over its values
    if arr.dtype != bool and (arr.dtype.kind not in "iuf" or not np.all((arr == 0) | (arr == 1))):
        raise ValueError("top10 flags must be bools or 0/1")
    return arr.astype(bool)


def _records(ncs, top10, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of the scores and flags of a ``what``, checked as outside input.

    Both 1-d, of one length, with at least one record; scores by ``_finite``.
    """
    # a copy, since it is made read-only below
    scores = _finite("each ncs value", np.array(ncs))
    flags = _flags(top10)
    if scores.ndim != 1 or flags.ndim != 1 or scores.size != flags.size:
        raise ValueError("ncs and top10 must be 1-d arrays of equal length")
    if scores.size < 1:
        raise ValueError(f"{what} must contain at least one record")
    scores.setflags(write=False)
    flags.setflags(write=False)
    return scores, flags


class Population:
    """An immutable finite population of publication records.

    Stores the per-record citation scores and top-10% flags as parallel
    read-only arrays; safe to share across threads and processes.
    """

    __slots__ = ("ncs", "top10")

    def __init__(self, ncs, top10):
        self.ncs, self.top10 = _records(ncs, top10, "population")

    def __reduce__(self):
        # an unpickled copy goes through the checks above and is read-only too
        return (Population, (self.ncs, self.top10))

    @property
    def size(self) -> int:
        return int(self.ncs.size)


def load_population(path) -> Population:
    """Read a population CSV (header ``ncs,top10``; rows: score, 0/1 flag)."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports often write
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = fh.readline().strip()
        if header != _POPULATION_HEADER:
            raise PopulationParseError(
                f"{path}:1: expected header {_POPULATION_HEADER!r}, got {header!r}"
            )
        ncs = []
        top10 = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise PopulationParseError(f"{path}:{lineno}: expected two comma-separated fields")
            try:
                score = float(parts[0])
            except ValueError:
                raise PopulationParseError(f"{path}:{lineno}: bad ncs value {parts[0]!r}") from None
            flag = _FLAG_TOKENS.get(parts[1].strip().lower())
            if flag is None:
                raise PopulationParseError(f"{path}:{lineno}: bad top10 flag {parts[1]!r}")
            if not math.isfinite(score) or score < 0:
                raise ValueError(f"{path}:{lineno}: ncs must be a finite number >= 0, got {parts[0]}")
            ncs.append(score)
            top10.append(flag)
    if not ncs:
        raise ValueError(f"{path}: population file contains no records")
    return Population(ncs, top10)


def write_population(pop: Population, path):
    """Write a population CSV with full-precision scores."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_POPULATION_HEADER + "\n")
        for score, flag in zip(pop.ncs, pop.top10):
            fh.write(f"{float(score)!r},{1 if flag else 0}\n")


class Sample:
    """A without-replacement sample of a :class:`Population`.

    ``indices`` are the distinct population positions (reported in
    population order), ``ncs``/``top10`` the corresponding record values,
    and ``f = n / population_size`` the sampling fraction.
    """

    __slots__ = ("indices", "ncs", "top10", "population_size")

    def __init__(self, indices, ncs, top10, population_size: int):
        population_size = _count("population_size", population_size, hi=_UINT64_MAX)
        self.ncs, self.top10 = _records(ncs, top10, "sample")
        # bools, floats, strings and values past int64 are not positions
        if (indices := np.asarray(indices)).dtype.kind not in "iu":
            raise ValueError(f"sample indices must be integers, got dtype {indices.dtype}")
        # checked before the int64 cast, which would wrap 2**63 to -2**63
        if indices.dtype.kind == "u" and (past := indices[indices > _INT64_MAX]).size:
            raise ValueError(f"sample indices must fit in int64 (at most 2**63 - 1), got {past[0]}")
        indices = indices.astype(np.int64)
        n = indices.size
        if indices.ndim != 1 or n != self.ncs.size:
            raise ValueError("indices, ncs and top10 must be 1-d arrays of equal length")
        if n > population_size:
            raise ValueError(f"sample size {n} exceeds population size {population_size}")
        # sorted neighbours, not np.unique: its first call imports numpy.ma,
        # which every fresh process of a study would pay for
        srt = np.sort(indices)
        if np.any(srt[1:] == srt[:-1]):
            raise ValueError("sample indices must be pairwise distinct")
        if srt[0] < 0 or srt[-1] >= population_size:
            raise ValueError("sample indices out of population range")
        indices.setflags(write=False)
        self.indices = indices
        self.population_size = population_size

    @property
    def n(self) -> int:
        return int(self.indices.size)

    @property
    def f(self) -> float:
        return self.n / self.population_size


def srswor(pop: Population, n: int, rng: RngStream) -> Sample:
    """Simple random sample without replacement: every size-n subset equally likely.

    The draw is numpy's ``Generator.choice(replace=False)``, which runs in
    C (Floyd's algorithm, or a partial shuffle of a large population).
    Indices are reported sorted in population order (the draw is uniform
    over subsets, so the ordering carries no information; keeping
    population order makes the census case n = N reproduce the population
    arrays bit for bit).
    """
    N = pop.size
    n = _count("n", n, 1, N)
    idx = np.sort(rng.generator.choice(N, n, replace=False, shuffle=False))
    return Sample(idx, pop.ncs[idx], pop.top10[idx], N)

