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
_POPULATION_HEADER = "ncs,top10"
_FLAG_TOKENS = {"0": False, "false": False, "1": True, "true": True}


@dataclass(frozen=True)
class RngStream:
    """A deterministic random stream keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int
    generator: np.random.Generator = field(repr=False, compare=False)


def _check_uint64(name: str, value):
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) <= _UINT64_MAX:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


def make_rng(master_seed: int, stream_id: int) -> RngStream:
    """Create the stream keyed by (master_seed, stream_id).

    The two 64-bit words form the Philox key, so any two distinct
    (master_seed, stream_id) pairs yield unrelated streams.
    """
    _check_uint64("master_seed", master_seed)
    _check_uint64("stream_id", stream_id)
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return RngStream(int(master_seed), int(stream_id), np.random.Generator(np.random.Philox(key=key)))


class Population:
    """An immutable finite population of publication records.

    Stores the per-record citation scores and top-10% flags as parallel
    read-only arrays; safe to share across threads and processes.
    """

    __slots__ = ("ncs", "top10")

    def __init__(self, ncs, top10):
        ncs = np.array(ncs, dtype=np.float64)
        top10 = np.array(top10, dtype=bool)
        if ncs.ndim != 1 or top10.ndim != 1 or ncs.size != top10.size:
            raise ValueError("ncs and top10 must be 1-d arrays of equal length")
        if ncs.size < 1:
            raise ValueError("population must contain at least one record")
        if not np.all(np.isfinite(ncs)) or np.any(ncs < 0):
            raise ValueError("all ncs values must be finite and >= 0")
        ncs.setflags(write=False)
        top10.setflags(write=False)
        self.ncs = ncs
        self.top10 = top10

    @property
    def size(self) -> int:
        return int(self.ncs.size)

    def __len__(self) -> int:
        return self.size


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
                raise ValueError(f"{path}:{lineno}: ncs must be finite and >= 0, got {parts[0]}")
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
        indices = np.array(indices, dtype=np.int64)
        ncs = np.array(ncs, dtype=np.float64)
        top10 = np.array(top10, dtype=bool)
        n = indices.size
        if n < 1:
            raise ValueError("sample must contain at least one record")
        if ncs.size != n or top10.size != n:
            raise ValueError("indices, ncs and top10 must have equal length")
        if n > population_size:
            raise ValueError(f"sample size {n} exceeds population size {population_size}")
        # sorted neighbours, not np.unique: its first call imports numpy.ma,
        # which every fresh process of a study would pay for
        srt = np.sort(indices)
        if np.any(srt[1:] == srt[:-1]):
            raise ValueError("sample indices must be pairwise distinct")
        if srt[0] < 0 or srt[-1] >= population_size:
            raise ValueError("sample indices out of population range")
        for arr in (indices, ncs, top10):
            arr.setflags(write=False)
        self.indices = indices
        self.ncs = ncs
        self.top10 = top10
        self.population_size = int(population_size)

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
    if not 1 <= n <= N:
        raise ValueError(f"sample size must satisfy 1 <= n <= {N}, got {n}")
    idx = np.sort(rng.generator.choice(N, n, replace=False, shuffle=False))
    return Sample(idx, pop.ncs[idx], pop.top10[idx], N)

