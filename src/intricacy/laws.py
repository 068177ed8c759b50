"""Exact entropy, marginals, mutual information and entropy profiles for
finite systems of discrete random variables.

A system is a probability law on the configuration space {0,...,d-1}^N.
Coordinate 1 is the most significant digit base d in the dense (mixed-radix)
indexing; bit i of a subset mask corresponds to coordinate i+1.  Entropies
are in nats; "normalized" quantities divide by N*log(d).
"""
from __future__ import annotations

import json
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .rng import SplitMix64

MASS_TOL = 1e-9
# Rounding error of numpy's pairwise sum over a normalized table, with room.
SUM_ROUNDING = 64 * np.finfo(float).eps
# Largest N whose 2^N subset entropies are computed exhaustively (32 MB).
SUBSET_CAP = 22
# Slack of EntropyProfile.validate's membership checks.
PROFILE_TOL = 1e-9
# Below every positive float: log(max(p, _SMALLEST)) is log p for p > 0.
_SMALLEST = np.finfo(float).smallest_subnormal
# Symbols are stored as uint8.
MAX_D = 256
# Sparse law files are read about this many characters at a time.
_READ_BLOCK = 1 << 16
# The longest repr of a float, '-2.2250738585072014e-308'.
_MASS_WIDTH = 24
# Cells of the largest sub-lattice evaluated in whole-array passes: 128 KB
# of floats, so a block's few arrays stay in cache.
_LATTICE_BLOCK = 1 << 14
# Keys of the largest row block the sort path sorts at once: a block's
# temporaries take ~30 bytes a key, so ~2 MB, one core's L2 cache.
_SORT_BLOCK = 1 << 16
_SUPPORT_HEAD = re.compile(r'\{"d": (\d{1,3}), "N": (\d{1,9}), "support": \[')


class LawValidationError(ValueError):
    """Malformed probability law (negative mass, mass far from 1, ...)."""


class CapExceededError(RuntimeError):
    """An exhaustive-enumeration cap would be exceeded."""


def full_mask(N: int) -> int:
    return (1 << N) - 1


def mask_to_indices(mask: int, N: int) -> list[int]:
    """0-based coordinate indices of a subset mask."""
    if mask < 0 or mask >> N:
        raise IndexError(f"mask {mask:#x} references coordinates >= N={N}")
    return [i for i in range(N) if (mask >> i) & 1]


def indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _group_rows(rows: np.ndarray, weights: np.ndarray,
                d: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (n, N) uint8 array of symbols in 0..d-1, in
    lexicographic order, coordinate 1 first, and the summed weight of each,
    grouped by the rows' packed words (:func:`_key_words`)."""
    # reversed columns put coordinate 1 in the top bits of the last word,
    # lexsort's primary key; the sort is stable, so sums keep row order
    words = _key_words(rows[:, ::-1], d, *_key_layout(d, rows.shape[1], 1))
    order = np.lexsort(words)
    starts = np.zeros(len(rows), dtype=bool)
    starts[0] = True
    for w in words[:, order]:
        starts[1:] |= w[1:] != w[:-1]
    firsts = np.flatnonzero(starts)
    return rows[order[firsts]], np.add.reduceat(weights[order], firsts)


def _rows_increase(rows: np.ndarray) -> bool:
    """Whether the rows of a C-ordered (n, N) uint8 array are strictly
    increasing in lexicographic order, coordinate 1 first, so that
    :func:`_group_rows` would leave them as they are.  Each row is compared
    as one string of N bytes, and numpy compares bytes unsigned."""
    n, N = rows.shape
    if N == 0:
        return n <= 1
    text = rows.view(f"S{N}").ravel()
    return bool(np.all(text[1:] > text[:-1]))


@dataclass(frozen=True)
class SystemLaw:
    """Probability measure on {0,...,d-1}^N, held as its nonzero support:
    ``configs`` (distinct rows in lexicographic order, coordinate 1 first)
    and their weights ``probs``.  The sort-path keys of the support, or of
    its draws and their table of -p log p terms when its masses are counts
    (see :func:`subset_entropies`), are built on first use and kept with
    the law, read-only, so every later kernel call and worker shares them.
    Its 2^N subset entropies (:func:`all_subset_entropies`) are kept the
    same way, so every exact route shares one kernel run.

    ``kind`` only names the law-file format :meth:`to_json` writes: "dense"
    (the flat table of d^N probabilities in mixed-radix order) or "sparse"
    (the support rows with their weights).
    """

    d: int
    N: int
    kind: str
    configs: np.ndarray
    probs: np.ndarray

    @staticmethod
    def dense(d: int, N: int, table) -> "SystemLaw":
        """Law of a flat d^N table in mixed-radix order (coordinate 1 most
        significant); only its nonzero cells are kept."""
        _check_sizes(d, N)
        table = np.asarray(table, dtype=float).ravel()
        # d >= 2 gives d^N > size once N > bits(size): rejected before d**N
        # is formed, as that power grows without bound in N
        if N > table.size.bit_length() or table.size != d**N:
            raise LawValidationError(
                f"dense table must have d^N entries for d={d}, N={N}, "
                f"got {table.size}")
        table = _normalized(table)
        # nonzero cells in C order: lexicographic, coordinate 1 first.  Their
        # flat indices are decoded one uint8 column at a time, last
        # coordinate first (the inverse of _scatter's Horner loop), so no
        # (support, N) int64 array is made
        idx = np.flatnonzero(table)
        configs = np.empty((idx.size, N), dtype=np.uint8)
        for i in reversed(range(N)):
            configs[:, i] = idx % d
            idx //= d
        return _support_law(d, N, "dense", configs, table[table > 0])

    @staticmethod
    def sparse(d: int, N: int, configs, probs) -> "SystemLaw":
        """Law on the given support rows, stored in lexicographic order,
        coordinate 1 first (the order of law files), without its zero-mass
        rows.  A repeated row, or a symbol that is not an integer in
        0..d-1, raises :class:`LawValidationError`."""
        _check_sizes(d, N)
        probs = np.asarray(probs, dtype=float).ravel()
        configs = np.asarray(configs)
        kind = configs.dtype.kind
        # checked before the uint8 cast, which would wrap -255 or 257 to 1
        if configs.size and not (kind in "buif" and configs.min() >= 0
                                 and configs.max() < d and
                                 (kind != "f" or np.all(configs % 1 == 0))):
            raise LawValidationError(
                f"configuration symbols must be integers in 0..{d - 1}")
        configs = configs.astype(np.uint8, order="C").reshape(probs.size, N)
        probs = _normalized(probs)
        # rows already in file order are kept as they are given
        if _rows_increase(configs):
            return _support_law(d, N, "sparse", configs, probs)
        rows, weights = _group_rows(configs, probs, d)
        if weights.size != probs.size:
            raise LawValidationError("sparse support has duplicate configurations")
        return _support_law(d, N, "sparse", rows, weights)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero support as (configurations, weights)."""
        return self.configs, self.probs

    @property
    def support_size(self) -> int:
        return self.probs.size

    @property
    def table(self) -> np.ndarray | None:
        """The flat d^N table of a dense law, built from its support; None
        for a sparse law."""
        return _scatter(self) if self.kind == "dense" else None

    @cached_property
    def _keys(self) -> np.ndarray:
        """Read-only (w, support) array of the support's key words, in the
        word type and coordinate bounds of :func:`_key_layout`."""
        word, bounds = _key_layout(self.d, self.N, self.support_size)
        keys = _key_words(self.configs, self.d, word, bounds)
        keys.setflags(write=False)
        return keys

    @cached_property
    def _draws(self) -> np.ndarray | None:
        """The count route's keys, or None for a law that takes the
        weighted route (see :func:`subset_entropies`).

        A law whose every mass is c_i / T, for integers c_i >= 1 and one
        total T, is the empirical measure of T draws.  When ``C / T`` equals
        ``probs`` bit for bit, T <= 2 * support and a key of b*N bits, b =
        bits(d - 1), fits one 64-bit word, this is a read-only (1, T) array:
        each support point's one-word key (uint32 up to 32 bits) repeated
        c_i times.  T is read off the lightest mass as 1/T, in lowest
        terms; that misses no law within the bound, as every c_i >= 2 in
        lowest terms would make T > 2 * support.  Beside it, ``_terms``
        holds the route's T + 1 values of -p log p, p = c / T, at most
        twice these keys' bytes.  Built on first use by the sort path
        only."""
        b, n = (self.d - 1).bit_length(), self.support_size
        lightest = self.probs.min()
        # T <= 2 * support, checked on the lightest mass (>= 1/T) before
        # 1/lightest is formed, so subnormal masses cannot overflow it.
        # A construction's T/support is ~1.58 at M = N, nearer 1 below.  On 2
        # cores, against the weighted route, the count route took 0.55-0.9x
        # at T/support = 2 on (2,16), (3,12) and (2,22) supports and 1.35x
        # on a (2,12) one of 2600 points; at 4 it took 1.0-2.4x
        if b * self.N > 64 or lightest * (2 * n) < 1.0:
            return None
        total = round(1.0 / lightest)
        counts = np.rint(self.probs * total)
        if not np.array_equal(counts / total, self.probs):
            return None
        word = np.uint32 if b * self.N <= 32 else np.uint64
        keys = np.repeat(_key_words(self.configs, self.d, word, [0, self.N]),
                         counts.astype(np.intp), axis=1)
        keys.setflags(write=False)
        return keys

    @cached_property
    def _terms(self) -> np.ndarray:
        """The count route's table: read-only ``terms[c]`` = -p log p of a
        group of c of the law's T draws, p = c / T, for c = 0..T (0.0 at c
        = 0, which no group has), so a group's term is looked up by its run
        length.  Each entry is taken by the two float operations the route
        would apply to the group, ``p = c / T`` and ``p * -log(p)``, so
        every term keeps its bits; the c = T entry is -0.0.  T + 1 floats,
        2 KB at T = 256 and 512 KB at T = 65,536: never more than twice
        the bytes of ``_draws``, as T <= 2 * support.  Built on first use
        by the count route only."""
        T = self._draws.shape[1]
        terms = np.zeros(T + 1)
        p = np.divide(np.arange(1, T + 1), T, out=terms[1:])
        p *= -np.log(p)
        terms.setflags(write=False)
        return terms

    @cached_property
    def _entropies(self) -> np.ndarray:
        """Read-only H(X_S) for every mask S, indexed by mask: the lattice
        path when (d+1)^N <= 2^N * support, the sort path otherwise (see
        :func:`all_subset_entropies`, which gives each path's memory and
        summation order).  Built on first use and held for the law's
        lifetime (2^N floats: 32 KB at N=12, 32 MB at N=22).  A law
        and its arrays are frozen, and ``replace``, :func:`marginal` and the
        transforms build new laws, so the array cannot go stale.  Raises
        :class:`CapExceededError`, and caches nothing, when N >
        ``SUBSET_CAP``."""
        _check_subset_cap(self.N)
        if (self.d + 1) ** self.N <= (1 << self.N) * self.support_size:
            H = _lattice_entropies(self)
        else:
            H = _sorted_entropies(self)
        H.setflags(write=False)
        return H

    # --- serialization (file contract) ---------------------------------

    def to_json_dict(self) -> dict:
        """The parsed law file: ``json.loads`` of :meth:`to_json`."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The law file's text, as ``json.dumps`` writes it.  A dense law
        is ``{"d", "N", "dense": [d^N floats]}``; a sparse one is ``{"d",
        "N", "support": [{"config": [symbols], "p": mass}, ...]}``, written
        straight from ``configs`` and ``probs`` (see :func:`_support_text`)
        with the same bytes as ``json.dumps`` of those entry dicts."""
        if self.kind == "dense":
            return json.dumps({"d": self.d, "N": self.N,
                               "dense": self.table.tolist()})
        head = f'{{"d": {self.d}, "N": {self.N}, "support": ['.encode()
        body = _support_text(self.d, self.configs, self.probs)
        return b"".join([head, *body, b"]}"]).decode("ascii")

    @staticmethod
    def from_json_dict(obj: dict) -> "SystemLaw":
        """Law from a parsed law file (``json.loads`` of its text); raises
        :class:`LawValidationError` for any malformed input.  Symbols,
        masses and dense cells must be JSON numbers: a string, boolean,
        null or list, which numpy would read as a number or flatten, is
        rejected, and each configuration must be a list of N of them."""
        try:
            d, N = _integer(obj["d"], "d"), _integer(obj["N"], "N")
            if "dense" in obj:
                return SystemLaw.dense(d, N, _numbers(obj["dense"], "dense cells"))
            entries = obj["support"]
            configs = [e["config"] for e in entries]
            if not all(isinstance(c, list) and len(c) == N for c in configs):
                raise LawValidationError(
                    f"each configuration must be a list of N={N} symbols")
            symbols = _numbers([s for c in configs for s in c],
                               "configuration symbols")
            probs = _numbers([e["p"] for e in entries], "probability masses")
        except (KeyError, TypeError) as exc:
            raise LawValidationError("malformed law JSON: needs d, N and a "
                                     f"'dense' or 'support' field ({exc!r})") from None
        return SystemLaw.sparse(d, N, np.array(symbols).reshape(len(configs), N),
                                probs)

    @staticmethod
    def from_json(text: str) -> "SystemLaw":
        """Law from a law file's text; raises :class:`LawValidationError`
        for any malformed law, and ``json.JSONDecodeError`` for text that
        is not JSON.

        A sparse file in the layout :meth:`to_json` writes (optionally
        followed by one newline) is read by :func:`_read_support` without
        ``json``, about 64 KB of text at a time.  Every other text, and a
        file in which any block would not be written back byte for byte,
        goes through ``json.loads`` and :meth:`from_json_dict`.  Both routes
        end in :meth:`sparse` (or :meth:`dense`), so they give the same law,
        or the same error, for every text."""
        support = _read_support(text)
        if support is None:
            return SystemLaw.from_json_dict(json.loads(text))
        return SystemLaw.sparse(*support)


def _numbers(values: list, what: str) -> list:
    """``values`` as given, when each of them is a JSON number; else
    :class:`LawValidationError`."""
    bad = set(map(type, values)) - {int, float}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise LawValidationError(f"{what} must be numbers, got {names}")
    return values


def _read_support(text: str) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """``(d, N, configs, probs)`` of a sparse law file in the exact layout
    :meth:`SystemLaw.to_json` writes, optionally followed by one newline,
    or None for any other text.

    The support list is cut into blocks of about ``_READ_BLOCK``
    characters, each ending at an entry's ``}, {``, and each block is parsed
    by :func:`_parse_entries`.  A block is kept only if
    :func:`_support_text` writes its symbols and masses back to exactly its
    bytes, so every value read is the one ``json`` would read; any other
    block gives None.  No Python object is built per entry, and the text is
    never copied whole: each block's rows go into arrays of its own, which
    its own length bounds, and these are joined once at the end.  The law
    itself is checked by the caller."""
    if not (isinstance(text, str) and text.isascii()):
        return None
    head = _SUPPORT_HEAD.match(text)
    if head is None:
        return None
    d, N = int(head[1]), int(head[2])
    stop = len(text) - (text.endswith("\n") + 2)
    if (head[0] != f'{{"d": {d}, "N": {N}, "support": ['
            or not text.startswith("]}", stop) or not 2 <= d <= MAX_D
            or head.end() >= stop):
        return None
    configs, probs = [], []
    start = head.end()
    while start < stop:
        cut = text.find("}, {", min(start + _READ_BLOCK, stop), stop)
        end = stop if cut < 0 else cut + 1
        block = text[start:end].encode("ascii")
        entries = _parse_entries(block, d, N)
        if entries is None or b"".join(_support_text(d, *entries)) != block:
            return None
        configs.append(entries[0])
        probs.append(entries[1])
        start = end + len(", ")
    return d, N, np.concatenate(configs), np.concatenate(probs)


def _parse_entries(block: bytes, d: int, N: int
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """Symbols (uint8, one row per entry) and masses of a run of sparse
    law-file entries, read where :func:`_support_text` puts them, or None
    where the block cannot be such a run.  The caller checks that the
    values write back to ``block``.

    A mass is the text between ``], "p": `` and ``}``, taken as a
    zero-padded field of fixed width; each distinct field goes through
    ``float`` once.  A symbol is a run of 1 to 3 digits (d <= 256) ending
    before a ``,`` or ``]``."""
    # zero bytes before the block, and room after it for the widest field
    b = np.zeros(len(block) + _MASS_WIDTH + 4, dtype=np.uint8)
    b[3:len(block) + 3] = np.frombuffer(block, np.uint8)
    closes = np.flatnonzero(b == ord("]"))
    ends = np.flatnonzero(b == ord("}"))
    k = ends.size
    if not 0 < k == closes.size:
        return None
    first = closes + len('], "p": ')
    width = ends - first
    if width.min() < 1 or width.max() > _MASS_WIDTH:
        return None
    cols = np.arange(width.max())
    fields = b[first[:, None] + cols]
    fields[cols >= width[:, None]] = 0
    texts, which = np.unique(fields.view(f"S{cols.size}").ravel(),
                             return_inverse=True)
    try:
        values = np.array([float(t) for t in texts.tolist()])
    except ValueError:
        return None
    # a symbol is the 1 to 3 digits before a "," or "]"; no mass has either
    digit = (b - np.uint8(ord("0"))) <= 9
    last = np.flatnonzero(digit[:-1] & ((b[1:] == ord(",")) | (b[1:] == ord("]"))))
    if last.size != k * N:
        return None
    symbols = np.zeros(last.size, dtype=np.int16)
    run = np.ones(last.size, dtype=bool)    # digits from last - i to last
    for i in range(3):
        run &= digit[last - i]
        symbols += np.where(run, b[last - i] - np.int16(ord("0")), 0) * np.int16(10**i)
    if np.any(run & digit[last - 3]) or (symbols.size and symbols.max() >= d):
        return None
    return symbols.astype(np.uint8).reshape(k, N), values[which.ravel()]


def _text_table(texts: list[str]) -> np.ndarray:
    """One row per text: its ASCII bytes, zero bytes after."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


def _support_text(d: int, configs: np.ndarray, probs: np.ndarray) -> list[bytes]:
    """The support entries of a sparse law file, in blocks of 4096 rows,
    byte for byte as ``json.dumps`` writes them (ints by ``int.__repr__``,
    floats by ``float.__repr__``), without the last entry's ``, ``.

    Each block is a uint8 matrix of one fixed-width row per entry: the
    literal JSON bytes, and zero-padded fields that take each symbol's text
    and each mass's ``repr`` from a lookup table (one ``repr`` per distinct
    mass).  Dropping the zero bytes leaves the entries."""
    n, N = configs.shape
    symbols = _text_table([str(s) for s in range(d)])
    values, which = np.unique(probs, return_inverse=True)
    masses = _text_table([repr(p) for p in values.tolist()])
    template = np.frombuffer("".join([
        '{"config": [', ", ".join(["\0" * symbols.shape[1]] * N),
        '], "p": ', "\0" * masses.shape[1], "}, "]).encode(), np.uint8)
    # the zero bytes are the N symbol fields, then the mass field
    fields = np.flatnonzero(template == 0)
    sym_cols, mass_cols = np.split(fields, [N * symbols.shape[1]])
    blocks = []
    for start in range(0, n, 4096):
        block = slice(start, start + 4096)
        rows = np.empty((len(which[block]), template.size), dtype=np.uint8)
        rows[:] = template
        rows[:, sym_cols] = symbols[configs[block]].reshape(len(rows), -1)
        rows[:, mass_cols] = masses[which[block]]
        flat = rows.ravel()
        blocks.append(flat[flat != 0].tobytes())
    blocks[-1] = blocks[-1][:-2]
    return blocks


def _integer(value, name: str) -> int:
    """A law file's integral number (2 or 2.0, not 2.9, "2" or true)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or value % 1 != 0):
        raise LawValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_subset_cap(N: int) -> None:
    """:class:`CapExceededError` when N > ``SUBSET_CAP``."""
    if N > SUBSET_CAP:
        raise CapExceededError(
            f"N={N} is above SUBSET_CAP = {SUBSET_CAP}; use profile --sampled "
            "or entropy_profile_sampled for larger systems")


def _check_sizes(d: int, N: int) -> None:
    if not 2 <= d <= MAX_D:
        raise LawValidationError(f"alphabet size d must be in 2..{MAX_D}")
    if N < 0:
        raise LawValidationError("system size N must be >= 0")


def _support_law(d: int, N: int, kind: str, rows: np.ndarray,
                 weights: np.ndarray) -> SystemLaw:
    """The law of ``kind`` on distinct rows in lexicographic order, as
    :func:`_group_rows` gives them, without the rows of zero weight.  The
    rows are copied only when some weight is 0; the weights always are."""
    keep = weights > 0.0
    law = SystemLaw(d, N, kind, rows if keep.all() else rows[keep], weights[keep])
    law.configs.setflags(write=False)
    law.probs.setflags(write=False)
    return law


def _normalized(p: np.ndarray) -> np.ndarray:
    if p.size == 0:
        raise LawValidationError("empty probability table")
    if np.any(p < 0):
        raise LawValidationError("negative probability mass")
    if not np.all(np.isfinite(p)):
        raise LawValidationError("non-finite probability mass")
    total = float(p.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise LawValidationError(
            f"total mass {total!r} differs from 1 beyond tolerance {MASS_TOL}")
    # A table that already sums to 1 up to the rounding of the sum itself is
    # kept as it is, so normalizing twice (e.g. across a JSON round trip)
    # changes no bit.
    return p / total if abs(total - 1.0) > SUM_ROUNDING else p


# --- convenient constructors -------------------------------------------


def point_mass(d: int, N: int, config) -> SystemLaw:
    return SystemLaw.sparse(d, N, [config], [1.0])


def uniform_law(d: int, N: int) -> SystemLaw:
    return SystemLaw.dense(d, N, np.full(d**N, 1.0 / d**N))


def diagonal_law(d: int, N: int) -> SystemLaw:
    """X_1 uniform on {0,...,d-1} and X_i = X_1 for all i."""
    configs = np.repeat(np.arange(d, dtype=np.uint8)[:, None], N, axis=1)
    return SystemLaw.sparse(d, N, configs, np.full(d, 1.0 / d))


def product_law(marginals: list[np.ndarray], d: int) -> SystemLaw:
    """Independent coordinates with the given single-site distributions."""
    table = np.array([1.0])
    for m in marginals:
        table = np.multiply.outer(table, np.asarray(m, dtype=float)).ravel()
    return SystemLaw.dense(d, len(marginals), table)


# --- law transforms (invariance checks) --------------------------------


def permute_coordinates(law: SystemLaw, perm) -> SystemLaw:
    """Law of (X_{perm^{-1}(i)})_i; ``perm`` maps old index -> new index."""
    perm = list(perm)
    if sorted(perm) != list(range(law.N)):
        raise ValueError("perm must be a permutation of 0..N-1")
    inv = np.argsort(perm)
    new = SystemLaw.sparse(law.d, law.N, law.configs[:, inv], law.probs)
    return replace(new, kind=law.kind)


def relabel_symbols(law: SystemLaw, tables) -> SystemLaw:
    """Apply a per-coordinate symbol permutation; ``tables[i][s]`` is the
    new symbol at coordinate i."""
    tables = np.asarray(tables, dtype=np.uint8)
    if tables.shape != (law.N, law.d):
        raise ValueError("need one symbol permutation per coordinate")
    configs = np.empty_like(law.configs)
    for i in range(law.N):
        configs[:, i] = tables[i][law.configs[:, i]]
    new = SystemLaw.sparse(law.d, law.N, configs, law.probs)
    return replace(new, kind=law.kind)


def _scatter(law: SystemLaw) -> np.ndarray:
    """The flat d^N table of a law's support."""
    table = np.zeros(law.d**law.N)  # d^N cells exist, so the flat index fits
    # Horner's rule, one uint8 column at a time: numpy casts it in small
    # buffers, so no (support, N) array of indices is made
    idx = np.zeros(law.support_size, dtype=np.int64)
    for column in law.configs.T:
        idx *= law.d
        idx += column
    table[idx] = law.probs
    return table


# --- core operations ----------------------------------------------------


def _plogp_sum(p: np.ndarray, axis: int | None = None) -> np.ndarray:
    """-sum p log p over every entry of an array of masses >= 0 (or along
    ``axis``), in nats: zero masses add 0, the terms are added pairwise
    (``np.add.reduce``, so the result does not depend on the BLAS thread
    count), and no result is -0.0.  One temporary the size of ``p``."""
    logs = np.maximum(p, _SMALLEST, out=np.empty(p.shape))   # also for 0-d p
    np.log(logs, out=logs)
    logs *= p
    return -np.add.reduce(logs, axis=axis) + 0.0


def entropy(law: SystemLaw) -> float:
    """Shannon entropy -sum p log p in nats (0 log 0 := 0)."""
    return float(_plogp_sum(law.probs))


def marginal(law: SystemLaw, mask: int) -> SystemLaw:
    """Pushforward of the law under projection onto the coordinates in
    ``mask``; keeps the law's file format (``kind``)."""
    keep = mask_to_indices(mask, law.N)
    configs, probs = _group_rows(law.configs[:, keep], law.probs, law.d)
    return _support_law(law.d, len(keep), law.kind, configs, probs)


def subset_entropy(law: SystemLaw, mask: int) -> float:
    return float(subset_entropies(law, [mask])[0])


def mutual_information(law: SystemLaw, mask: int) -> float:
    """MI(X_S, X_{S^c}) = H(X_S) + H(X_{S^c}) - H(X); zero for S in
    {empty, full} by convention."""
    comp = full_mask(law.N) ^ mask
    if mask == 0 or comp == 0:
        return 0.0
    h_s, h_comp = subset_entropies(law, [mask, comp])
    return float(h_s + h_comp) - entropy(law)


def conditional_entropy(law: SystemLaw, mask: int) -> float:
    """H(X | X_S) = H(X) - H(X_S) for a sub-family S."""
    return entropy(law) - subset_entropy(law, mask)


# --- all-subset enumeration ---------------------------------------------


def _key_layout(d: int, N: int, n: int) -> tuple[type, list[int]]:
    """Word type and coordinate bounds of the key words of a law with n
    support points: word i holds coordinates bounds[i] .. bounds[i+1]-1.

    With b = bits(d - 1) and L = bits(n - 1), word 0 holds the first
    (63 - L)//b coordinates, room for the support index beside them, so a
    law has one word exactly when width = b*N + L <= 63.  Each later word
    holds (63 - 2L)//b coordinates, room for a group rank as well.  The
    words are uint32 when width <= 32, uint64 otherwise."""
    b, L = (d - 1).bit_length(), (n - 1).bit_length()
    first, later = (63 - L) // b, (63 - 2 * L) // b
    if N > first and later < 1:
        raise CapExceededError(f"a support of {n} points leaves no room for "
                               f"wide keys at d={d}")
    bounds = [0, min(N, first)]
    while bounds[-1] < N:
        bounds.append(min(N, bounds[-1] + later))
    return (np.uint32 if b * N + L <= 32 else np.uint64), bounds


def _key_words(configs: np.ndarray, d: int, word: type,
               bounds: list[int]) -> np.ndarray:
    """(w, rows) array of the rows' key words in dtype ``word``: word i
    holds coordinates bounds[i] .. bounds[i+1]-1, the symbol of the j-th of
    them in bits b*j .. b*j+b-1, b = bits(d - 1).  Word 0 is the widest.
    The package's one row packer: one uint8 column at a time is shifted and
    or-ed into its word, so no (rows, coordinates) array of words is made."""
    b = (d - 1).bit_length()
    words = np.zeros((len(bounds) - 1, len(configs)), dtype=word)
    column = np.empty(len(configs), dtype=word)
    for w, lo, hi in zip(words, bounds, bounds[1:]):
        for j in range(hi - lo):
            w |= np.left_shift(configs[:, lo + j], word(b * j), out=column)
    return words


def _grouped_entropies(K: np.ndarray, probs: np.ndarray | None, fields=(),
                       keys=(), terms: np.ndarray | None = None) -> np.ndarray:
    """Entropy of the weight distribution grouped by equal key, row-wise.

    K is (n_masks, n_support), uint32 or uint64; row j holds the first key
    word of each support point under mask j.  The caller guarantees that it
    fits 63 - L bits, L = bits(n_support - 1), so the support index is
    packed into K's low L bits in place and a single sort orders every row.
    K is overwritten.  Each later key word ``keys[i]`` (of the support
    points, under ``fields[i][j]`` for row j, and fitting 63 - 2L bits) is
    sorted the same way, with the previous sort's group rank of each point
    in the L bits between it and the index, so its groups split the
    previous ones; rows whose mask holds none of its coordinates keep their
    groups.

    ``probs`` is None when K's rows are draw keys (``SystemLaw._draws``):
    they carry no index, so a group starts wherever a sorted key differs
    from the one before, and a group of c draws adds ``terms[c]``
    (``SystemLaw._terms``), a gather from one per-law table in place of a
    division and a log per group.  No row sum is -0.0.
    """
    m, n = K.shape
    word = K.dtype.type
    shift = 0 if probs is None else (n - 1).bit_length()
    low = word(1 << shift)
    if shift:
        K <<= word(shift)
        K |= np.arange(n, dtype=word)
    K.sort(axis=1)
    starts = np.empty((m, n), dtype=bool)
    starts[:, 0] = True
    if probs is None:
        np.not_equal(K[:, 1:], K[:, :-1], out=starts[:, 1:])
    else:
        # sorted neighbours differ above the index bits iff their xor
        # reaches them
        np.greater_equal(np.bitwise_xor(K[:, 1:], K[:, :-1]), low,
                         out=starts[:, 1:])
        order = np.bitwise_and(K, low - word(1), out=K)
    for f, k in zip(fields, keys):
        rows = slice(None) if f.all() else np.flatnonzero(f)
        # field, group rank and index of each point, in the last sort's order
        prev = order[rows]
        Kw = np.bitwise_and(k[prev], f[rows, None])
        Kw <<= word(2 * shift)
        rank = np.cumsum(starts[rows], axis=1, dtype=word)
        rank -= word(1)
        rank <<= word(shift)
        Kw |= rank
        Kw |= prev
        Kw.sort(axis=1)
        starts[rows, 1:] = np.bitwise_xor(Kw[:, 1:], Kw[:, :-1]) >= low
        order[rows] = np.bitwise_and(Kw, low - word(1), out=Kw)
    firsts = np.flatnonzero(starts)
    if probs is None:
        runs = np.empty_like(firsts)    # run lengths, 1..T
        np.subtract(firsts[1:], firsts[:-1], out=runs[:-1])
        runs[-1] = m * n - firsts[-1]
        sums = np.take(terms, runs, mode="clip")
    else:
        # every index is below n: "clip" clips nothing, and skips the raise
        # mode's cast of the index words to intp
        sums = np.add.reduceat(np.take(probs, order.ravel(), mode="clip"),
                               firsts)
        sums *= -np.log(sums)           # group sums are > 0
    # reduceat sums each segment pairwise; row j's groups are one segment.
    # A point mass's row is 1 * -log 1 = -0.0 alone, and + 0.0 gives 0.0
    row_starts = np.searchsorted(firsts, np.arange(m) * n)
    return np.add.reduceat(sums, row_starts) + 0.0


def _keyed_entropies(law: SystemLaw, masks: np.ndarray) -> np.ndarray:
    """Sort path of :func:`subset_entropies` for an array of masks."""
    b = (law.d - 1).bit_length()
    keys, terms = law._draws, None
    if keys is None:
        probs, keys = law.probs, law._keys
        bounds = _key_layout(law.d, law.N, probs.size)[1]
    else:
        probs, bounds, terms = None, [0, law.N], law._terms
    word = keys.dtype.type
    spans = list(zip(bounds, bounds[1:]))
    # each word's share of every mask; the fields of a word's coordinates
    # set all b bits of each coordinate the mask holds
    parts = [masks] if len(spans) == 1 else [
        (masks >> lo) & ((1 << (hi - lo)) - 1) for lo, hi in spans]
    coords = np.arange(bounds[1], dtype=word)
    field = (word(1) << (word(b) * coords)) * word((1 << b) - 1)
    out = np.empty(masks.size)
    # ~2^20 keys per call split over the workers; each chunk then runs in
    # blocks of at most _SORT_BLOCK keys (one row at least).  Every row is
    # computed on its own, so the output does not depend on the chunk or
    # block size or the workers
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    chunk = max(1, min(4096, 2**20 // keys.shape[1]) // cores)
    block = max(1, _SORT_BLOCK // keys.shape[1])
    starts = range(0, masks.size, chunk)

    def run(start):
        fields = []
        for part, (lo, hi) in zip(parts, spans):
            ms = part[start:start + chunk].astype(word)
            fields.append(((ms[:, None] >> coords[:hi - lo]) & word(1))
                          @ field[:hi - lo])
        # a word that no mask of the chunk touches would split no group
        first, *later = [i for i, f in enumerate(fields) if f.any()] or [0]
        # the chunk's first words, sorted a row block at a time in place.
        # Freed after the chunk's last block, this 2-4 MB array (on two
        # cores) lifts glibc's trim threshold, twice the largest mmapped
        # allocation freed, above a block's ~2 MB of temporaries, so the
        # blocks reuse their pages; 2^17-key blocks, or a K per block,
        # faulted in fresh ones
        K = np.bitwise_and(fields[first][:, None], keys[first])
        for at in range(0, len(K), block):
            rows = slice(at, min(at + block, len(K)))
            out[start + at:start + rows.stop] = _grouped_entropies(
                K[rows], probs, [fields[i][rows] for i in later],
                [keys[i] for i in later], terms)

    workers = min(cores, len(starts))
    if workers <= 1:
        for start in starts:
            run(start)
    else:
        # numpy releases the GIL in its sorts and ufunc loops
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, starts))
    return out


def subset_entropies(law: SystemLaw, masks) -> np.ndarray:
    """H(X_S) in nats for every mask S in ``masks`` (Python or numpy
    integers, Python ints up to 2^N - 1 for any N; repeats and any order
    allowed), in the shape of ``masks``.

    The support is keyed by bit fields: with b = bits(d - 1), symbol
    x_{i+1} sits in bits b*i .. b*i+b-1 of one integer, held as the key
    words of :func:`_key_words` in the layout of :func:`_key_layout`, and
    the key under mask S is that integer and-ed with S's fields (all b bits
    of each coordinate in S; for d = 2, S itself).  The support's words
    are built on the law's first call and kept with it, read-only, so later
    calls and every worker share them.
    Masks go ``max(1, min(4096, 2**20 // support) // cores)`` at a time,
    where ``cores`` is the number of CPUs in the process's affinity set, and
    these chunks run on a thread pool of up to ``cores`` workers (one chunk
    runs inline), so ~2^20 keys are split over the workers.  Each worker
    sorts its chunk in row blocks of at most ``_SORT_BLOCK`` (2^16) keys,
    at least one row, so a block's temporaries stay near one core's L2
    cache.  Each row of first
    words is sorted with the support index packed into its low bits; each
    further word the mask touches is sorted with the previous sort's group
    rank between it and the index, so every sort refines the groups of the
    one before.  Words that no mask of a chunk touches are skipped.  Equal
    keys are summed, and each row's -p log p terms are added pairwise by
    ``np.add.reduceat`` (about 1e-15 nats at a support of 65k points; a
    sequential sum misses by ~1e-11).  Every row is computed on its own, so
    the output is bit-identical at any chunk size, block size and worker
    count.
    That is the *weighted* route.  A law whose masses are counts c_i / T
    over one total, such as every construction, takes the *count* route
    when ``C / T`` equals its masses bit for bit, T <= 2 * support and
    b*N <= 64 (``SystemLaw._draws`` holds the rule): its rows are its T
    draws, each point's one-word key repeated c_i times with no index, and
    a group of c draws adds the c-th of T + 1 values -p log p, p = c / T,
    from a table built once per law (``SystemLaw._terms``), so there is no
    gather of masses, no per-key sum and no per-group log.  Chunks, pool
    and row blocks are the same, sized by T.  For d = 2^j the masses are
    dyadic, the weighted route's group sums exact, and both routes give the
    same bits; for other d they differ by about 1e-15 nats.
    Every law takes this path, whatever its file format or N.  The empty
    mask has entropy exactly 0, and no entropy is -0.0.
    Raises ``TypeError`` for a mask that is not an integer and
    ``IndexError`` for a mask outside 0..2^N - 1.
    """
    masks = np.asarray(masks, dtype=object)
    flat = masks.ravel()
    for mask in flat:
        # a bool is an int, but a membership flag, not a mask
        if isinstance(mask, bool) or not isinstance(mask, (int, np.integer)):
            raise TypeError(f"mask {mask!r} is not an integer")
    if np.any((flat < 0) | (flat > full_mask(law.N))):
        raise IndexError(f"a mask references coordinates >= N={law.N}")
    out = _keyed_entropies(law, flat)
    out[flat == 0] = 0.0
    return out.reshape(masks.shape) + 0.0


def _sorted_entropies(law: SystemLaw) -> np.ndarray:
    """Sort path of :func:`all_subset_entropies`."""
    out = _keyed_entropies(law, np.arange(1 << law.N))
    out[0] = 0.0                        # the empty set, not -s log s of the total s
    return out


def _block_entropies(marg: np.ndarray, b: int, d: int) -> np.ndarray:
    """H of every marginal of ``marg`` that keeps a subset T of its first b
    axes and all of its later ones, indexed by T (bit j for axis j).

    ``marg`` is C-ordered: b axes of d cells, then K cells.  Each of b
    passes gives the leading axis a cell d, its sum over the other d, and
    moves it behind the other droppable axes, ahead of the K cells; so every
    copy and sum runs over rows of at least K cells, and after the passes
    cell (i_0, ..., i_{b-1}, k) is the mass of the marginal in which i_j = d
    means axis j is summed out.  Then every cell's -p log p is taken at
    once, each row's K terms are added pairwise, and b passes split axis j
    (outermost first) into the sum of its d kept cells and its cell d."""
    K = marg.size // d**b
    x = marg
    for _ in range(b):
        x = x.reshape(d, -1, K)
        y = np.empty((x.shape[1], d + 1, K))
        y[:, :d] = x.transpose(1, 0, 2)
        np.add.reduce(x, axis=0, out=y[:, d])
        x = y
    h = _plogp_sum(x.reshape(-1, K), axis=1)
    for j in range(b):
        h = h.reshape(1 << j, d + 1, -1)
        split = np.empty((1 << j, 2, h.shape[2]))
        split[:, 0] = h[:, d]
        np.add.reduce(h[:, :d], axis=1, out=split[:, 1])
        h = split
    # axis j kept sets bit b-1-j of h's flat index; reversed axes, bit j
    return h.reshape((2,) * b).transpose().ravel()


def _lattice_entropies(law: SystemLaw) -> np.ndarray:
    """Lattice path of :func:`all_subset_entropies`: the support is
    scattered into its d^N table, and the marginal of S is the marginal of
    S + {i} summed over axis i.

    The walk starts at the full mask and only drops coordinates below the
    last one dropped, so every subset is reached exactly once and the
    recursion holds one marginal per level.  A node whose first b axes are
    still droppable, with K cells in its other axes, covers 2^b subsets; when
    (d+1)^b * K <= ``_LATTICE_BLOCK`` they are all evaluated at once by
    :func:`_block_entropies`, else the node's own entropy is
    :func:`_plogp_sum` of it and the walk goes on to its children.  Zero
    cells add 0, and a point mass gives 0.0.
    """
    N, d = law.N, law.d
    table = _scatter(law)
    out = np.empty(1 << N)

    def walk(marg, mask, b):
        # the first b axes of marg are coordinates 0..b-1, all still in mask
        if (d + 1) ** b * (marg.size // d**b) <= _LATTICE_BLOCK:
            out[mask + 1 - (1 << b):mask + 1] = _block_entropies(marg, b, d)
            return
        out[mask] = _plogp_sum(marg)
        for pos in range(b):
            walk(np.add.reduce(marg, axis=pos), mask ^ (1 << pos), pos)

    walk(table.reshape((d,) * N), full_mask(N), N)
    out[0] = 0.0                        # not -s log s of the total s
    return out


def all_subset_entropies(law: SystemLaw) -> np.ndarray:
    """H(X_S) for every mask S in {0,...,2^N - 1}, indexed by mask.

    Two algorithms, chosen by their cost on this law:

    - the *lattice* path sums one axis of the marginal of S + {i} to get
      the marginal of S, walking the subset lattice once: (d+1)^N work.
      Each sub-lattice of at most ``_LATTICE_BLOCK`` (2^14) cells, counting
      a "summed out" cell on each droppable axis, is evaluated at once in
      whole-array passes (:func:`_block_entropies`); larger nodes take one
      step each.  It holds the 2^N output, at most 2 d^N floats of the
      support's scattered d^N table, one marginal per level and one
      temporary, and a few blocks.  A node larger than a block adds its
      -p log p terms pairwise; a block adds each run of the node's
      trailing cells pairwise, then the runs one droppable axis at a time,
      d terms per step;
    - the *sort* path (:func:`subset_entropies`, which gives its two
      routes, its chunks and its memory) groups the support by its
      projected configuration, mask by mask: about 2^N * support *
      log(support) work per key word.  A law whose masses are counts
      c_i / T (a construction) sorts its T draws instead.  The output is
      bit-identical at any chunk size, block size and worker count.

    The lattice is used when (d+1)^N <= 2^N * support, i.e. for dense or
    high-support laws; the sort path otherwise, e.g. for the sparse
    constructions with support d^M << d^N.  On both paths the empty set
    has entropy exactly 0, and no entropy is -0.0.  Raises
    :class:`CapExceededError` when N > ``SUBSET_CAP`` (checked by
    ``SystemLaw._entropies`` before either path runs); use
    :func:`entropy_profile_sampled` for larger systems.

    The kernel runs once per law: its output is cached on the law
    (``SystemLaw._entropies``), and every call, and so every exact route
    (:func:`entropy_profile_exact`, ``intricacy_defn``, ``deficit_report``),
    returns that same read-only array, not a copy.  The law holds it for
    its lifetime: 2^N floats, 32 KB at N=12, 8 MB at N=20, 32 MB at N=22.
    """
    return law._entropies


# --- entropy profiles ----------------------------------------------------


def size_k_masks(N: int, k: int, rng: SplitMix64 | None,
                 count: int) -> list[int]:
    """Every size-k mask of N coordinates, in ``itertools.combinations``
    order, when ``rng`` is None; otherwise ``count`` uniform size-k masks
    drawn from ``rng``.  Enumerating more than 2^SUBSET_CAP masks,
    the count :func:`all_subset_entropies` allows, raises
    :class:`CapExceededError`."""
    if rng is None:
        total = math.comb(N, k)
        if total > 1 << SUBSET_CAP:
            raise CapExceededError(
                f"C({N},{k}) = {total} size-{k} masks exceed 2^SUBSET_CAP = "
                f"2^{SUBSET_CAP}; sample them instead")
        return [indices_to_mask(c) for c in combinations(range(N), k)]
    return [rng.sample_subset_mask(N, k) for _ in range(count)]


@dataclass(frozen=True)
class EntropyProfile:
    """Averaged subset entropies h(k/N) for k = 0..N, normalized by
    N*log(d).  ``stderr`` is set by the sampled estimator (NaN where a size
    was not requested)."""

    N: int
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size != self.N + 1:
            raise ValueError("profile needs N+1 values")

    def validate(self) -> None:
        """Check membership in Gamma, within ``PROFILE_TOL``: every value
        finite, h(0)=0, nondecreasing, increments at most 1/N.  A sampled
        profile with unrequested sizes (NaN) is not checkable and fails."""
        v = self.values
        if not np.all(np.isfinite(v)):
            raise ValueError("profile values must be finite")
        if abs(v[0]) > PROFILE_TOL:
            raise ValueError("profile must start at 0")
        inc = np.diff(v)
        # N = 0 has no increments, and no 1/N
        if inc.size and (np.any(inc < -PROFILE_TOL) or
                         np.any(inc > 1.0 / self.N + PROFILE_TOL)):
            raise ValueError("profile increments outside [0, 1/N]")


def entropy_profile_exact(law: SystemLaw) -> EntropyProfile:
    """Exact entropy profile: h(k/N) is the average of H(X_S)/(N log d)
    over all C(N,k) subsets of size k; h(0) = 0 exactly, also at N = 0."""
    N = law.N
    H = all_subset_entropies(law)
    # H summed by subset size over blocks of 2^16 masks: add.at adds in
    # mask order, as one bincount would, without bincount's 2^N intp copy
    # of the sizes
    sums = np.zeros(N + 1)
    for start in range(0, 1 << N, 1 << 16):
        stop = min(start + (1 << 16), 1 << N)
        k = np.bitwise_count(np.arange(start, stop, dtype=np.uint32))
        np.add.at(sums, k, H[start:stop])
    counts = np.array([math.comb(N, j) for j in range(N + 1)], dtype=float)
    values = sums / counts
    values[1:] /= N * math.log(law.d)   # h(0) = 0 without 0 / (0 log d)
    return EntropyProfile(N, values)


def entropy_profile_sampled(law: SystemLaw, sizes, samples_per_size: int,
                            seed: int, *, exhaustive: bool = False) -> EntropyProfile:
    """Monte Carlo estimate of the entropy profile at the requested subset
    sizes (uniform over size-k subsets), with per-point standard errors.

    Deterministic given ``seed``.  With ``exhaustive=True`` every size-k
    subset is enumerated instead (ignoring ``samples_per_size``), matching
    :func:`entropy_profile_exact` at the requested sizes, within the mask
    cap of :func:`size_k_masks`.
    """
    if not exhaustive and samples_per_size < 2:
        raise ValueError("samples_per_size must be >= 2")
    N = law.N
    norm = N * math.log(law.d)
    values = np.full(N + 1, np.nan)
    stderr = np.full(N + 1, np.nan)
    values[0], stderr[0] = 0.0, 0.0
    ks = sorted(set(int(s) for s in sizes))
    for k in ks:
        if not 0 <= k <= N:
            raise IndexError(f"subset size {k} outside 0..{N}")
    # one batch of masks, drawn size by size from one stream
    rng = None if exhaustive else SplitMix64(seed)
    ks = [k for k in ks if k > 0]
    groups = [size_k_masks(N, k, rng, samples_per_size) for k in ks]
    H = subset_entropies(law, [m for g in groups for m in g])
    start = 0
    for k, g in zip(ks, groups):
        hs = H[start:start + len(g)] / norm
        start += len(g)
        values[k] = hs.mean()
        stderr[k] = hs.std(ddof=1) / math.sqrt(hs.size) if hs.size > 1 else 0.0
    return EntropyProfile(N, values, stderr)
