"""The benchmark's workloads, their inputs and their correctness checks.

A workload is a *round*, a fixed list of steps, repeated until the run's
time is up.  A step is either an *item*, the unit that latency and
throughput count, or *preparation* that an item needs (constructing and
reading back a law on ``large_n``).  Both are timed; the checks that follow
them are not.  Inputs come from the workload seed and the round number only.

Every item is checked against a naive oracle of the benchmark's own and
against identities the paper proves; an item that raises or fails a check
counts as failed.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

FAMILIES = ("est", "uniform", "p-sym:0.3")
ORACLE_TOL = 1e-12      # nats, subset entropies against the naive oracle
IDENTITY_TOL = 1e-9     # deficit identity, two-route agreement, certificates
ORACLE_MASKS = 2        # random masks per law checked against the oracle


@dataclass(frozen=True)
class Shape:
    """Problem sizes of every workload; ``FULL`` is the benchmark, ``TINY``
    the self-test."""

    sweep_N: tuple           # N values of one sweep round, d=2, x=0.5
    large: tuple             # (d, N, M) of the large-N construction
    large_ks: tuple          # subset sizes of the single-size sampled items
    large_masks: int         # masks evaluated by every large_n item
    large_passes: int        # passes over the large_n items per law
    dense: tuple             # (d, N) of the dense Dirichlet(1) laws
    search: tuple            # (d, N, iterations) of one maximizer restart
    search_items: int        # maximizer restarts per dense round


FULL = Shape(sweep_N=(8, 12, 16), large=(2, 22, 16),
             large_ks=tuple(range(1, 22)), large_masks=4, large_passes=3,
             dense=((2, 12), (3, 8)), search=(2, 6, 200), search_items=4)
TINY = Shape(sweep_N=(4, 6), large=(2, 12, 8), large_ks=(1, 6, 11),
             large_masks=4, large_passes=1, dense=((2, 5), (3, 3)), search=(2, 3, 20),
             search_items=2)


# --- naive oracle (dict-based, independent of the package's kernels) -----


def naive_pmap(configs, probs) -> dict:
    return {tuple(int(s) for s in c): float(p) for c, p in zip(configs, probs)}


def naive_subset_entropy(pmap: dict, keep: tuple) -> float:
    marg: dict = {}
    for cfg, p in pmap.items():
        key = tuple(cfg[i] for i in keep)
        marg[key] = marg.get(key, 0.0) + p
    return math.fsum(-p * math.log(p) for p in marg.values() if p > 0)


def mask_of(keep) -> int:
    return sum(1 << i for i in keep)


class Oracle:
    """Checks a law's subset entropies against :func:`naive_subset_entropy`.

    ``offset`` is added to every oracle value; the self-test sets it to
    show that a wrong reference value fails the item.
    """

    def __init__(self, ic, offset: float = 0.0):
        self.ic = ic
        self.offset = offset

    def entropy(self, pmap, keep) -> float:
        return naive_subset_entropy(pmap, keep) + self.offset

    def check_masks(self, law, pmap, rng: random.Random) -> list[str]:
        """Per-mask subset entropies of random masks."""
        out = []
        for _ in range(ORACLE_MASKS):
            k = rng.randint(1, law.N)
            keep = tuple(sorted(rng.sample(range(law.N), k)))
            got = self.ic.subset_entropy(law, mask_of(keep))
            want = self.entropy(pmap, keep)
            if not abs(got - want) <= ORACLE_TOL:
                out.append(f"subset_entropy{keep}={got!r}, oracle {want!r}")
        return out

    def check_profile(self, law, pmap, profile) -> list[str]:
        """Profile at sizes 1, N-1 and N, each the mean of the kernel's
        entropies over all subsets of that size (N, N and 1 of them)."""
        N = law.N
        norm = N * math.log(law.d)
        out = []
        for k in sorted({1, N - 1, N} - {0}):
            subsets = list(itertools.combinations(range(N), k))
            want = math.fsum(self.entropy(pmap, s) for s in subsets) / len(subsets)
            got = float(profile.values[k]) * norm
            if not abs(got - want) <= ORACLE_TOL:
                out.append(f"profile h({k})*N*log(d)={got!r}, oracle {want!r}")
        return out


def check_validate(profile) -> list[str]:
    try:
        profile.validate()
    except ValueError as exc:
        return [f"EntropyProfile.validate: {exc}"]
    return []


def check_deficit(I, icn, deficit, label) -> list[str]:
    if abs(I - (icn - deficit)) <= IDENTITY_TOL:
        return []
    return [f"{label}: I_N={I!r} != icn {icn!r} - deficit {deficit!r}"]


# --- workloads -----------------------------------------------------------


class Workload:
    """One workload: ``round(ctx, index)`` runs one round through ``ctx``.
    Why each workload was chosen is recorded in ``layers.json``."""

    name = ""

    def __init__(self, ic, shape: Shape, seed: int, oracle: Oracle, paths):
        self.ic = ic
        self.shape = shape
        self.seed = seed
        self.oracle = oracle
        self.paths = paths
        self.families = [(n, ic.parse_family(n)) for n in FAMILIES]

    def rng(self, index: int) -> random.Random:
        """The benchmark's own stream for round ``index``."""
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def items_per_round(self) -> int:
        raise NotImplementedError

    def round(self, ctx, index: int) -> None:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def items_per_round(self):
        return len(self.shape.sweep_N)

    def round(self, ctx, index):
        ic = self.ic
        rng = self.rng(index)
        law_seed = rng.getrandbits(32)
        for N in self.shape.sweep_N:
            ctx.item(f"N={N}",
                     lambda: ic.convergence_sweep(self.families, 2, 0.5, [N],
                                                  [law_seed],
                                                  keep_profiles=True),
                     lambda out: self.check(out, N, law_seed, rng))

    def check(self, out, N, law_seed, rng):
        ic = self.ic
        records, profiles = out
        profile = profiles[(N, law_seed)]
        spec = ic.ConstructionSpec(2, N, ic.m_from_target(0.5, N), law_seed)
        law = ic.sample_sparse_system(spec)
        pmap = naive_pmap(*law.support())
        fails = check_validate(profile)
        fails += self.oracle.check_profile(law, pmap, profile)
        fails += self.oracle.check_masks(law, pmap, rng)
        if len(records) != len(self.families):
            fails.append(f"{len(records)} records for {len(self.families)} families")
        for r in records:
            fails += check_deficit(r.I_N, r.icn_at_xN, r.deficit, r.family)
        return fails


class LargeN(Workload):
    name = "large_n"

    def items_per_round(self):
        return self.shape.large_passes * (len(self.shape.large_ks) + 2)

    def round(self, ctx, index):
        ic = self.ic
        d, N, M = self.shape.large
        rng = self.rng(index)
        law_seed = rng.getrandbits(32)
        path = self.paths.scratch / f"law-{os.getpid()}.json"
        argv = ["construct", "--d", str(d), "--N", str(N), "--M", str(M),
                "--seed", str(law_seed), "--out", str(path)]
        try:
            code = ctx.prep("construct", lambda: ic.cli.main(argv))
            if code != 0:
                raise RuntimeError(f"intricacy {' '.join(argv)} exited {code}")
            ctx.count("cli.law_file_bytes", path.stat().st_size)
            law = ctx.prep("read law",
                           lambda: ic.SystemLaw.from_json(path.read_text()))
        finally:
            path.unlink(missing_ok=True)
        hk = ctx.prep("expected h_k",
                      lambda: [ic.expected_subset_entropy(d, N, M, k)
                               for k in range(N + 1)])
        law_fails = self.check_law(law, hk, rng)
        # Several passes over the items per law, each on fresh sample seeds,
        # so that each item is timed several times per costly construction.
        for _ in range(self.shape.large_passes):
            self.items(ctx, law, law_fails, rng)

    def items(self, ctx, law, law_fails, rng):
        ic = self.ic
        _, N, M = self.shape.large
        n = self.shape.large_masks
        x = M / N
        for k in self.shape.large_ks:
            sample_seed = rng.getrandbits(32)
            ctx.item(f"sampled k={k}",
                     lambda: ic.entropy_profile_sampled(law, [k], n, sample_seed),
                     lambda prof: law_fails + self.check_sampled(prof, k))
        floor = self.paths.census_fraction_min
        for y, share in ((0.25, "fraction_near_uniform"),
                         (0.75, "fraction_determining")):
            census_seed = rng.getrandbits(32)
            ctx.item(f"census y={y}",
                     lambda: ic.threshold_census(law, x, y, 0.1, n, census_seed),
                     lambda rep: law_fails + (
                         [] if getattr(rep, share) >= floor else
                         [f"census y={y}: {share}={getattr(rep, share)!r} "
                          f"< {floor!r}"]))

    def check_law(self, law, hk, rng):
        d, N, M = self.shape.large
        fails = []
        counts = law.probs * float(d) ** M
        whole = np.rint(counts)
        if not (np.array_equal(counts, whole) and int(whole.sum()) == d**M):
            fails.append("law masses are not multiples of d^-M summing to 1")
        for k, h in enumerate(hk):
            if not 0.0 <= h <= min(k, M) + IDENTITY_TOL:
                fails.append(f"expected h_{k}={h!r} outside [0, min(k,M)]")
        pmap = naive_pmap(*law.support())
        return fails + self.oracle.check_masks(law, pmap, rng)

    def check_sampled(self, prof, k):
        M = self.shape.large[2]
        hN = float(prof.values[k]) * prof.N
        if math.isfinite(hN) and hN <= min(k, M) + IDENTITY_TOL:
            return []
        return [f"sampled h({k})*N={hN!r} above min(k,M)={min(k, M)}"]


class Dense(Workload):
    name = "dense"

    def items_per_round(self):
        return len(self.shape.dense) + self.shape.search_items

    def round(self, ctx, index):
        rng = self.rng(index)
        for d, N in self.shape.dense:
            table = np.random.default_rng(rng.getrandbits(64)).dirichlet(
                np.ones(d**N))
            ctx.item(f"dense d={d} N={N}", lambda: self.evaluate(d, N, table),
                     lambda out: self.check_dense(out, table, rng))
        d, N, iterations = self.shape.search
        for _ in range(self.shape.search_items):
            search_seed = rng.getrandbits(32)
            ctx.item("maximizer",
                     lambda: self.ic.maximizer_search(
                         d, N, self.ic.coefficient_table(self.ic.est_measure(), N),
                         restarts=1, iterations=iterations, seed=search_seed),
                     self.check_search)

    def evaluate(self, d, N, table):
        ic = self.ic
        law = ic.SystemLaw.dense(d, N, table)
        profile = ic.entropy_profile_exact(law)
        tables = {name: ic.coefficient_table(m, N) for name, m in self.families}
        reports = [ic.deficit_report(law, tables[name], family=name,
                                     profile=profile)
                   for name, _ in self.families]
        defn = ic.intricacy_defn(law, tables["est"])
        return law, profile, reports, defn, tables["est"]

    def check_dense(self, out, table, rng):
        law, profile, reports, defn, est = out
        d, N = law.d, law.N
        configs = list(itertools.product(range(d), repeat=N))
        pmap = naive_pmap(configs, table / table.sum())
        fails = check_validate(profile)
        fails += self.oracle.check_profile(law, pmap, profile)
        fails += self.oracle.check_masks(law, pmap, rng)
        for r in reports:
            fails += check_deficit(r.normalized_intricacy, r.icn_x, r.deficit,
                                   r.family)
        route = self.ic.intricacy_from_profile(profile, est, d)
        gap = abs(defn - route) / (N * math.log(d))
        if not gap <= IDENTITY_TOL:
            fails.append(f"two routes differ by {gap!r} (normalized)")
        return fails

    def check_search(self, result):
        certs = [result.certificate] + [r.certificate for r in result.restarts]
        if all(c >= -IDENTITY_TOL for c in certs):
            return []
        return [f"maximizer certificate {min(certs)!r} < 0"]


WORKLOADS = {w.name: w for w in (Sweep, LargeN, Dense)}


def census_fraction_min(calibration_path) -> float:
    """The frozen census threshold, read as the acceptance gate reads it."""
    with open(calibration_path) as fh:
        return float(json.load(fh)["thresholds"]["census_fraction_min"])
