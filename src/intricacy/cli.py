"""Command-line front end.

Subcommands: entropy, profile, intricacy, coeffs, construct, sweep, census,
maximize.  Seeds are mandatory for every stochastic subcommand; any command
run twice with identical flags produces byte-identical data files.

Exit codes: 0 success, 2 parse/validation error, 3 cap exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import experiments
from .coefficients import (CoefficientTable, coefficient_table, dn_law,
                           parse_family, validate_coefficients)
from .construction import (ConstructionSpec, m_from_target,
                           sample_sparse_system)
from .laws import (CapExceededError, LawValidationError, SystemLaw, entropy,
                   entropy_profile_exact, entropy_profile_sampled)
from .profiles import deficit_report

EXIT_VALIDATION = 2
EXIT_CAP = 3
SAMPLES_PER_SIZE = 200


def _out_stream(args):
    if args.out and args.out != "-":
        return open(args.out, "w")
    # stdout must survive the with-block
    return contextlib.nullcontext(sys.stdout)


def _load_law(path: str) -> SystemLaw:
    """A law file, or the law under the "law" key of a ``maximize`` output."""
    with open(path) as fh:
        text = fh.read()
    try:
        return SystemLaw.from_json(text)
    except LawValidationError:
        obj = json.loads(text)
        if not (isinstance(obj, dict) and "law" in obj):
            raise
        return SystemLaw.from_json_dict(obj["law"])


def _families(spec: str):
    return [(s.strip(), parse_family(s.strip())) for s in spec.split(",")]


def cmd_entropy(args) -> int:
    law = _load_law(args.law)
    h = entropy(law)
    x = h / (law.N * math.log(law.d)) if law.N else 0.0
    print(f"entropy_nats={h!r}, x={x!r}")
    return 0


def cmd_profile(args) -> int:
    law = _load_law(args.law)
    if args.sampled:
        sizes = range(law.N + 1)
        samples = SAMPLES_PER_SIZE if args.samples is None else args.samples
        prof = entropy_profile_sampled(law, sizes, samples, args.seed)
    else:
        prof = entropy_profile_exact(law)
    with _out_stream(args) as out:
        if args.format == "json":
            payload = {"N": prof.N, "values": prof.values.tolist()}
            if prof.stderr is not None:
                payload["stderr"] = prof.stderr.tolist()
            json.dump(payload, out)
            out.write("\n")
        else:
            out.write("k,h,stderr\n")
            for k in range(prof.N + 1):
                se = "" if prof.stderr is None else repr(float(prof.stderr[k]))
                out.write(f"{k},{float(prof.values[k])!r},{se}\n")
    return 0


def cmd_intricacy(args) -> int:
    law = _load_law(args.law)
    profile = entropy_profile_exact(law)
    reports = [deficit_report(law, coefficient_table(measure, law.N),
                              family=name, profile=profile)
               for name, measure in _families(args.families)]
    with _out_stream(args) as out:
        if args.format == "json":
            json.dump([r.to_json_dict() for r in reports], out)
            out.write("\n")
        else:
            out.write("family,d,N,x,icn_x,deficit,normalized_intricacy\n")
            for r in reports:
                out.write(f"{r.family},{r.d},{r.N},{r.x!r},{r.icn_x!r},"
                          f"{r.deficit!r},{r.normalized_intricacy!r}\n")
    return 0


def cmd_coeffs(args) -> int:
    measure = parse_family(args.family)
    table: CoefficientTable = coefficient_table(measure, args.N)
    pred = coefficient_table(measure, args.N - 1) if args.N > 1 else None
    report = validate_coefficients(table, pred)
    law = dn_law(table)
    with _out_stream(args) as out:
        if args.format == "json":
            json.dump({"family": args.family, "N": args.N,
                       "c": table.c.tolist(), "dn": law.p.tolist(),
                       "valid": report.all_passed}, out)
            out.write("\n")
        else:
            out.write("k,c_k,dn_p_k\n")
            for k in range(args.N + 1):
                out.write(f"{k},{float(table.c[k])!r},{float(law.p[k])!r}\n")
    if not report.all_passed:
        print("coefficient validation FAILED", file=sys.stderr)
        return EXIT_VALIDATION
    return 0


def _spec_from_args(args) -> ConstructionSpec:
    M = args.M if args.M is not None else m_from_target(args.x, args.N)
    return ConstructionSpec(args.d, args.N, M, args.seed)


def cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    law = sample_sparse_system(spec)
    x_n = entropy(law) / (law.N * math.log(law.d))
    with _out_stream(args) as out:
        out.write(law.to_json() + "\n")
    print(f"d={spec.d} N={spec.N} M={spec.M} seed={spec.seed} "
          f"support={law.support_size} x_N={x_n!r}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    families = _families(args.families)
    N_list = _parse_range(args.N)
    records = experiments.convergence_sweep(
        families, args.d, args.x, N_list, args.seeds)
    with _out_stream(args) as out:
        out.write(experiments.SWEEP_CSV_HEADER + "\n")
        for r in records:
            out.write(r.csv_row() + "\n")
    by_key = {}
    for r in records:
        by_key.setdefault((r.family, r.N), []).append(r.I_N)
    for (family, N), vals in sorted(by_key.items()):
        mean = sum(vals) / len(vals)
        print(f"seed-mean I_N family={family} N={N}: {mean!r}",
              file=sys.stderr)
    return 0


def cmd_census(args) -> int:
    spec = _spec_from_args(args)
    law = sample_sparse_system(spec)
    x = args.x if args.x is not None else spec.M / spec.N
    report = experiments.threshold_census(
        law, x, args.y, args.epsilon, args.samples, args.census_seed)
    with _out_stream(args) as out:
        out.write(experiments.CENSUS_CSV_HEADER + "\n")
        out.write(f"{args.family},{spec.d},{spec.N},{spec.M},{spec.seed},"
                  f"{report.y!r},{report.k},{report.epsilon!r},"
                  f"{report.samples},{report.fraction_near_uniform!r},"
                  f"{report.se_uniform!r},{report.fraction_determining!r},"
                  f"{report.se_determining!r}\n")
    return 0


def cmd_maximize(args) -> int:
    measure = parse_family(args.family)
    table = coefficient_table(measure, args.N)
    # without --penalty, the search's own default weight
    penalty = {} if args.penalty is None else {"penalty_weight": args.penalty}
    result = experiments.maximizer_search(
        args.d, args.N, table, restarts=args.restarts,
        iterations=args.iterations, seed=args.seed,
        entropy_target=args.x, **penalty)
    with _out_stream(args) as out:
        json.dump({"family": args.family, "d": args.d, "N": args.N,
                   "intricacy_nats": result.intricacy,
                   "certificate": result.certificate,
                   "law": result.law.to_json_dict()}, out)
        out.write("\n")
    print(f"best I={result.intricacy!r} certificate={result.certificate!r}",
          file=sys.stderr)
    return 0


def _parse_range(text: str) -> list[int]:
    """Accepts '8', '8,12,16' or '8..16' (inclusive, not empty)."""
    out = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = (int(end) for end in part.split(".."))
            if lo > hi:
                raise ValueError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def _seed(text: str) -> int:
    """A seed flag's value: an integer in 0..2^64 - 1, the splitmix64
    seeds, so no two values name one stream."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(
            f"a seed must be an integer in 0..2^64 - 1, got {text!r}")
    return value


def _seeds(text: str) -> list[int]:
    """``--seeds``: a range of :func:`_parse_range`, each a :func:`_seed`."""
    return [_seed(str(seed)) for seed in _parse_range(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intricacy",
        description="Intricacy functionals of finite discrete systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, fmt=True):
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    def construction(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        size = p.add_mutually_exclusive_group(required=True)
        size.add_argument("--M", type=int)
        size.add_argument("--x", type=float)
        p.add_argument("--seed", type=_seed, required=True)

    p = sub.add_parser("entropy", help="entropy of a law file")
    p.add_argument("law")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("profile", help="entropy profile of a law file")
    p.add_argument("law")
    p.add_argument("--sampled", action="store_true")
    p.add_argument("--samples", type=int,
                   help=f"with --sampled: masks per subset size "
                        f"(default {SAMPLES_PER_SIZE})")
    p.add_argument("--seed", type=_seed,
                   help="with --sampled: the mask stream's seed")
    output(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("intricacy", help="deficit report per family")
    p.add_argument("law")
    p.add_argument("--families", default="est")
    output(p)
    p.set_defaults(func=cmd_intricacy)

    p = sub.add_parser("coeffs", help="coefficient table of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--N", type=int, required=True)
    output(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("construct", help="sample a sparse random system")
    construction(p)
    output(p, fmt=False)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("sweep", help="convergence sweep CSV")
    p.add_argument("--families", default="est")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--N", required=True, help="e.g. 8..16 or 8,12,16")
    p.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0..19")
    output(p, fmt=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("census", help="threshold census on a construction")
    p.add_argument("--family", default="est",
                   help="label written to the CSV's family column; the "
                        "census does not depend on the family")
    construction(p)
    p.add_argument("--census-seed", type=_seed, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    output(p, fmt=False)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("maximize", help="stochastic maximizer search")
    p.add_argument("--family", default="est")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--x", type=float, help="optional entropy target")
    p.add_argument("--penalty", type=float,
                   help="with --x: the target penalty's weight (default 20)")
    output(p, fmt=False)
    p.set_defaults(func=cmd_maximize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "profile":
        if args.sampled and args.seed is None:
            parser.error("--seed is required with --sampled")
        if not args.sampled and (args.seed, args.samples) != (None, None):
            parser.error("--seed and --samples are read only with --sampled")
    if args.command == "maximize" and args.penalty is not None and args.x is None:
        parser.error("--penalty is read only with --x")
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (LawValidationError, ValueError, json.JSONDecodeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
