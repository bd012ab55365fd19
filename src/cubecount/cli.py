"""Command-line front end.

Subcommands: eval, represent, classify, sweep, selftest.  Records go to
stdout, one JSON object per line (or CSV with a header); progress and
timing go to stderr so stdout is byte-identical for a given input whatever
the --jobs setting.  Exit codes: 0 ok, 1 mathematical mismatch, 2 bad
usage or input, or an allocation that failed (MemoryError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# lazy modules: only the commands that enumerate read them, and so run them
from . import oracle, sweep
from .closedform import vp_closed
from .cubicres import cubic_class, is_cubic_residue
from .errors import CubecountError
from .modarith import Prime
from .quadform import represent_a3b, represent_l27m

__all__ = ["main"]


def _parse_p(text: str) -> Prime:
    try:
        p = int(text)
    except ValueError:
        raise ValueError(f"--p {text!r}: expected an integer") from None
    return Prime(p)


def _parse_a(text: str, p: int) -> int:
    """Parse the family parameter: an integer or a rational 'u/v'."""
    u, slash, v = text.partition("/")
    try:
        u, v = int(u), int(v) if slash else 1
    except ValueError:
        raise ValueError(f"--a {text!r}: expected an integer or u/v") from None
    if v % p == 0:
        raise ValueError(f"--a {text!r}: the denominator is 0 mod {p}")
    a = u * pow(v, -1, p) % p
    if a == 0:
        raise ValueError(f"a = {text} reduces to 0 mod {p}")
    return a


def _emit(records: list[dict], fmt: str, fields: tuple[str, ...] | None = None) -> None:
    if fmt == "csv":
        import csv  # here, as the default json output never needs it

        writer = csv.writer(sys.stdout, lineterminator="\n")
        if records:
            writer.writerow(records[0].keys())
        elif fields:
            writer.writerow(fields)
        for rec in records:
            writer.writerow(rec.values())
    else:
        for rec in records:
            sys.stdout.write(json.dumps(rec) + "\n")


def cmd_eval(args) -> int:
    p = _parse_p(args.p)
    a = _parse_a(args.a, p)
    got = vp_closed(a, p)
    rec = {
        "p": int(p),
        "a_reduced": a,
        "v_closed": got.v,
        "case": got.path_case,
        "A": got.A,
        "B": got.B,
    }
    code = 0
    if args.check:
        vb = oracle.vp_brute(oracle.RationalMap.x2_plus_a_over_x(a), p, oracle.Domain.NONZERO).v
        rec["v_brute"] = vb
        rec["match"] = got.v == vb
        if not rec["match"]:
            code = 1
    _emit([rec], args.format)
    return code


def cmd_represent(args) -> int:
    p = _parse_p(args.p)
    quad = represent_a3b(p)
    eis = represent_l27m(p)
    _emit(
        [{"p": int(p), "A": quad.A, "B": quad.B, "L": eis.L, "M": eis.M}],
        args.format,
    )
    return 0


def cmd_classify(args) -> int:
    p = _parse_p(args.p)
    a = _parse_a(args.a, p)
    if p % 3 == 1:
        tag = cubic_class(a, p, represent_a3b(p)).name
    else:
        tag = None
    _emit(
        [{"p": int(p), "a": a, "class": tag, "is_cubic_residue": is_cubic_residue(a, p)}],
        args.format,
    )
    return 0


def cmd_sweep(args) -> int:
    max_p = args.max_p
    if max_p < 5:
        raise ValueError(f"--max-p {max_p}: no primes above 3 in range")
    names = None if args.checks is None else [s for s in args.checks.split(",") if s]
    # run_sweep rejects an unknown or repeated name before doing any work
    report = sweep.run_sweep(max_p, names, jobs=args.jobs)
    summary = {
        "prime_range": list(report.prime_range),
        "primes_checked": report.primes_checked,
        "pairs_checked": report.pairs_checked,
        "mismatches": len(report.mismatches),
        "checks": report.config["checks"],
    }
    if args.format == "csv":
        _emit(report.mismatches, "csv", fields=sweep.ROW_FIELDS)
        print(json.dumps(summary), file=sys.stderr)
    else:
        _emit(report.mismatches + [summary], "json")
    print(
        f"sweep: {report.primes_checked} primes, {report.pairs_checked} pairs, "
        f"{len(report.mismatches)} mismatches in {report.elapsed:.2f}s "
        f"(jobs={report.config['jobs']})",
        file=sys.stderr,
    )
    return 1 if report.mismatches else 0


def _selftest_vectors() -> list[tuple[str, object, object]]:
    """(description, got, want) rows over the embedded hand-checked values."""
    vecs: list[tuple[str, object, object]] = []
    for p, a, want in ((5, 1, 3), (7, 2, 3), (7, 1, 4)):
        vecs.append((f"vp_closed(a={a}, p={p})", vp_closed(a, p).v, want))
        vecs.append(
            (
                f"vp_brute(x^2+{a}/x, p={p})",
                oracle.vp_brute(oracle.RationalMap.x2_plus_a_over_x(a), p, oracle.Domain.NONZERO).v,
                want,
            )
        )
    for p, want_ab, want_lm in ((7, (-2, 1), (1, 1)), (13, (1, 2), (-5, 1))):
        quad = represent_a3b(p)
        eis = represent_l27m(p)
        vecs.append((f"represent_a3b({p})", (quad.A, quad.B), want_ab))
        vecs.append((f"represent_l27m({p})", (eis.L, eis.M), want_lm))
    vecs.append(
        (
            "vp_brute(x^2+4/x, p=7)",
            oracle.vp_brute(oracle.RationalMap.x2_plus_a_over_x(4), 7, oracle.Domain.NONZERO).v,
            6,
        )
    )
    vecs.append(("jacobsthal_brute(1, 7)", oracle.jacobsthal_brute(1, 7), 3))
    return vecs


def cmd_selftest(args) -> int:
    failures = 0
    for name, got, want in _selftest_vectors():
        if got == want:
            print(f"ok   {name} = {want}")
        else:
            print(f"FAIL {name}: got {got}, want {want}")
            failures += 1
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubecount",
        description="Residue counts of x^2 + a/x mod p: closed forms, "
        "enumeration, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="output format (default: json, one object per line)",
        )

    sp = sub.add_parser("eval", help="closed-form count of x^2 + a/x")
    sp.add_argument("--p", required=True, help="prime modulus (> 3)")
    sp.add_argument("--a", required=True, help="family parameter, int or u/v")
    sp.add_argument(
        "--check",
        action="store_true",
        help="also enumerate and compare (exit 1 on mismatch)",
    )
    add_format(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("represent", help="A,B and L,M for p = 1 (mod 3)")
    sp.add_argument("--p", required=True, help="prime = 1 (mod 3)")
    add_format(sp)
    sp.set_defaults(func=cmd_represent)

    sp = sub.add_parser("classify", help="cubic class of a mod p")
    sp.add_argument("--p", required=True, help="prime modulus (> 3)")
    sp.add_argument("--a", required=True, help="residue to classify, int or u/v")
    add_format(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("sweep", help="verify identities over all primes <= max-p")
    sp.add_argument("--max-p", type=int, required=True, help="sweep bound (>= 5)")
    sp.add_argument(
        "--checks",
        help="comma-separated check names (default: all)",
    )
    sp.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="processes that check primes, this one included (default: all cores); "
        "output does not depend on it",
    )
    add_format(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("selftest", help="run the embedded hand-checked vectors")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes the -3/5 of "--a -3/5" for an option, but parses "--a=-3/5"
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--a" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = ["--a=" + argv[i]]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CubecountError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
