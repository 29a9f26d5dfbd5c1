"""Command-line front end.

Subcommands:

* certify      -- run the satellite pipeline on a pattern/companion pair
                  (or re-validate a stored certificate with --replay)
* cable        -- certify a cable and compare with the exact criterion
* sweep        -- tabulate sufficient vs exact verdicts over a (p, q) grid
* set-algebra  -- evaluate union / interior / cover on serialized sets
* oracle       -- brute-force cross-checks of the exact cover test

Exit codes: 0 certified / complete, 1 not certified, 2 rejected,
3 input errors (including a certificate that is malformed or fails to
replay).  All numbers in files are decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from math import gcd

from .certify import (
    CERTIFIED,
    NOT_CERTIFIED,
    REJECTED,
    Certificate,
    certify_cable,
    certify_satellite,
    replay_certificate,
)
from .knots import companion_from_json
from .patterns import pattern_from_json, torus_pattern
from .projective import SlopeSet, covers_circle
from .slopes import farey_enumerate

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_REJECTED = 2
EXIT_INPUT = 3

_VERDICT_EXIT = {CERTIFIED: EXIT_OK, NOT_CERTIFIED: EXIT_NOT_CERTIFIED, REJECTED: EXIT_REJECTED}


class InputError(Exception):
    pass


def _load_json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text.strip()  # allow bare shortcut names like trefoil


def _parse_companion(text: str):
    try:
        return companion_from_json(_load_json_arg(text))
    except (ValueError, LookupError, TypeError) as e:
        raise InputError(f"bad companion {text!r}: {e}")


def _parse_pattern(text: str):
    try:
        return pattern_from_json(_load_json_arg(text))
    except (ValueError, LookupError, TypeError) as e:
        raise InputError(f"bad pattern {text!r}: {e}")


def _emit_certificate(cert: Certificate, args, out) -> int:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(cert.to_json() + "\n")
    if args.format == "json":
        print(cert.to_json(), file=out)
    else:
        if cert.verdict == CERTIFIED:
            assert cert.params is not None
            print(f"CERTIFIED: r={cert.params.r} surgery is an L-space", file=out)
        elif cert.verdict == REJECTED:
            print(f"REJECTED: {cert.reason}", file=out)
        else:
            print(f"NOT CERTIFIED: {cert.reason}", file=out)
    return _VERDICT_EXIT[cert.verdict]


def _cmd_certify(args, out) -> int:
    if args.replay:
        try:
            with open(args.replay) as fh:
                verdict = replay_certificate(Certificate.from_json(fh.read()))
        except (ValueError, LookupError, TypeError, AttributeError) as e:
            raise InputError(f"cannot replay {args.replay}: {type(e).__name__}: {e}")
        print(f"REPLAY OK: verdict {verdict} reproduced", file=out)
        return _VERDICT_EXIT[verdict]
    if not args.pattern or not args.companion:
        raise InputError("certify needs --pattern and --companion (or --replay)")
    pattern = _parse_pattern(args.pattern)
    companion = _parse_companion(args.companion)
    cert = certify_satellite(pattern, companion)
    return _emit_certificate(cert, args, out)


def _cmd_cable(args, out) -> int:
    companion = _parse_companion(args.companion)
    try:
        cmp = certify_cable(companion, args.p, args.q)
    except ValueError as e:
        raise InputError(str(e))
    code = _emit_certificate(cmp.certificate, args, out)
    exact = "L-space knot" if cmp.exact else "not an L-space knot"
    print(f"exact criterion: the ({args.p},{args.q})-cable is {exact}", file=out)
    if cmp.gap:
        print("gap: exact criterion holds but sufficient conditions do not", file=out)
    return code


def _split_names(text: str) -> list[str]:
    """Split a comma-separated companion list, ignoring commas inside
    parentheses so names like T(2,5) survive."""
    names, buf, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            names.append("".join(buf))
            buf = []
            continue
        depth += {"(": 1, ")": -1}.get(ch, 0)
        buf.append(ch)
    names.append("".join(buf))
    return [n.strip() for n in names if n.strip()]


def _cmd_sweep(args, out) -> int:
    names = _split_names(args.companion)
    companions = [(name, _parse_companion(name)) for name in names]
    rows = []
    for name, k in companions:
        for p in range(2, args.p_max + 1):
            for q in range(-args.q_max, args.q_max + 1):
                if gcd(p, q) != 1:
                    continue
                cmp = certify_cable(k, p, q)
                rows.append(
                    (
                        p,
                        q,
                        name,
                        cmp.certificate.verdict,
                        "lspace" if cmp.exact else "not_lspace",
                        "gap" if cmp.gap else "",
                    )
                )
    rows.sort(key=lambda row: (row[2], row[0], row[1]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["p", "q", "companion", "sufficient_verdict", "exact_verdict", "gap_flag"]
    )
    writer.writerows(rows)
    text = buf.getvalue().rstrip("\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=out)
    return EXIT_OK


def _cmd_set_algebra(args, out) -> int:
    try:
        if args.covers:
            s1, s2 = (SlopeSet.parse(t) for t in args.covers)
            if covers_circle(s1, s2):
                print("FULL", file=out)
                return EXIT_OK
            print(str(s1.union(s2)), file=out)
            return EXIT_NOT_CERTIFIED
        if args.union:
            s1, s2 = (SlopeSet.parse(t) for t in args.union)
            print(str(s1.union(s2)), file=out)
            return EXIT_OK
        if args.interior:
            print(str(SlopeSet.parse(args.interior).interior()), file=out)
            return EXIT_OK
    except ValueError as e:
        raise InputError(str(e))
    raise InputError("set-algebra needs one of --covers, --union, --interior")


def _random_set(rng: random.Random, endpoints) -> SlopeSet:
    n_arcs = rng.choice([1, 1, 2])
    arcs = []
    for _ in range(n_arcs):
        a, b = rng.sample(endpoints, 2)
        arcs.append((a, b, rng.random() < 0.5, rng.random() < 0.5))
    out = SlopeSet.empty()
    for a, b, ac, bc in arcs:
        out = out.union(SlopeSet.arc(a, b, ac, bc))
    return out


def _cmd_oracle(args, out) -> int:
    rng = random.Random(args.seed)
    endpoints = farey_enumerate(12)
    sample = farey_enumerate(args.max_den)
    bad = 0
    for _ in range(args.trials):
        s1 = _random_set(rng, endpoints)
        s2 = _random_set(rng, endpoints)
        exact = covers_circle(s1, s2)
        brute = all(s1.contains(x) or s2.contains(x) for x in sample)
        if exact != brute:
            bad += 1
            print(f"DISCREPANCY: s1={s1} s2={s2} exact={exact} brute={brute}", file=out)
    print(
        f"oracle: {args.trials} random pairs at max_den={args.max_den}, "
        f"{bad} discrepancies",
        file=out,
    )
    return EXIT_OK if bad == 0 else EXIT_NOT_CERTIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lspacesat",
        description="Exact certification of satellite L-space knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="certify a satellite")
    cert.add_argument("--pattern", help="pattern JSON")
    cert.add_argument("--companion", help="companion JSON or shortcut name")
    cert.add_argument("--out", help="write the certificate JSON here")
    cert.add_argument("--format", choices=["text", "json"], default="text")
    cert.add_argument("--replay", help="re-validate a stored certificate")

    cable = sub.add_parser("cable", help="certify a cable and compare")
    cable.add_argument("--companion", required=True)
    cable.add_argument("--p", type=int, required=True)
    cable.add_argument("--q", type=int, required=True)
    cable.add_argument("--out")
    cable.add_argument("--format", choices=["text", "json"], default="text")

    sweep = sub.add_parser("sweep", help="sufficient vs exact verdicts on a grid")
    sweep.add_argument("--p-max", type=int, required=True)
    sweep.add_argument("--q-max", type=int, required=True)
    sweep.add_argument("--companion", required=True, help="comma-separated names")
    sweep.add_argument("--out")

    sets = sub.add_parser("set-algebra", help="exact slope-set operations")
    sets.add_argument("--covers", nargs=2, metavar=("S1", "S2"))
    sets.add_argument("--union", nargs=2, metavar=("S1", "S2"))
    sets.add_argument("--interior", metavar="S")

    oracle = sub.add_parser("oracle", help="brute-force cover cross-checks")
    oracle.add_argument("--max-den", type=int, default=50)
    oracle.add_argument("--trials", type=int, default=500)
    oracle.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "certify": _cmd_certify,
    "cable": _cmd_cable,
    "sweep": _cmd_sweep,
    "set-algebra": _cmd_set_algebra,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    for key in ("p_max", "q_max", "max_den", "trials"):
        value = getattr(args, key, None)
        if value is not None and value < 1:
            print(f"error: --{key.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_INPUT
    try:
        return _COMMANDS[args.command](args, out)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
