"""Command-line front end.

Subcommands:

* certify      -- run the satellite pipeline on a pattern/companion pair,
                  or with --replay re-run it on the pattern and companion
                  a stored certificate carries and compare the text it
                  writes with the stored text
* explain      -- replay a stored certificate as certify --replay does,
                  then print its params a, b and r, each check with its
                  statement and values, and each head key it trusts
                  with its value
* cable        -- certify a cable and compare with the exact criterion
* sweep        -- tabulate sufficient vs exact verdicts over a (p, q) grid,
                  for --companion given once per companion in any form
                  certify takes
* set-algebra  -- evaluate cover (printing the union) or interior on
                  serialized sets
* oracle       -- brute-force cross-checks of the exact cover test

Exit codes: 0 certified / complete, 1 not certified, 2 rejected, 3 any
other end: bad input (including an empty --out, --replay or explain
path, JSON nested too deeply, an integer of more digits than Python
reads or writes, a one-bridge braid of over 10⁶ strands, a certificate
of another format, formats 1 to 4 included, or one that is malformed,
holds a float, has keys other than those certificates are written with,
holds its companion in another form than its six facts, or is not the
text the re-run writes), an output stream that cannot encode the text,
or an engine bug: a ConsistencyError (a check that holds by construction
failing) or any other exception, an "internal error".
main alone turns an exception into exit 3; exit 1 means "not certified".
Pattern and companion JSON is read strictly: each object holds exactly
its documented keys, none twice, integers are JSON integers, [p, q] two
of them, flags JSON true or false, names JSON strings, table twist keys
decimal integers and T(p,q) digits ASCII.  --replay stands alone: any
other certify option beside it, even an empty one, exits 3.
Files and JSON arguments are read as UTF-8, the encoding of JSON, and
files written so, whatever the locale; only stdout follows it.  An
argument that is not UTF-8 exits 3.
Size options request work: sweep --p-max/--q-max costs about one certify
per grid point for each companion, oracle --trials about 720 containment
tests per trial.  Input data (patterns, companions, certificates,
slope-set texts) costs work polynomial in its text's length; one-bridge
width, the one input that broke this, is capped.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from collections import Counter
from math import gcd

from .certify import (
    CERTIFIED,
    NOT_CERTIFIED,
    REJECTED,
    Certificate,
    ConsistencyError,
    StoredCertificate,
    certify_cable,
    certify_satellite,
    render_statement,
    replay_certificate,
)
from .knots import companion_from_json
from .patterns import UnknownTwistError, pattern_from_json
from .projective import Arc, SlopeSet, covers_circle
from .slopes import farey_enumerate

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_REJECTED = 2
EXIT_INPUT = 3

_VERDICT_EXIT = {CERTIFIED: EXIT_OK, NOT_CERTIFIED: EXIT_NOT_CERTIFIED, REJECTED: EXIT_REJECTED}
_ERROR_CHARS = 500  # a longer error message keeps both ends: the input's start, the reason
_QUOTED_CHARS = 100  # an input quoted in an error message keeps its two ends


class InputError(Exception):
    pass


def _clip(text: str, limit: int) -> str:
    """text, or its first and last limit // 2 characters with … between."""
    if len(text) <= limit:
        return text
    return f"{text[:limit // 2]}…{text[-(limit // 2):]}"


# What the readers below raise on malformed input: a refused value, a
# one-bridge link (UnknownTwistError) or JSON nested too deeply.  Anything
# else is an engine bug, which main reports as one.
_BAD_INPUT = (ValueError, UnknownTwistError, RecursionError)


def _no_repeated_keys(pairs: list) -> dict:
    """A decoded JSON object; its first repeated key in order is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"repeated key {next(k for k in obj if counts[k] > 1)!r}")
    return obj


_ARG_JSON = json.JSONDecoder(object_pairs_hook=_no_repeated_keys)  # built once, not per call


def _reason(e: Exception) -> str:
    """The message of e, with the interpreter's limit on the digits of an
    integer stated without its advice on raising that limit."""
    if "set_int_max_str_digits" in str(e):
        return f"an integer has more than {sys.get_int_max_str_digits()} digits"
    return str(e)


def _parse_json_arg(kind: str, parse, text: str):
    """parse() applied to the JSON text, or to a bare name like trefoil.
    The text is read as UTF-8 whatever the locale: bytes a non-UTF-8
    locale could not decode stand in it as surrogates (PEP 383), and go
    back to bytes first, so one command line gives one certificate."""
    try:
        text = text.encode("utf-8", "surrogateescape").decode("utf-8")
        try:
            obj = _ARG_JSON.decode(text)
        except json.JSONDecodeError:
            obj = text.strip()
        return parse(obj)
    except _BAD_INPUT as e:
        # The reason may quote the input again, so quote only its ends
        # here: the whole message's clip then keeps the reason's start.
        raise InputError(f"bad {kind} {_clip(text, _QUOTED_CHARS)!r}: {_reason(e)}")


def _write_text(path: str, text: str) -> None:
    """Write text and a newline to path in UTF-8, whatever the locale.
    An argument's bytes that the locale could not decode stand in the
    text as surrogates (PEP 383) and go back out as those bytes."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(text + "\n")


def _emit_certificate(cert: Certificate, args, out) -> int:
    if args.out or args.format == "json":
        text = cert.to_json()
    if args.out:
        _write_text(args.out, text)
    if args.format == "json":
        print(text, file=out)
    else:
        if cert.verdict == CERTIFIED:
            assert cert.params is not None
            print(f"CERTIFIED: r={cert.params.r} surgery is an L-space", file=out)
        elif cert.verdict == REJECTED:
            print(f"REJECTED: {cert.reason}", file=out)
        else:
            print(f"NOT CERTIFIED: {cert.reason}", file=out)
    return _VERDICT_EXIT[cert.verdict]


def _replay(path: str, out) -> tuple[StoredCertificate, str]:
    """The certificate stored at path and its verdict, once a re-run has
    written its text."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = Certificate.from_json(fh.read())
        verdict = replay_certificate(stored)
    except _BAD_INPUT as e:
        raise InputError(f"cannot replay {path}: {type(e).__name__}: {_reason(e)}")
    print(f"REPLAY OK: verdict {verdict} reproduced", file=out)
    return stored, verdict


def _cmd_certify(args, out) -> int:
    if args.replay is not None:
        options = ("pattern", "companion", "out", "format")
        given = [f"--{o}" for o in options if getattr(args, o) is not None]
        if given:
            raise InputError(f"--replay cannot be combined with {', '.join(given)}")
        return _VERDICT_EXIT[_replay(args.replay, out)[1]]
    if args.pattern is None or args.companion is None:
        raise InputError("certify needs --pattern and --companion (or --replay)")
    pattern = _parse_json_arg("pattern", pattern_from_json, args.pattern)
    companion = _parse_json_arg("companion", companion_from_json, args.companion)
    cert = certify_satellite(pattern, companion)
    return _emit_certificate(cert, args, out)


def _cmd_explain(args, out) -> int:
    stored, verdict = _replay(args.certificate, out)
    # Replay accepted the stored text, so it is the re-run's text.
    cert = json.loads(stored.text)
    if cert["reason"] is not None:
        print(f"reason: {cert['reason']}", file=out)
    # The lemma statements name a, b and r, which the checks do not restate.
    if (params := cert["params"]) is not None:
        print(f"params: a={params['a']} b={params['b']} r={params['r']}", file=out)
    for check in cert["checks"]:
        mark = "ok" if check["pass"] else "FAIL"
        values = json.dumps(check["values"], ensure_ascii=False)
        print(f"[{mark}] {check['id']}  {render_statement(check)}  {values}", file=out)
    print("trusted_inputs:", file=out)
    for key in cert["trusted_inputs"]:
        print(f"  {key}: {json.dumps(cert[key], ensure_ascii=False)}", file=out)
    return _VERDICT_EXIT[verdict]


def _cmd_cable(args, out) -> int:
    companion = _parse_json_arg("companion", companion_from_json, args.companion)
    cmp = certify_cable(companion, args.p, args.q)
    code = _emit_certificate(cmp.certificate, args, out)
    exact = "an L-space knot" if cmp.exact else "not an L-space knot"
    print(f"exact criterion: the ({args.p},{args.q})-cable is {exact}", file=out)
    if cmp.gap:
        print("gap: exact criterion holds but sufficient conditions do not", file=out)
    return code


def _cmd_sweep(args, out) -> int:
    companions = [
        (text, _parse_json_arg("companion", companion_from_json, text)) for text in args.companion
    ]
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
        _write_text(args.out, text)
    else:
        print(text, file=out)
    return EXIT_OK


def _cmd_set_algebra(args, out) -> int:
    if args.covers:
        s1, s2 = (SlopeSet.parse(t) for t in args.covers)
        u = s1.union(s2)
        print(str(u), file=out)
        return EXIT_OK if u.is_full else EXIT_NOT_CERTIFIED
    print(str(SlopeSet.parse(args.interior).interior()), file=out)
    return EXIT_OK


def random_slope_set(rng: random.Random, endpoints) -> SlopeSet:
    """A random union of one or two arcs with ends drawn from endpoints."""
    return SlopeSet.from_arcs(
        Arc(*rng.sample(endpoints, 2), bool(rng.getrandbits(1)), bool(rng.getrandbits(1)))
        for _ in range(rng.choice([1, 1, 2]))
    )


def _cmd_oracle(args, out) -> int:
    rng = random.Random(args.seed)
    endpoints = farey_enumerate(12)
    # Neighbours of height <= 12 have mediants of height <= 24, so the sample
    # holds every arc end and a slope in every gap: it decides a cover exactly.
    sample = farey_enumerate(2 * 12)
    bad = 0
    for _ in range(args.trials):
        s1 = random_slope_set(rng, endpoints)
        s2 = random_slope_set(rng, endpoints)
        exact = covers_circle(s1, s2)
        brute = all(s1.contains(x) or s2.contains(x) for x in sample)
        if exact != brute:
            bad += 1
            print(f"DISCREPANCY: s1={s1} s2={s2} exact={exact} brute={brute}", file=out)
    print(
        f"oracle: {args.trials} random pairs on {len(sample)} slopes, {bad} discrepancies",
        file=out,
    )
    return EXIT_OK if bad == 0 else EXIT_NOT_CERTIFIED


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print usage and exit 2, which reads as REJECTED.
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    main() call: parse_args leaves it unchanged."""
    parser = _Parser(
        prog="lspacesat",
        description="Exact certification of satellite L-space knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="certify a satellite")
    cert.add_argument("--pattern", help="pattern JSON")
    cert.add_argument("--companion", help="companion JSON or shortcut name")
    cert.add_argument("--out", type=_path, help="write the certificate JSON here")
    cert.add_argument("--format", choices=["text", "json"], help="text unless json")
    cert.add_argument("--replay", type=_path, help="re-validate a stored certificate, given alone")

    explain = sub.add_parser("explain", help="replay a certificate and print its checks")
    explain.add_argument("certificate", type=_path, help="a stored certificate")

    cable = sub.add_parser("cable", help="certify a cable and compare")
    cable.add_argument("--companion", required=True)
    cable.add_argument("--p", type=int, required=True)
    cable.add_argument("--q", type=int, required=True)
    cable.add_argument("--out", type=_path)
    cable.add_argument("--format", choices=["text", "json"], default="text")

    sweep = sub.add_parser("sweep", help="sufficient vs exact verdicts on a grid")
    sweep.add_argument("--p-max", type=_positive, required=True)
    sweep.add_argument("--q-max", type=_positive, required=True)
    sweep.add_argument(
        "--companion", action="append", required=True, help="companion JSON or name; repeatable"
    )
    sweep.add_argument("--out", type=_path)

    sets = sub.add_parser("set-algebra", help="exact slope-set operations")
    operation = sets.add_mutually_exclusive_group(required=True)
    operation.add_argument("--covers", nargs=2, metavar=("S1", "S2"))
    operation.add_argument("--interior", metavar="S")

    oracle = sub.add_parser("oracle", help="brute-force cover cross-checks")
    oracle.add_argument("--trials", type=_positive, default=500)
    oracle.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "certify": _cmd_certify,
    "explain": _cmd_explain,
    "cable": _cmd_cable,
    "sweep": _cmd_sweep,
    "set-algebra": _cmd_set_algebra,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except ConsistencyError as e:
        message = f"internal consistency check failed: {e}"
    except (InputError, OSError, ValueError) as e:
        message = _reason(e)
    except Exception as e:  # an engine bug, as a ConsistencyError is
        message = f"internal error: {type(e).__name__}: {e}"
    print(f"error: {_clip(message, _ERROR_CHARS)}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
