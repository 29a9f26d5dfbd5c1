"""Certification pipeline for satellite L-space knots.

Given combinatorial facts about a pattern P in the solid torus and a
companion knot K, decide whether the sufficient conditions hold that
force the satellite P(K) to be an L-space knot, and emit an auditable
certificate.  The argument chooses twisting parameters (a, b, r),
verifies exact integer inequalities that guarantee a closed arc of
L-space filling slopes on the r-surgered pattern complement, transports
its interior through the meridian-longitude swap, and checks that
together with the companion's strict L-space slopes it covers all of
QP^1.

Everything is exact; a Certified verdict means "r-surgery on P(K) is an
L-space, so P(K) is an L-space knot", with r recorded.

A certificate carries its own pattern and companion, so replay is the
pipeline re-run on those inputs and compared with what the certificate
records; nothing recorded is trusted on its own.

Certificates are written in format 5, which states each fact once: the
arc [1/a → ∞ → 1/b] is read off params, the lemma records only what
Theorem 1 has not already checked, and a check records no statement.  A
lemma check keeps only the sides it compares and never restates a value
an earlier field holds: a, b and r are read off params, w off thm1.2 and
g off lem.4, so lem.4 holds (rhs, g), its left side being params.r,
which the pipeline picks equal to rhs, lem.5 (lhs, rhs) and
lem.sandwich (aw2, bw2).  trusted_inputs names the head keys the
certificate takes as given and restates none of their facts:
["companion"] for a braided pattern, which derives every fact,
and ["companion", "pattern"] for a table, which asserts its facts
(PatternFacts.asserts_facts).

A certificate is exactly the text to_json writes, as a DER encoding is
for X.509: one text per record.  Each check is built once, as a record
(id, passed, values) of a bool and a tuple of the values in the order
the certificate stores them.  to_json writes the checks one pipeline
stage at a time, by how far the pipeline got (0, 2, 5, 6 or 11 records;
any other count is refused): the necessary checks, thm1.1 to thm1.3 with
thm1.4 once reached, and the proof, lem.4 to hrrw.cover.  Each stage's
writer unpacks its records by position into one f-string and is the one
place that names their value keys.  Integers are written as
int.__repr__, flags as true and false, strings through json's ASCII
escape, and the inputs through pattern_to_text and companion_to_text, so
the text is the one json.dumps writes for the same record, and a
certificate's checks as dicts, {"id", "pass", "values"}, are its text
decoded (Certificate.checks).  What a check states is a fixed text per
id (STATEMENTS), filled in from its values by render_statement, which
lspacesat explain prints beside each check; only thm1.3 and lem.7 read a
value, the twist.

from_json reads only the head of a text: "format": 5 first (a text whose
format is not the integer 5 is refused, and one without the key is
format 1), then the pattern and the companion, as its six facts.
from_json looks the companion up in one table, _COMPANIONS, by the text
between the companion key and the verdict key to_json writes next; a
miss decodes the companion and keeps its facts under the text to_json
writes for them, for at most 256 companions, the oldest dropped first,
so a sweep's handful of companions is decoded once each.  to_json reads
no table: it writes companion_to_text afresh.  Replay re-runs the
pipeline on those two inputs and accepts the certificate only when the
re-run writes the stored text, so no second text replays as the same
certificate: not a reformatted one, not one holding 1 for true, and not
one repeating a key.  The file is UTF-8, so a non-ASCII character may
stand in it for the \\u escape to_json writes.  Only a refused text is
decoded in full, to name its format, its first top-level key that
differs from the re-run's, or else its form.

The gluing cover (hrrw.cover) is computed in closed form, which is
exact once every check before it passes (if one fails, the run raises
below):

* thm1.1 makes K a nontrivial L-space knot, so its strict L-space slopes
  s1 are the open arc (2g(K)-1, ∞);
* lem.sandwich gives a < b, so the swap p/q ↦ q/p takes the pattern
  side, the open arc 1/a → ∞ → 1/b, to the open arc b → ∞ → a, whose
  text s2 is (b, inf] ∪ [-inf, a).

The two open arcs cover QP^1 exactly when s1 holds every slope outside
s2, the closed arc [a, b], that is when a > 2g(K) - 1.  Both texts are
written straight from the integers 2g(K) - 1, a and b, each as n/1, the
text str(Slope(n)) gives an integer n, so the cover builds no Slope and
certify_satellite reads no companion table.  The general route
(SlopeSet.from_arcs, GluingMap.image_of_set, covers_circle, str) stays
in the test suite as the oracle this closed form is checked against.

Each stage returns its list of checks and nothing that can be read off
them: necessary_check and check_lemma, while Theorem 1 and the gluing
cover append theirs inside certify_satellite.  Theorem 1's checks decide
the verdict.  A REJECTED reason is the id of the first failing
necessary.* check, and a NOT_CERTIFIED reason the id of the first failing
thm1.* check (_first_failure), or unknown-twist:necessary or
unknown-twist:thm1.3 when the pattern cannot answer the twist that stage
reads.  Past thm1.4 the pipeline proves rather than decides: the lemma
checks and the cover are the proof of Theorem 1 and hold by the choice
of (a, b, r), so one of them failing is an engine bug and raises
ConsistencyError, naming the check, the pattern and the companion.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from typing import NamedTuple

from .knots import (
    _FLAG,
    KnotFacts,
    cable_is_lspace_exact,
    companion_to_text,
    facts_from_json,
    json_object,
)
from .patterns import (
    ConsistencyError,
    PatternFacts,
    UnknownTwistError,
    pattern_from_json,
    pattern_to_text,
    torus_pattern,
)

CERTIFIED = "CERTIFIED"
NOT_CERTIFIED = "NOT_CERTIFIED"
REJECTED = "REJECTED"


class ReplayMismatchError(ValueError):
    """Re-running the pipeline did not reproduce a stored certificate."""


# -- audit records ------------------------------------------------------


# What each check states, by id; the certificate stores the values that
# render_statement fills in.
STATEMENTS = {
    "necessary.fibered": "companion and P(U) are fibered",
    "necessary.winding": "winding number is nonzero",
    "thm1.1": "companion is a nontrivial L-space knot",
    "thm1.2": "winding >= 2 with a minimal meridional disk",
    "thm1.3": "P(U, {twist}) is an L-space knot",
    "thm1.4": "negative L-space tail asserted for large negative twists",
    "lem.4": "r >= 2g(P) + a·w(2w-1) - 1",
    "lem.5": "b·w >= 2g(P) + r - 1 (exact form of b >= (2g(P)+r-1)/w)",
    "lem.7": "P(U, {twist}) is a negative L-space knot",
    "lem.sandwich": "a·w² < r < b·w² (so 1/b < w²/r < 1/a)",
    "hrrw.cover": "strict slope sets of the two sides jointly cover QP^1",
}


def render_statement(check: dict) -> str:
    """The statement of a check as a certificate writes it, {"id",
    "pass", "values"}: its id's template filled in from its values."""
    return STATEMENTS[check["id"]].format_map(check["values"])


def _first_failure(checks: list[tuple]) -> str | None:
    """The id of the first failing check, or None: the reason of every
    verdict but an unknown twist, and the check a ConsistencyError names."""
    for id, passed, _ in checks:
        if not passed:
            return id
    return None


@dataclass(frozen=True, slots=True)
class LemmaParams:
    a: int
    b: int
    r: int


def _no_floats(text: str):
    raise ValueError(f"certificates hold integers only, got {text}")


# Certificates are read through this decoder: a float, NaN or Infinity
# could compare equal to the integer the re-run records (3.0 == 3).
_CERTIFICATE_JSON = json.JSONDecoder(parse_float=_no_floats, parse_constant=_no_floats)

_FORMAT = 5
_HEAD = f'{{"format": {_FORMAT}, "pattern": '
_COMPANION_KEY = ', "companion": '
_VERDICT_KEY = ', "verdict": '

# The facts of each companion from_json has decoded, under the text to_json
# writes for them.
_COMPANIONS: dict[str, KnotFacts] = {}

# The head keys a certificate takes as given, by whether its pattern
# asserts facts.
_TRUSTED = {False: '["companion"]', True: '["companion", "pattern"]'}

# The writers of the three pipeline stages (see the module docstring).  thm1.3
# holds the knot P(U, twist) or, when the pattern cannot answer, the error.
def _necessary_text(fibered: tuple, winding: tuple) -> str:
    (_, ok, (companion, pattern)), (_, w_ok, (w,)) = fibered, winding
    return (
        f'{{"id": "necessary.fibered", "pass": {_FLAG[ok]}, "values": '
        f'{{"companion_fibered": {_FLAG[companion]}, "pattern_fibered": {_FLAG[pattern]}}}}}, '
        f'{{"id": "necessary.winding", "pass": {_FLAG[w_ok]}, "values": {{"winding": {w}}}}}'
    )


def _theorem1_text(k: tuple, p: tuple, twist: tuple, tail: tuple | None = None) -> str:
    (_, ok1, (lspace, unknot)), (_, ok2, (w, disk)), (_, ok3, (n, knot, error)) = k, p, twist
    about = f'"knot": {_string(knot)}' if error is None else f'"error": {_string(error)}'
    text = (
        f'{{"id": "thm1.1", "pass": {_FLAG[ok1]}, "values": '
        f'{{"is_lspace": {_FLAG[lspace]}, "is_unknot": {_FLAG[unknot]}}}}}, '
        f'{{"id": "thm1.2", "pass": {_FLAG[ok2]}, "values": '
        f'{{"winding": {w}, "disk": {_FLAG[disk]}}}}}, '
        f'{{"id": "thm1.3", "pass": {_FLAG[ok3]}, "values": {{"twist": {n}, {about}}}}}'
    )
    if tail is None:
        return text
    _, ok4, (threshold,) = tail
    values = f'{{"threshold": {"null" if threshold is None else threshold}}}'
    return f'{text}, {{"id": "thm1.4", "pass": {_FLAG[ok4]}, "values": {values}}}'


def _proof_text(lem4: tuple, lem5: tuple, lem7: tuple, sandwich: tuple, cover: tuple) -> str:
    (_, ok4, (rhs4, g)), (_, ok5, (lhs5, rhs5)), (_, ok7, (twist, knot)) = lem4, lem5, lem7
    (_, ok_sandwich, (aw2, bw2)), (_, ok_cover, (s1, s2)) = sandwich, cover
    return (
        f'{{"id": "lem.4", "pass": {_FLAG[ok4]}, "values": {{"rhs": {rhs4}, "g": {g}}}}}, '
        f'{{"id": "lem.5", "pass": {_FLAG[ok5]}, "values": {{"lhs": {lhs5}, "rhs": {rhs5}}}}}, '
        f'{{"id": "lem.7", "pass": {_FLAG[ok7]}, "values": '
        f'{{"twist": {twist}, "knot": {_string(knot)}}}}}, '
        f'{{"id": "lem.sandwich", "pass": {_FLAG[ok_sandwich]}, "values": '
        f'{{"aw2": {aw2}, "bw2": {bw2}}}}}, '
        f'{{"id": "hrrw.cover", "pass": {_FLAG[ok_cover]}, "values": '
        f'{{"s1": {_string(s1)}, "s2": {_string(s2)}}}}}'
    )


class StoredCertificate(NamedTuple):
    """A certificate's text, with the two inputs read off its head, which
    replay_certificate re-runs."""

    pattern: PatternFacts
    companion: KnotFacts
    text: str


@dataclass(slots=True)
class Certificate:
    pattern: PatternFacts
    companion: KnotFacts
    verdict: str
    reason: str | None
    params: LemmaParams | None
    records: list[tuple]

    @property
    def checks(self) -> list[dict]:
        """The checks as the certificate writes them, each a dict
        {"id", "pass", "values"}, decoded afresh from to_json on each
        read, so changing the list changes no record."""
        return json.loads(self.to_json())["checks"]

    def to_json(self) -> str:
        p, reason, records = self.params, self.reason, self.records
        if len(records) not in {0, 2, 5, 6, 11}:  # the stages the pipeline reached
            raise ValueError(f"a certificate holds 0, 2, 5, 6 or 11 checks, not {len(records)}")
        checks = [_necessary_text(*records[:2])] if records else []
        if len(records) > 2:
            checks.append(_theorem1_text(*records[2:6]))
        if len(records) > 6:
            checks.append(_proof_text(*records[6:]))
        params = "null" if p is None else f'{{"a": {p.a}, "b": {p.b}, "r": {p.r}}}'
        return (
            f"{_HEAD}{pattern_to_text(self.pattern)}{_COMPANION_KEY}"
            f"{companion_to_text(self.companion)}{_VERDICT_KEY}{_string(self.verdict)}, "
            f'"reason": {"null" if reason is None else _string(reason)}, '
            f'"params": {params}, "checks": [{", ".join(checks)}], '
            f'"trusted_inputs": {_TRUSTED[self.pattern.asserts_facts]}}}'
        )

    @classmethod
    def from_json(cls, text: str) -> StoredCertificate:
        """The pattern and companion read off the head of text, with text
        less one trailing newline, for replay_certificate to re-run and
        compare.  Raises ValueError unless text begins as to_json writes,
        naming the format when it is not 5, and unless its pattern and
        companion read as inputs."""
        if text.endswith("\n"):
            text = text[:-1]
        if not text.isascii():
            text = re.sub(r"[^\x00-\x7f]", lambda m: _string(m[0])[1:-1], text)
        # A text that does not begin as to_json writes is decoded in full,
        # only to word its refusal.
        try:
            if not text.startswith(_HEAD):
                raise ValueError
            pattern, end = _CERTIFICATE_JSON.raw_decode(text, len(_HEAD))
            if not text.startswith(_COMPANION_KEY, end):
                raise ValueError
            start = end + len(_COMPANION_KEY)
            # A kept text is a whole object that decodes to its facts: a
            # decoder started here would stop at its end with them.
            companion = _COMPANIONS.get(text[start : text.find(_VERDICT_KEY, start)])
            if companion is None:
                fields = _CERTIFICATE_JSON.raw_decode(text, start)[0]
        except ValueError:
            raise ValueError(_refusal(text)) from None
        if companion is None:
            companion = facts_from_json(fields, "companion: ")
            if len(_COMPANIONS) >= 256:
                del _COMPANIONS[next(iter(_COMPANIONS))]
            _COMPANIONS[companion_to_text(companion)] = companion
        return StoredCertificate(pattern_from_json(pattern), companion, text)


def _refusal(text: str, rerun: str | None = None) -> str:
    """Why text is not the certificate to_json writes (rerun, when given),
    decoded in full only to say so: its format, the first top-level key
    that differs, or else its form."""
    d = _CERTIFICATE_JSON.decode(text)
    if type(d) is not dict:
        return f"a certificate is a JSON object, got {type(d).__name__}"
    # The decoder reads no floats and true == 1, so only the JSON integer
    # 5 equals 5.
    found = d.get("format", 1)
    if found != _FORMAT:
        return f"certificate format {json.dumps(found)} is not {_FORMAT}"
    if rerun is not None:
        written = json.loads(rerun)
        try:
            json_object(d, dict.fromkeys(written, object))
        except ValueError as e:
            return str(e)
        for key, value in written.items():
            if d[key] != value:
                return (
                    f"field {key!r} differs from a re-run of the pipeline "
                    "on the certificate's pattern and companion"
                )
    return "not in the form certificates are written in"


# -- the Lemma machinery ------------------------------------------------


def check_lemma(p: PatternFacts, a: int, b: int, r: int) -> list[tuple]:
    """Audit the hypotheses guaranteeing that the closed arc from 1/a
    through ∞ to 1/b consists of L-space filling slopes of the
    r-surgered pattern complement.  Returns the checks lem.4, lem.5,
    lem.7 and lem.sandwich, whose passing together certifies the arc,
    as records (id, passed, values) that restate none of a, b, r and w.

    The lemma's other hypotheses are Theorem 1's, checked once there:
    w >= 2 and the meridional disk (thm1.2), and P(U, -a) an L-space
    knot (thm1.3, as a = 2g(K)).

    Raises UnknownTwistError when the pattern cannot answer P(U, -b)."""
    if min(a, b, r) < 1:
        raise ValueError("a, b, r must be positive integers")
    w = p.winding
    g = p.genus_s3
    facts_b = p.twisted_facts(-b)
    aw2, bw2 = a * w * w, b * w * w
    rhs4 = 2 * g + a * w * (2 * w - 1) - 1
    bw, rhs5 = b * w, 2 * g + r - 1
    return [
        ("lem.4", r >= rhs4, (rhs4, g)),
        ("lem.5", bw >= rhs5, (bw, rhs5)),
        ("lem.7", facts_b.is_neg_lspace, (-b, facts_b.name)),
        ("lem.sandwich", aw2 < r < bw2, (aw2, bw2)),
    ]


def choose_lemma_params(p: PatternFacts, g_k: int) -> LemmaParams:
    """Minimal parameters (a, b, r) for companion genus g_k: a = 2g_k,
    then the smallest r and b satisfying the Lemma inequalities and the
    pattern's negative-tail threshold."""
    if g_k < 1:
        raise ValueError("companion genus must be positive")
    if p.neg_lspace_threshold is None:
        raise ValueError(f"{p.name} carries no negative-side tail assertion")
    w = p.winding
    g = p.genus_s3
    a = 2 * g_k
    r = 2 * g + a * w * (2 * w - 1) - 1
    b = max(-(-(2 * g + r - 1) // w), p.neg_lspace_threshold, 1)
    return LemmaParams(a, b, r)


# -- necessary conditions ----------------------------------------------


def necessary_check(p: PatternFacts, k: KnotFacts) -> list[tuple]:
    """Obstructions: an L-space satellite forces both the companion and
    P(U) to be fibered, and nonzero winding.  A failing check rejects it.
    Returns the checks necessary.fibered and necessary.winding as records
    (id, passed, values)."""
    pu = p.twisted_facts(0)
    return [
        ("necessary.fibered", k.is_fibered and pu.is_fibered, (k.is_fibered, pu.is_fibered)),
        ("necessary.winding", p.winding != 0, (p.winding,)),
    ]


# -- the main pipeline --------------------------------------------------


def certify_satellite(p: PatternFacts, k: KnotFacts) -> Certificate:
    """Run the full sufficient-condition pipeline and return a
    self-contained certificate.  Every input gets a verdict; a check that
    fails after thm1.4 has passed raises ConsistencyError instead, since
    the proof of Theorem 1 makes it hold."""
    try:
        checks = necessary_check(p, k)
    except UnknownTwistError as e:
        return Certificate(p, k, NOT_CERTIFIED, f"unknown-twist:necessary ({e})", None, [])
    if reason := _first_failure(checks):
        return Certificate(p, k, REJECTED, reason, None, checks)

    n = -2 * k.genus
    try:
        f2g = p.twisted_facts(n)
    except UnknownTwistError as e:
        lspace, about, unknown = False, (n, None, str(e)), f"unknown-twist:thm1.3 ({e})"
    else:
        lspace, about, unknown = f2g.is_lspace, (n, f2g.name, None), None
    disk = p.has_minimal_meridional_disk
    checks += [
        ("thm1.1", k.is_lspace and not k.is_unknot, (k.is_lspace, k.is_unknot)),
        ("thm1.2", p.winding >= 2 and disk, (p.winding, disk)),
        ("thm1.3", lspace, about),
    ]
    if unknown:
        return Certificate(p, k, NOT_CERTIFIED, unknown, None, checks)
    threshold = p.neg_lspace_threshold
    checks.append(("thm1.4", threshold is not None, (threshold,)))
    if reason := _first_failure(checks):
        return Certificate(p, k, NOT_CERTIFIED, reason, None, checks)

    # Past thm1.4 the lemma and the cover are the proof of Theorem 1 and
    # hold by construction, so a failing check here is an engine bug.
    params = choose_lemma_params(p, k.genus)
    # No UnknownTwistError: the lemma reads only P(U, -b), and every
    # pattern answers it for b at or past its threshold.
    proof = check_lemma(p, params.a, params.b, params.r)
    # The cover in closed form (see the module docstring): s1 is
    # (2g-1, ∞) and s2 the swapped open arc b → ∞ → a, each end n as n/1.
    edge = 2 * k.genus - 1
    glued = f"({params.b}/1, inf] ∪ [-inf, {params.a}/1)"
    proof.append(("hrrw.cover", params.a > edge, (f"({edge}/1, inf)", glued)))
    if failed := _first_failure(proof):
        raise ConsistencyError(
            f"{failed} failed after thm1.4 passed, for pattern {p.name} and companion {k.name}"
        )
    checks += proof
    return Certificate(p, k, CERTIFIED, None, params, checks)


@dataclass(slots=True)
class CableComparison:
    certificate: Certificate
    exact: bool

    @property
    def gap(self) -> bool:
        """True when the exact criterion holds but the sufficient
        conditions do not certify (the conditions are not necessary)."""
        return self.exact and self.certificate.verdict != CERTIFIED


def certify_cable(k: KnotFacts, p: int, q: int) -> CableComparison:
    """Certify the (p, q)-cable of k through the satellite pipeline and
    attach the exact cabling criterion as ground truth; the criterion
    runs first, so a bad (p, q) is refused as a cable."""
    exact = cable_is_lspace_exact(k, p, q)
    cert = certify_satellite(torus_pattern(p, q), k)
    if cert.verdict == CERTIFIED and not exact:
        raise ConsistencyError(
            f"certified the ({p},{q})-cable of {k.name} although the exact "
            "criterion rejects it"
        )
    return CableComparison(cert, exact)


# -- certificate replay -------------------------------------------------


def replay_certificate(stored: StoredCertificate) -> str:
    """Re-run the pipeline on the stored certificate's own pattern and
    companion and return the verdict, once the re-run writes the stored
    text.  Raises ReplayMismatchError naming the first top-level key that
    differs, or saying the text is not in the form certificates are
    written in."""
    rerun = certify_satellite(stored.pattern, stored.companion)
    text = rerun.to_json()
    if text != stored.text:
        raise ReplayMismatchError(_refusal(stored.text, text))
    return rerun.verdict
