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

Certificates are written in format 3, which states each fact once: the
arc [1/a → ∞ → 1/b] is read off params, the lemma records only what
Theorem 1 has not already checked, and a check records no statement.
to_json writes "format": 3 as its first key.  from_json refuses text
whose format is not the integer 3 (a certificate without the key is
format 1) before it looks at the other keys, then reads exactly the keys
to_json writes, through json_object as the inputs are read; there is no
reader for any other format.  The pattern and companion, too, are read
only in the form to_json writes them: the companion as its six facts,
and a pattern whose pattern_to_json differs from the stored object (a
table twist given as a shortcut name, say) is refused, so no second text
replays as the same certificate, bar one repeating a key (json keeps the
last value; refusing that on replay would double a decode's cost).  Each
check is built once, as a dict literal in the form the certificate
stores, {"id", "pass", "values"} in that order, so writing a certificate
passes the checks through and replay compares them as loaded.  "pass" is
always a bool: a pass read off a fact flag goes through bool(), since
facts built in Python may hold 1 for True.  What a check states is a fixed text per id (STATEMENTS),
filled in from the check's own values by render_statement, which
lspacesat explain prints beside each check; only thm1.3 and lem.7 read a
value, the twist.  The trusted inputs are read off the two inputs, not
off the run: the companion's facts, which replay takes as given, then
what the pattern asserts (PatternFacts.asserted), so every run on a pair
lists the same.

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
text str(Slope(n)) gives an integer n, so the cover builds no Slope.
The text of s1 depends on the companion alone, so like its trusted line
it is built once per companion (_companion_side).  The general route
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

import functools
import json
from dataclasses import dataclass, fields

from .knots import (
    _FACT_TYPES,
    KnotFacts,
    cable_is_lspace_exact,
    companion_to_json,
    facts_note,
    json_object,
)
from .patterns import (
    ConsistencyError,
    PatternFacts,
    UnknownTwistError,
    pattern_from_json,
    pattern_to_json,
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
    """The statement of a check record: its id's template filled in from
    its values."""
    return STATEMENTS[check["id"]].format_map(check["values"])


def _first_failure(checks: list[dict]) -> str | None:
    """The id of the first failing check, or None: the reason of every
    verdict but an unknown twist, and the check a ConsistencyError names."""
    for c in checks:
        if not c["pass"]:
            return c["id"]
    return None


@dataclass(frozen=True, slots=True)
class LemmaParams:
    a: int
    b: int
    r: int

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "r": self.r}


def _no_floats(text: str):
    raise ValueError(f"certificates hold integers only, got {text}")


# Certificates are read through this decoder: a float, NaN or Infinity
# could compare equal to the integer the re-run records (3.0 == 3).
_CERTIFICATE_JSON = json.JSONDecoder(parse_float=_no_floats, parse_constant=_no_floats)

# ... and written through this encoder, which writes the bytes json.dumps
# does.  Its cycle check is skipped: a certificate's dict is built afresh
# from engine-built or JSON-loaded values, and neither can hold a cycle.
_CERTIFICATE_ENCODER = json.JSONEncoder(check_circular=False)

_FORMAT = 3


@dataclass(slots=True)
class Certificate:
    pattern: PatternFacts
    companion: KnotFacts
    verdict: str
    reason: str | None
    params: LemmaParams | None
    checks: list[dict]
    trusted_inputs: list[str]

    def to_json(self) -> str:
        return _CERTIFICATE_ENCODER.encode(
            {
                "format": _FORMAT,
                "pattern": pattern_to_json(self.pattern),
                "companion": companion_to_json(self.companion),
                "verdict": self.verdict,
                "reason": self.reason,
                "params": None if self.params is None else self.params.to_dict(),
                "checks": self.checks,
                "trusted_inputs": self.trusted_inputs,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse the inputs and params; every other field is kept as
        loaded, for replay to compare with its re-run.  Raises ValueError
        unless text is a JSON object of format 3 with exactly the keys
        to_json writes, naming the first key that breaks this, and holds
        its pattern and companion in the form to_json writes them."""
        d = _CERTIFICATE_JSON.decode(text)
        if not isinstance(d, dict):
            raise ValueError(f"a certificate is a JSON object, got {type(d).__name__}")
        # The decoder reads no floats and true == 1, so only the JSON
        # integer 3 equals 3.
        found = d.get("format", 1)
        if found != _FORMAT:
            raise ValueError(
                f"certificate format {_CERTIFICATE_ENCODER.encode(found)} is not {_FORMAT}"
            )
        params = json_object(d, _CERTIFICATE_TYPES)["params"]
        # Each input is read in the one form to_json writes, so no second
        # text replays as the same certificate.
        pattern = pattern_from_json(d["pattern"])
        if pattern_to_json(pattern) != d["pattern"]:
            raise ValueError("pattern: not in the form certificates are written with")
        try:
            companion = json_object(d["companion"], _FACT_TYPES)
        except ValueError as e:
            raise ValueError(f"companion: {e}") from None
        return cls(
            pattern=pattern,
            companion=KnotFacts(**companion),
            verdict=d["verdict"],
            reason=d["reason"],
            params=None if params is None else LemmaParams(**json_object(params, _PARAMS_TYPES)),
            checks=d["checks"],
            trusted_inputs=d["trusted_inputs"],
        )


# The keys to_json writes, typed for json_object: replay compares the
# fields kept as loaded, and from_json reads the inputs itself.
_CERTIFICATE_TYPES = {
    "format": int,
    **dict.fromkeys((f.name for f in fields(Certificate)), object),
    "pattern": dict,
    "params": (dict, type(None)),
}
_PARAMS_TYPES = {"a": int, "b": int, "r": int}


# -- the Lemma machinery ------------------------------------------------


def check_lemma(p: PatternFacts, a: int, b: int, r: int) -> list[dict]:
    """Audit the hypotheses guaranteeing that the closed arc from 1/a
    through ∞ to 1/b consists of L-space filling slopes of the
    r-surgered pattern complement.  Returns the checks, whose passing
    together certifies the arc.

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
        {
            "id": "lem.4",
            "pass": r >= rhs4,
            "values": {"lhs": r, "rhs": rhs4, "a": a, "g": g, "w": w},
        },
        {
            "id": "lem.5",
            "pass": bw >= rhs5,
            "values": {"lhs": bw, "rhs": rhs5, "b": b, "g": g, "w": w, "r": r},
        },
        {
            "id": "lem.7",
            "pass": bool(facts_b.is_neg_lspace),
            "values": {"twist": -b, "knot": facts_b.name},
        },
        {"id": "lem.sandwich", "pass": aw2 < r < bw2, "values": {"aw2": aw2, "r": r, "bw2": bw2}},
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


def necessary_check(p: PatternFacts, k: KnotFacts) -> list[dict]:
    """Obstructions: an L-space satellite forces both the companion and
    P(U) to be fibered, and nonzero winding.  A failing check rejects it."""
    pu = p.twisted_facts(0)
    return [
        {
            "id": "necessary.fibered",
            "pass": bool(k.is_fibered and pu.is_fibered),
            "values": {"companion_fibered": k.is_fibered, "pattern_fibered": pu.is_fibered},
        },
        {"id": "necessary.winding", "pass": p.winding != 0, "values": {"winding": p.winding}},
    ]


# -- the main pipeline --------------------------------------------------


@functools.lru_cache(maxsize=256)
def _companion_side(k: KnotFacts) -> tuple[str, str]:
    """What a certificate reads off the companion alone, built once per
    companion and shared by the certificates that name it: the trusted
    input line, then the text of its strict L-space slopes (2g-1, ∞),
    which only the cover stage reads, for a nontrivial L-space K.  The
    text writes the integer 2g-1 as str(Slope(2g-1)) would, as n/1."""
    return f"companion facts: {facts_note(k)}", f"({2 * k.genus - 1}/1, inf)"


def certify_satellite(p: PatternFacts, k: KnotFacts) -> Certificate:
    """Run the full sufficient-condition pipeline and return a
    self-contained certificate.  Every input gets a verdict; a check that
    fails after thm1.4 has passed raises ConsistencyError instead, since
    the proof of Theorem 1 makes it hold."""
    note, companion_text = _companion_side(k)
    trusted = [note, *p.asserted()]
    try:
        checks = necessary_check(p, k)
    except UnknownTwistError as e:
        return Certificate(p, k, NOT_CERTIFIED, f"unknown-twist:necessary ({e})", None, [], trusted)
    if reason := _first_failure(checks):
        return Certificate(p, k, REJECTED, reason, None, checks, trusted)

    n = -2 * k.genus
    try:
        f2g = p.twisted_facts(n)
    except UnknownTwistError as e:
        lspace, about, unknown = False, {"twist": n, "error": str(e)}, f"unknown-twist:thm1.3 ({e})"
    else:
        lspace, about, unknown = bool(f2g.is_lspace), {"twist": n, "knot": f2g.name}, None
    checks += [
        {
            "id": "thm1.1",
            "pass": bool(k.is_lspace and not k.is_unknot),
            "values": {"is_lspace": k.is_lspace, "is_unknot": k.is_unknot},
        },
        {
            "id": "thm1.2",
            "pass": bool(p.winding >= 2 and p.has_minimal_meridional_disk),
            "values": {"winding": p.winding, "disk": p.has_minimal_meridional_disk},
        },
        {"id": "thm1.3", "pass": lspace, "values": about},
    ]
    if unknown:
        return Certificate(p, k, NOT_CERTIFIED, unknown, None, checks, trusted)
    threshold = p.neg_lspace_threshold
    checks.append(
        {"id": "thm1.4", "pass": threshold is not None, "values": {"threshold": threshold}}
    )
    if reason := _first_failure(checks):
        return Certificate(p, k, NOT_CERTIFIED, reason, None, checks, trusted)

    # Past thm1.4 the lemma and the cover are the proof of Theorem 1 and
    # hold by construction, so a failing check here is an engine bug.
    params = choose_lemma_params(p, k.genus)
    # No UnknownTwistError: the lemma reads only P(U, -b), and every
    # pattern answers it for b at or past its threshold.
    proof = check_lemma(p, params.a, params.b, params.r)
    # The cover in closed form (see the module docstring): s1 is
    # (2g-1, ∞) and s2 the swapped open arc b → ∞ → a, each end n as n/1.
    glued = f"({params.b}/1, inf] ∪ [-inf, {params.a}/1)"
    proof.append(
        {
            "id": "hrrw.cover",
            "pass": params.a > 2 * k.genus - 1,
            "values": {"s1": companion_text, "s2": glued},
        }
    )
    if failed := _first_failure(proof):
        raise ConsistencyError(
            f"{failed} failed after thm1.4 passed, for pattern {p.name} and companion {k.name}"
        )
    checks += proof
    return Certificate(p, k, CERTIFIED, None, params, checks, trusted)


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
    attach the exact cabling criterion as ground truth."""
    pattern = torus_pattern(p, q)
    cert = certify_satellite(pattern, k)
    exact = cable_is_lspace_exact(k, p, q)
    if cert.verdict == CERTIFIED and not exact:
        raise ConsistencyError(
            f"certified the ({p},{q})-cable of {k.name} although the exact "
            "criterion rejects it"
        )
    return CableComparison(cert, exact)


# -- certificate replay -------------------------------------------------


def replay_certificate(cert: Certificate) -> str:
    """Re-run the pipeline on the certificate's own pattern and companion
    and return the verdict.  Raises ReplayMismatchError naming the first
    field of the certificate that the re-run does not reproduce."""
    rerun = certify_satellite(cert.pattern, cert.companion)
    if rerun != cert:
        name = next(
            f.name for f in fields(Certificate) if getattr(rerun, f.name) != getattr(cert, f.name)
        )
        raise ReplayMismatchError(
            f"field {name!r} differs from a re-run of the pipeline "
            "on the certificate's pattern and companion"
        )
    return rerun.verdict
