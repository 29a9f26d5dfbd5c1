import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lspacesat import (
    Certificate,
    KnotFacts,
    certify_satellite,
    one_bridge_braid,
    torus_knot,
    torus_pattern,
)
from lspacesat import certify, cli
from lspacesat.certify import STATEMENTS
from lspacesat.cli import main
from lspacesat.patterns import _BraidPattern

import strategies
from oracle_helpers import pattern_to_json
from test_certify import (
    CABLE_2_3_OF_TREFOIL,
    FORMAT_1_CABLE_2_3_OF_TREFOIL,
    FORMAT_2_CABLE_2_3_OF_TREFOIL,
    FORMAT_3_CABLE_2_3_OF_TREFOIL,
    FORMAT_4_CABLE_2_3_OF_TREFOIL,
    GOLDEN_CERTIFICATES,
    seed_lemma_bug,
)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


SRC = Path(__file__).resolve().parent.parent / "src"


def run_process(argv, cwd=None, **env):
    """Exit code, stdout and stderr of python -m lspacesat.cli with argv,
    run in a process of its own in the environment, less
    PYTHONIOENCODING, updated by env.  A str argument is passed as its
    UTF-8 bytes, a bytes one as it is."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    proc = subprocess.run(
        [sys.executable, "-m", "lspacesat.cli",
         *(arg if isinstance(arg, bytes) else arg.encode() for arg in argv)],
        env=dict(base, PYTHONPATH=str(SRC), **env),
        cwd=cwd,
        capture_output=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def write_forgery(path, name):
    """Certify a pair with --out, then rewrite the certificate at path
    with the edit FORGERIES names."""
    pattern, companion, edit = FORGERIES[name]
    run(["certify", "--pattern", pattern, "--companion", companion, "--out", str(path)])
    path.write_text(edit(json.loads(path.read_text())))


def _flip_verdict(data):
    data["verdict"] = "NOT_CERTIFIED"
    return json.dumps(data)


def _cover_only(data):
    cover = data["checks"][-1]
    cover["values"]["s1"] = "FULL"
    data["checks"] = [cover]
    return json.dumps(data)


def _all_pass(data):
    # Certificates without inputs also recorded each flag's "value" and
    # each check's "op"; setting those too gives the forgery their replay
    # accepted.
    for check in data["checks"]:
        check["pass"] = True
        if "value" in check["values"]:
            check["values"]["value"] = True
    data["verdict"], data["reason"] = "CERTIFIED", None
    data["checks"].append(
        {"id": "hrrw.cover", "pass": True, "values": {"op": "cover", "s1": "FULL", "s2": "EMPTY"}}
    )
    return json.dumps(data)


def _params_beyond_float(data):
    # 1e400 loads as inf.
    return json.dumps(data).replace('"params": {"a": 2', '"params": {"a": 1e400')


def _params_float(data):
    data["params"]["r"] = float(data["params"]["r"])
    return json.dumps(data)


def _operand(data, edit):
    """lem.5, a >= check, with its left operand lhs replaced by edit(lhs)."""
    lem5 = next(c for c in data["checks"] if c["id"] == "lem.5")
    lem5["values"]["lhs"] = edit(lem5["values"]["lhs"])
    return json.dumps(data)


def _statement_back(data):
    # A certificate stores no statement, so a check holding one is a check
    # the re-run does not make.
    data["checks"][0]["statement"] = "companion and P(U) are fibered"
    return json.dumps(data)


def _table_twist_shortcut(data):
    data["pattern"]["table"]["twists"]["0"] = "trefoil"
    return json.dumps(data)


def _without_inputs(data):
    # The certificate format before certificates carried their inputs.
    del data["pattern"], data["companion"]
    return json.dumps(data, indent=2)


def _move_verdict_first(text):
    """The certificate text with its verdict ahead of its companion."""
    data = json.loads(text)
    return json.dumps({key: data[key] for key in ("format", "pattern", "verdict")} | data)


TORUS_23 = '{"torus_pattern": [2, 3]}'
GENUS_ZERO_NOT_UNKNOT = (
    '{"name": "x", "genus": 0, "is_lspace": true, "is_neg_lspace": false,'
    ' "is_fibered": true, "is_unknot": false}'
)
TREFOIL_NAMED_E = (
    '{"name": "é", "genus": 1, "is_lspace": true, "is_neg_lspace": false,'
    ' "is_fibered": true, "is_unknot": false}'
)
# The interpreter's limit on the digits of an integer read or written as
# text, 0 where there is none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TABLE_WITH_TREFOIL_AT_0 = (
    '{"table": {"name": "t", "winding": 2, "genus_s3": 1, "has_disk": true,'
    ' "twists": {"0": "trefoil"}, "neg_threshold": 7, "pos_from": -2}}'
)
FORGERIES = {
    "tampered": (TORUS_23, "trefoil", _flip_verdict),
    "cover_only": (TORUS_23, "trefoil", _cover_only),
    "all_pass": ('{"torus_pattern": [3, 4]}', "trefoil", _all_pass),
    "params_beyond_float": (TORUS_23, "trefoil", _params_beyond_float),
    # Equal to the re-run's integers (13.0 == 13), but not JSON integers.
    "params_float": (TORUS_23, "trefoil", _params_float),
    "operand_float": (TORUS_23, "trefoil", lambda data: _operand(data, float)),
    "operand_nan": (TORUS_23, "trefoil", lambda data: _operand(data, lambda _: float("nan"))),
    "operand_infinity": (TORUS_23, "trefoil", lambda data: _operand(data, lambda _: float("inf"))),
    "without_inputs": (TORUS_23, "trefoil", _without_inputs),
    "statement_back": (TORUS_23, "trefoil", _statement_back),
    # Replay reads exactly the keys a certificate is written with: a
    # missing reason or params, an extra key, or a key of older
    # certificates exits 3.
    "certified_without_reason": (
        TORUS_23,
        "trefoil",
        lambda data: json.dumps({k: v for k, v in data.items() if k != "reason"}),
    ),
    "not_certified_without_params": (
        '{"torus_pattern": [3, 4]}',
        "trefoil",
        lambda data: json.dumps({k: v for k, v in data.items() if k != "params"}),
    ),
    "extra_key": (TORUS_23, "trefoil", lambda data: json.dumps({**data, "note": "x"})),
    # Inputs are read only in the form certificates are written with.
    "companion_shortcut": (
        TORUS_23,
        "trefoil",
        lambda data: json.dumps({**data, "companion": "T(2,3)"}),
    ),
    "table_twist_shortcut": (TABLE_WITH_TREFOIL_AT_0, "trefoil", _table_twist_shortcut),
    "old_glued_image": (
        TORUS_23,
        "trefoil",
        lambda data: json.dumps({**data, "glued_image": "(7/1, inf] ∪ [-inf, 2/1)"}),
    ),
}


class TestCertify:
    @pytest.mark.parametrize(
        "pattern, companion, code, line",
        [
            (TORUS_23, "trefoil", 0, "CERTIFIED: r=13 surgery is an L-space"),
            ('{"torus_pattern": [3, 4]}', "trefoil", 1, "NOT CERTIFIED: thm1.3"),
            # figure8 is fibered but not an L-space knot: thm1.1 fails.
            (TORUS_23, "figure8", 1, "NOT CERTIFIED: thm1.1"),
            # The (3,2)-cable of the unknot is the trefoil.
            (TORUS_23, '{"cable": {"companion": "unknot", "p": 3, "q": 2}}', 0,
             "CERTIFIED: r=13 surgery is an L-space"),
        ],
        ids=["certified", "not_certified", "non_lspace_companion", "cable_of_unknot"],
    )
    def test_verdict_line(self, pattern, companion, code, line):
        assert run(["certify", "--pattern", pattern, "--companion", companion]) == (
            code, line + "\n"
        )

    def test_out_and_json_format_encode_once(self, tmp_path, monkeypatch):
        """--out and --format json write the same text, encoded once."""
        calls = []
        to_json = Certificate.to_json
        monkeypatch.setattr(Certificate, "to_json", lambda cert: calls.append(1) or to_json(cert))
        path = tmp_path / "cert.json"
        code, text = run(
            ["certify", "--pattern", TORUS_23, "--companion", "trefoil", "--out", str(path)]
            + ["--format", "json"]
        )
        assert code == 0 and len(calls) == 1
        assert path.read_text() == text == certify_satellite(
            torus_pattern(2, 3), torus_knot(2, 3)
        ).to_json() + "\n"

    @pytest.mark.parametrize(
        "pattern, companion, verdict, held",
        [
            (TORUS_23, "trefoil", "CERTIFIED", '"trusted_inputs": ["companion"]}'),
            ('{"torus_pattern": [2, 9]}', "T(2,5)", "CERTIFIED", '"params": {"a": 4, '),
            (
                '{"one_bridge_braid": {"w": 5, "b": 2, "t": 21, "neg_threshold": 3}}',
                "T(2,5)",
                "CERTIFIED",
                '"trusted_inputs": ["companion"]}',
            ),
            (
                TORUS_23,
                '{"name": "5_2", "genus": 1, "is_lspace": false, "is_neg_lspace": false,'
                ' "is_fibered": false, "is_unknot": false}',
                "REJECTED",
                '"verdict": "REJECTED", "reason": "necessary.fibered"',
            ),
            (
                '{"table": {"name": "sparse", "winding": 2, "genus_s3": 1, "has_disk": true,'
                ' "twists": {"0": "trefoil"}, "neg_threshold": 50}}',
                "trefoil",
                "NOT_CERTIFIED",
                '"verdict": "NOT_CERTIFIED", "reason": "unknown-twist:',
            ),
            # Every twist of a one-bridge braid is read off B(w, b, t + n·w),
            # so its certificate trusts the companion alone.
            (
                '{"one_bridge_braid": {"w": 4, "b": 1, "t": 10, "neg_threshold": 3}}',
                "trefoil",
                "CERTIFIED",
                '"trusted_inputs": ["companion"]}',
            ),
            # A table asserts its entries, so its certificate trusts the
            # pattern too.
            (
                TABLE_WITH_TREFOIL_AT_0,
                "trefoil",
                "CERTIFIED",
                '"trusted_inputs": ["companion", "pattern"]}',
            ),
        ],
        ids=["torus", "torus_over_t_2_5", "certified", "rejected", "unknown_twist", "one_bridge",
             "table"],
    )
    def test_replay_reproduces_each_verdict(self, pattern, companion, verdict, held, tmp_path):
        """--out writes a certificate of format 5, whose first key names
        it, holding the text held; replay reproduces its verdict and exit
        code."""
        path = tmp_path / "cert.json"
        argv = ["certify", "--pattern", pattern, "--companion", companion]
        code, _ = run(argv + ["--out", str(path)])
        text = path.read_text()
        assert text.startswith('{"format": 5, ') and held in text
        replay_code, text = run(["certify", "--replay", str(path)])
        assert replay_code == code
        assert text.strip() == f"REPLAY OK: verdict {verdict} reproduced"

    @pytest.mark.parametrize(
        "bad",
        [
            # B(7, 3, 4) closes to a two-component link.
            ('{"one_bridge_braid": {"w": 7, "b": 3, "t": 4}}', "trefoil"),
            # Every twist of a one-bridge braid is derived; none is supplied.
            (
                '{"one_bridge_braid": {"w": 5, "b": 2, "t": 3, "overrides": {"-1": "trefoil"}}}',
                "trefoil",
            ),
            ('{"one_bridge_braid": "x"}', "trefoil"),
            (
                '{"table": {"winding": 2, "genus_s3": 1, "has_disk": true, "twists": []}}',
                "trefoil",
            ),
            # A JSON number beyond the float range loads as inf.
            ('{"one_bridge_braid": {"w": 5, "b": 2, "t": 1e400}}', "trefoil"),
            ('{"torus_pattern": [2, 3]}', '{"torus_knot": [2, 1e400]}'),
            # Integers must be JSON integers and flags JSON true or false.
            (
                '{"torus_pattern": [2, 3]}',
                '{"name": "x", "genus": 1, "is_lspace": "false", "is_neg_lspace": false,'
                ' "is_fibered": true, "is_unknot": false}',
            ),
            ('{"torus_pattern": [2, 3.9]}', "trefoil"),
            ('{"torus_pattern": [2, true]}', "trefoil"),
            (
                '{"table": {"winding": 2, "genus_s3": 1, "has_disk": "no",'
                ' "neg_threshold": 4, "pos_from": -10}}',
                "trefoil",
            ),
            (
                '{"table": {"winding": 2, "genus_s3": 1, "has_disk": true,'
                ' "twists": {"-1_0": "trefoil"}, "neg_threshold": 4}}',
                "trefoil",
            ),
            # The entry at -8 lies in the negative tail n <= -7, yet the
            # trefoil is no negative L-space knot.
            (
                '{"table": {"name": "t", "winding": 2, "genus_s3": 1, "has_disk": true,'
                ' "twists": {"-8": "trefoil"}, "neg_threshold": 7, "pos_from": -2}}',
                "trefoil",
            ),
            # P(U) has genus 5, so P(U, -1), one full twist on 2 strands
            # away, has genus at least 4; the unknot is no such knot.
            (
                '{"table": {"name": "t", "winding": 2, "genus_s3": 5, "has_disk": true,'
                ' "twists": {"0": "T(2,11)", "-1": "unknot"}, "neg_threshold": 7, "pos_from": -2}}',
                "trefoil",
            ),
            (TORUS_23, "granny"),
            # A knot of genus 0 is the unknot.
            (TORUS_23, GENUS_ZERO_NOT_UNKNOT),
            # A genus is nonnegative, the pattern's as a companion's.
            (
                '{"table": {"name": "t", "winding": 2, "genus_s3": -1, "has_disk": true,'
                ' "neg_threshold": 7, "pos_from": -2}}',
                "trefoil",
            ),
            # Pattern and companion objects hold exactly their documented
            # keys: a misspelt or extra key is refused, not ignored.
            ('{"one_bridge_braid": {"w": 4, "b": 1, "t": 10, "neg_treshold": 3}}', "trefoil"),
            (
                '{"table": {"name": "t", "winding": 2, "genus_s3": 1, "has_disk": true,'
                ' "twists": {"0": "trefoil"}, "neg_treshold": 7, "pos_from": -2}}',
                "trefoil",
            ),
            ('{"torus_pattern": [2, 3], "table": {}}', "trefoil"),
            (
                TORUS_23,
                '{"name": "x", "genus": 1, "is_lspace": true, "is_neg_lspace": false,'
                ' "is_fibered": true, "is_unknot": false, "note": "x"}',
            ),
            (
                TORUS_23,
                '{"name": 7, "genus": 1, "is_lspace": true, "is_neg_lspace": false,'
                ' "is_fibered": true, "is_unknot": false}',
            ),
            (TORUS_23, '{"torus_knot": [2, 3], "name": "x"}'),
            (TORUS_23, '{"cable": {"companion": "trefoil", "p": 2, "q": 3, "r": 1}}'),
            # A key given twice is refused, not read as its last value.
            ('{"torus_pattern": [2, 3], "torus_pattern": [2, 1]}', "trefoil"),
            (
                '{"table": {"name": "t", "winding": 2, "genus_s3": 1, "has_disk": true,'
                ' "twists": {"0": "trefoil"}, "neg_threshold": 7, "neg_threshold": null,'
                ' "pos_from": -2}}',
                "trefoil",
            ),
            # T(p,q) digits are ASCII: these are Arabic-Indic two and three.
            (TORUS_23, "T(٢,٣)"),
            # JSON nested past the decoder's recursion limit.
            ("[" * 5000 + "]" * 5000, "trefoil"),
            b'{"verdict": "CERTIFIED"}',
            b"not json",
            b"\xd0\x00",
            b"[]",
            b"[" * 100_000,
            # Options replay would ignore, beside a certificate it reproduces.
            ["--pattern", TORUS_23],
            ["--format", "json"],
            *FORGERIES,
        ],
        ids=[
            "link_pattern",
            "overrides",
            "braid_spec_not_an_object",
            "table_twists_not_an_object",
            "braid_twist_beyond_float",
            "companion_beyond_float",
            "companion_flag_is_a_string",
            "torus_q_is_a_float",
            "torus_q_is_a_bool",
            "table_disk_is_a_string",
            "table_twist_key_not_decimal",
            "table_entry_contradicts_its_tail",
            "table_entry_under_the_lower_genus_bound",
            "unknown_companion_name",
            "companion_genus_zero_not_unknot",
            "table_negative_genus",
            "braid_misspelt_threshold",
            "table_misspelt_threshold",
            "pattern_two_kinds",
            "companion_extra_key",
            "companion_name_not_a_string",
            "companion_torus_knot_extra_key",
            "companion_cable_extra_key",
            "pattern_repeated_kind_key",
            "table_repeated_threshold",
            "companion_non_ascii_digits",
            "pattern_nested_too_deeply",
            "incomplete",
            "not_json",
            "not_utf8",
            "json_list",
            "replay_nested_too_deeply",
            "replay_with_pattern",
            "replay_with_format_json",
            *FORGERIES,
        ],
    )
    def test_bad_input_exits_3_without_traceback(self, bad, tmp_path, capsys):
        """Bad inputs, including those that used to escape main as
        exceptions (and so exit 1, which reads as "not certified") or be
        silently ignored, end in one error line and exit 3."""
        path = tmp_path / "cert.json"
        if isinstance(bad, tuple):
            argv = ["certify", "--pattern", bad[0], "--companion", bad[1]]
        else:
            options = []
            if isinstance(bad, list):
                path.write_text(CABLE_2_3_OF_TREFOIL)
                options = bad
            elif isinstance(bad, str):
                write_forgery(path, bad)
            else:
                path.write_bytes(bad)
            argv = ["certify", "--replay", str(path), *options]
        capsys.readouterr()
        code, text = run(argv)
        err = capsys.readouterr().err
        assert code == 3 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--pattern", TORUS_23, "--companion", "x" * 50_000],
            ["set-algebra", "--interior", "[1, 2] ∪ " + "x" * 50_000],
            ["certify", "--pattern", "[" * 5000, "--companion", "trefoil"],
        ],
        ids=["long_companion_name", "long_set_text", "pattern_nested_too_deeply"],
    )
    def test_error_line_is_short_for_any_input(self, argv, capsys):
        """The one error line quotes at most a clipped part of a large
        bad input, marked by an ellipsis."""
        code, text = run(argv)
        err = capsys.readouterr().err
        assert code == 3 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "…" in err and len(err) < 600

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--pattern", TORUS_23, "--companion", "trefoil"],
            ["cable", "--companion", "trefoil", "--p", "2", "--q", "3"],
            ["sweep", "--p-max", "2", "--q-max", "3", "--companion", "trefoil"],
        ],
        ids=["certify", "cable", "sweep"],
    )
    def test_empty_out_path_is_refused(self, argv, capsys):
        capsys.readouterr()
        code, text = run([*argv, "--out", ""])
        err = capsys.readouterr().err
        assert (code, text) == (3, "")
        assert err == "error: argument --out: expected a non-empty path\n"

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (
                ["certify", "--pattern", '{"one_bridge_braid": {"w": 4, "b": 1, "t": 10,'
                 ' "neg_treshold": 3}}', "--companion", "trefoil"],
                "unknown key 'neg_treshold'",
            ),
            (
                ["certify", "--pattern", '{"one_bridge_braid": {"w": 4, "b": 1, "t": 10,'
                 ' "neg_threshold": -1}}', "--companion", "trefoil"],
                "neg_lspace_threshold must be nonnegative",
            ),
            (
                ["certify", "--pattern", '{"table": {"winding": 0, "genus_s3": 0,'
                 ' "has_disk": true}}', "--companion", "trefoil"],
                "forces winding >= 1",
            ),
            (
                ["certify", "--pattern", '{"torus_pattern": [2, 3], "torus_pattern": [2, 1]}',
                 "--companion", "trefoil"],
                "repeated key 'torus_pattern'",
            ),
            # Of two repeated keys, the first in the object's order.
            (
                ["certify", "--pattern", '{"a": 1, "b": 2, "b": 3, "a": 4}', "--companion", "trefoil"],
                "repeated key 'a'",
            ),
            (
                ["certify", "--pattern", '{"one_bridge_braid": {"w": 100000000000000000000,'
                 ' "b": 1, "t": 0}}', "--companion", "trefoil"],
                "need w <= 1000000 strands, got 100000000000000000000",
            ),
            # An empty option is given, not absent.
            (["certify", "--replay", ""], "argument --replay: expected a non-empty path"),
            (
                ["certify", "--replay", "", "--pattern", TORUS_23, "--companion", "trefoil"],
                "argument --replay: expected a non-empty path",
            ),
            (["explain", ""], "argument certificate: expected a non-empty path"),
            (["certify", "--replay", "CERT", "--pattern", ""], "cannot be combined with --pattern"),
            (["certify", "--pattern", "", "--companion", "trefoil"], "bad pattern ''"),
            (["certify", "--pattern", TORUS_23, "--companion", ""], "bad companion ''"),
            (["certify", "--pattern", TORUS_23], "certify needs --pattern and --companion"),
            # The input is quoted clipped, so the clip of the whole line
            # leaves the reason in.
            (["certify", "--pattern", TORUS_23, "--companion", "x" * 50_000],
             "unknown companion name"),
            # Two set pieces need a separator, and slope digits are ASCII:
            # this is an Arabic-Indic three.
            (["set-algebra", "--covers", "[1, 2] [3, 4]", "FULL"], "needs ∪ at position 7"),
            (["set-algebra", "--interior", "[٣, 4]"], "cannot parse slope set '[٣, 4]'"),
            (["set-algebra", "--interior", "[banana]"], "cannot parse slope set '[banana]'"),
            (["set-algebra"], "one of the arguments --covers --interior is required"),
            (
                ["set-algebra", "--covers", "[0, 1]", "[1, 2]", "--interior", "[0, 1]"],
                "argument --interior: not allowed with argument --covers",
            ),
            # The exact criterion runs first, so the error names the cable,
            # not the torus pattern T(4,6) built from it; the criterion and
            # the torus pattern word a winding below two alike.
            (
                ["cable", "--companion", "trefoil", "--p", "4", "--q", "6"],
                ": cable needs gcd(p, q) = 1, got (4, 6)\n",
            ),
            (
                ["cable", "--companion", "trefoil", "--p", "1", "--q", "3"],
                ": longitudinal winding p must be >= 2, got 1\n",
            ),
            (
                ["sweep", "--p-max", "2", "--q-max", "3", "--companion", "trefoil,T(2,5)"],
                ": bad companion 'trefoil,T(2,5)'",
            ),
            (
                ["sweep", "--p-max", "x", "--q-max", "3", "--companion", "trefoil"],
                ": argument --p-max: expected a positive integer, got 'x'\n",
            ),
            # The sample is derived from the arc ends: no --max-den to set wrong.
            (["oracle", "--max-den", "40"], "unrecognized arguments: --max-den 40"),
            (["oracle", "--trials", "0"], "argument --trials: expected a positive integer, got '0'"),
        ],
        ids=[
            "braid_misspelt_threshold",
            "braid_negative_threshold",
            "table_disk_without_winding",
            "pattern_repeated_kind_key",
            "pattern_two_repeated_keys",
            "braid_wider_than_the_cap",
            "empty_replay",
            "empty_replay_beside_pattern_and_companion",
            "empty_explain",
            "replay_beside_an_empty_pattern",
            "empty_pattern",
            "empty_companion",
            "missing_companion",
            "long_companion_name",
            "set_pieces_without_separator",
            "set_non_ascii_digit",
            "set_parse_error",
            "set_no_operation",
            "set_two_operations",
            "cable_not_coprime",
            "cable_winding_below_two",
            "sweep_comma_separated_companions",
            "sweep_size_not_an_integer",
            "oracle_sample_is_not_an_option",
            "oracle_nonpositive_trials",
        ],
    )
    def test_error_line_names_the_refusal(self, argv, reason, tmp_path, capsys):
        """Exit 3 with one error line, which names what was refused; CERT
        stands for a certificate that replays."""
        path = tmp_path / "cert.json"
        path.write_text(CABLE_2_3_OF_TREFOIL)
        capsys.readouterr()
        code, text = run([str(path) if arg == "CERT" else arg for arg in argv])
        err = capsys.readouterr().err
        assert (code, text) == (3, "") and err.count("\n") == 1
        assert err.startswith("error: ") and reason in err

    def test_a_repeated_key_among_12000_is_found_in_linear_time(self, capsys):
        """A --pattern object of 12 000 keys, the last given twice, fits
        one argument (128 KiB on Linux) and is refused within 1 s."""
        keys = [*map(str, range(12_000)), "11999"]
        pattern = "{" + ",".join(f'"{k}":0' for k in keys) + "}"
        assert len(pattern.encode()) < 128 * 1024
        start = time.perf_counter()
        code, text = run(["certify", "--pattern", pattern, "--companion", "trefoil"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert (code, text) == (3, "") and err.endswith(": repeated key '11999'\n")
        assert elapsed < 1.0

    def test_a_braid_over_the_width_cap_is_refused_before_it_is_built(self):
        """B(10⁸, 1, 0) is refused before its knot check builds anything:
        certify exits 3 naming the cap within 2 s, in a process whose
        address space is limited to 512 MiB, where a permutation of its
        10⁸ strands could not be built."""

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

        pattern = '{"one_bridge_braid": {"w": 100000000, "b": 1, "t": 0}}'
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "lspacesat.cli", "certify", "--pattern", pattern,
             "--companion", "trefoil"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=limit_address_space,
            capture_output=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr.decode() == (
            f"error: bad pattern {pattern!r}: need w <= 1000000 strands, got 100000000\n"
        )
        assert elapsed < 2.0

    def test_a_cable_certificate_holds_its_companion_as_six_facts(self, tmp_path, capsys):
        """The (3,17)-cable certificate that cable --out writes replays;
        with its companion rewritten to the shortcut name "T(2,3)" it
        exits 3, and the error names the companion."""
        path = tmp_path / "c317.json"
        argv = ["cable", "--companion", "trefoil", "--p", "3", "--q", "17", "--out", str(path)]
        assert run(argv)[0] == 0
        assert run(["certify", "--replay", str(path)]) == (
            0, "REPLAY OK: verdict CERTIFIED reproduced\n"
        )
        path.write_text(json.dumps({**json.loads(path.read_text()), "companion": "T(2,3)"}))
        capsys.readouterr()
        assert run(["certify", "--replay", str(path)]) == (3, "")
        assert "companion: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda text: json.dumps(json.loads(text), indent=2), "ValueError"),
            (lambda text: json.dumps(json.loads(text), separators=(",", ":")), "ValueError"),
            (
                lambda text: text.replace(
                    '{"id": "necessary.winding", "pass": true',
                    '{"id": "necessary.winding", "pass": 1',
                ),
                "ReplayMismatchError",
            ),
            (
                lambda text: text.replace(
                    '"verdict": "CERTIFIED"', '"verdict": "CERTIFIED", "verdict": "CERTIFIED"'
                ),
                "ReplayMismatchError",
            ),
            (_move_verdict_first, "ValueError"),
        ],
        ids=["indented", "compact", "pass_is_1", "repeated_verdict", "verdict_first"],
    )
    def test_a_certificate_is_the_text_certify_writes(self, edit, error, tmp_path, capsys):
        """The (3,17)-cable certificate of the trefoil, edited so that it
        decodes to the same values, is refused by replay and by explain,
        with one error line naming its form: by Certificate.from_json
        (ValueError) when the head is not the one to_json writes, else by
        the comparison with the re-run."""
        text = certify_satellite(torus_pattern(3, 17), torus_knot(2, 3)).to_json()
        path = tmp_path / "c317.json"
        path.write_text(text + "\n")
        assert run(["certify", "--replay", str(path)])[0] == 0
        edited = edit(text)
        assert edited != text and json.loads(edited) == json.loads(text)
        path.write_text(edited + "\n")
        for command in (["certify", "--replay"], ["explain"]):
            capsys.readouterr()
            assert run([*command, str(path)]) == (3, "")
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot replay {path}: ") and err.count("\n") == 1
            assert err.endswith(f": {error}: not in the form certificates are written in\n")

    def test_over_long_integer_gets_lspacesats_own_message(self, tmp_path, capsys):
        """A JSON integer past the interpreter's limit on digits, in an
        argument or in a certificate, exits 3 without Python's advice on
        raising that limit."""
        long = "1" + "0" * 5000
        path = tmp_path / "cert.json"
        path.write_text(CABLE_2_3_OF_TREFOIL.replace("[2, 3]", f"[2, {long}]", 1))
        for argv in (
            ["certify", "--pattern", f'{{"torus_pattern": [2, {long}]}}', "--companion", "trefoil"],
            ["certify", "--replay", str(path)],
        ):
            capsys.readouterr()
            code, text = run(argv)
            err = capsys.readouterr().err
            assert (code, text) == (3, "") and err.count("\n") == 1
            assert "set_int_max_str_digits" not in err
            if 0 < DIGIT_LIMIT < len(long):
                assert err.endswith(f": an integer has more than {DIGIT_LIMIT} digits\n")

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on the digits of an integer")
    @pytest.mark.parametrize("command", ["certify", "sweep", "cable", "set-algebra", "replay"])
    def test_over_long_derived_integer_gets_lspacesats_own_message(self, command, tmp_path, capsys):
        """An integer within the limit on digits can give, through the
        engine, one past it: T(2, m) with m of exactly the limit's digits
        reads, but twisting the (11, 1) pattern around it derives a longer
        integer.  A slope past the limit, and a stored genus that stays
        within it, end the same way: exit 3 with one error line, never a
        traceback (exit 1) or Python's advice on raising the limit."""
        companion = json.dumps({"torus_knot": [2, 10 ** (DIGIT_LIMIT - 1) + 1]})
        pattern = '{"torus_pattern": [11, 1]}'
        path = tmp_path / "cert.json"
        argv = {
            "certify": ["certify", "--pattern", pattern, "--companion", companion],
            "sweep": ["sweep", "--p-max", "12", "--q-max", "2", "--companion", companion],
            "cable": ["cable", "--p", "11", "--q", "1", "--companion", companion],
            "set-algebra": ["set-algebra", "--interior", f"[1/{'7' * (DIGIT_LIMIT + 100)}, 2]"],
            "replay": ["certify", "--replay", str(path)],
        }[command]
        expected = f"an integer has more than {DIGIT_LIMIT} digits\n"
        if command == "replay":
            run(["certify", "--pattern", pattern, "--companion", "trefoil", "--out", str(path)])
            data = json.loads(path.read_text())
            data["companion"]["genus"] = 5 * 10 ** (DIGIT_LIMIT - 2)
            path.write_text(json.dumps(data))
            expected = f"cannot replay {path}: ValueError: {expected}"
        capsys.readouterr()
        code, text = run(argv)
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == f"error: {expected}"

    @pytest.mark.parametrize("command", ["explain", "sweep"])
    def test_an_output_stream_that_cannot_encode_the_text_exits_3(
        self, command, tmp_path, capsys
    ):
        """The statements of the (3,17)-cable certificate of the trefoil
        hold a "·", and a sweep prints its companion's name "é": written
        to an ASCII-only stream, either exits 3 with one error line, not
        1 through a traceback."""
        path = tmp_path / "cert.json"
        run(["cable", "--companion", "trefoil", "--p", "3", "--q", "17", "--out", str(path)])
        argv = {
            "explain": ["explain", str(path)],
            "sweep": ["sweep", "--p-max", "2", "--q-max", "1", "--companion", TREFOIL_NAMED_E],
        }[command]
        capsys.readouterr()
        code = main(argv, out=io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1
        assert err.startswith("error: 'ascii' codec can't encode character ")

    @pytest.mark.parametrize("doc", ["[]", '"x"', "3", "null"])
    def test_replaying_json_that_is_not_an_object_names_the_format(self, doc, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(doc)
        code, text = run(["certify", "--replay", str(path)])
        err = capsys.readouterr().err
        assert code == 3 and text == "" and err.count("\n") == 1
        assert "a certificate is a JSON object, got " in err
        assert "AttributeError" not in err

    @pytest.mark.parametrize("command", ["replay", "explain"])
    @pytest.mark.parametrize(
        "text, found",
        [
            (FORMAT_1_CABLE_2_3_OF_TREFOIL, 1),
            (FORMAT_2_CABLE_2_3_OF_TREFOIL, 2),
            (FORMAT_3_CABLE_2_3_OF_TREFOIL, 3),
            (FORMAT_4_CABLE_2_3_OF_TREFOIL, 4),
        ],
        ids=["format_1", "format_2", "format_3", "format_4"],
    )
    def test_each_old_format_exits_3_naming_the_format(
        self, text, found, command, tmp_path, capsys
    ):
        """A genuine certificate of each format before 5 is refused by
        replay and by explain alike."""
        path = tmp_path / "cert.json"
        path.write_text(text + "\n")
        argv = {"replay": ["certify", "--replay"], "explain": ["explain"]}[command]
        code, out = run([*argv, str(path)])
        err = capsys.readouterr().err
        assert (code, out) == (3, "") and err.count("\n") == 1
        assert err.startswith("error: cannot replay ")
        assert err.endswith(f": ValueError: certificate format {found} is not 5\n")


def _leaf_paths(node, path=()):
    """Paths to every value of a JSON document that is not a non-empty
    object or array."""
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


def _replaced(doc, path, value):
    """doc with the value at path set to value, in place; value itself
    for the empty path."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Every input of the first three pairs reaches some recorded field, so a
# changed input cannot leave a certificate that is the genuine one of
# other inputs.  The REJECTED one records only the necessary checks,
# which the pattern's q never reaches: another odd q gives the genuine
# certificate of T(2, q) over the same companion.
_REJECTED_BY_FIBERING = certify_satellite(
    torus_pattern(2, 3), KnotFacts("unfibered", 2, False, False, False, False)
)
_FUZZ_CERTIFICATES = [
    certify_satellite(torus_pattern(2, 3), torus_knot(2, 3)),
    certify_satellite(torus_pattern(3, 4), torus_knot(2, 3)),
    _REJECTED_BY_FIBERING,
    certify_satellite(one_bridge_braid(5, 2, 21, neg_lspace_threshold=3), torus_knot(2, 5)),
]
_FUZZ_LEAVES = [
    (cert, path) for cert in _FUZZ_CERTIFICATES for path in _leaf_paths(json.loads(cert.to_json()))
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


class TestReplayFuzz:
    @settings(max_examples=300, deadline=None)
    @given(leaf=st.sampled_from(_FUZZ_LEAVES), value=_JSON_VALUES)
    # The genuine certificate of T(2,5) over the unfibered companion.
    @example(leaf=(_REJECTED_BY_FIBERING, ("pattern", "torus_pattern", 1)), value=5)
    # The genuine certificate of T(3,4) over the trefoil renamed "".
    @example(leaf=(_FUZZ_CERTIFICATES[1], ("companion", "name")), value="")
    def test_one_changed_leaf(self, leaf, value):
        """A certificate with one leaf replaced replays (exit 0, 1 or 2)
        only when it is the text certify writes for the inputs it holds,
        and those are the genuine certificate's, up to the companion's
        name, which only the head writes, unless it is the REJECTED one;
        anything else exits 3 with one error line.  explain exits as
        replay does, and on exit 3 prints that error line and no table."""
        cert, path = leaf
        text = json.dumps(_replaced(json.loads(cert.to_json()), path, value))
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "cert.json"
            file.write_text(text)
            results = []
            for command in (["certify", "--replay"], ["explain"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    results.append((*run([*command, str(file)]), err.getvalue()))
        (code, _, err), explained = results
        assert explained[0] == code
        if code == 3:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not err.startswith("error: internal error:")
            assert explained[1:] == ("", err)
        else:
            assert code in (0, 1, 2)
            stored = Certificate.from_json(text)
            assert certify_satellite(stored.pattern, stored.companion).to_json() == text
            if cert is not _REJECTED_BY_FIBERING:
                renamed = dataclasses.replace(cert.companion, name=stored.companion.name)
                assert (stored.pattern, stored.companion) == (cert.pattern, renamed)


def _node_paths(node, path=()):
    """Paths to every value of a JSON document, the document included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _node_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _node_paths(child, path + (i,))


# Integers stay within ±10⁵: the knot check of a one-bridge braid
# B(w, b, t) walks a permutation of w strands, O(w), so a width of 10⁵
# costs milliseconds, and one past MAX_BRIDGE_WIDTH (10⁶) exits 3 unbuilt.
_ODD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**5, 10**5) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _with_odd_values(doc):
    """The JSON document doc as it is, or with one of its values, a leaf
    or not, replaced by any JSON value."""
    edits = st.tuples(st.sampled_from(list(_node_paths(doc))), _ODD_VALUES)
    return st.none().map(lambda _: doc) | edits.map(
        lambda edit: _replaced(json.loads(json.dumps(doc)), *edit)
    )


class TestInputFuzz:
    @settings(max_examples=300, deadline=None)
    @example(pattern={"torus_pattern": [2, 3]}, companion=json.loads(GENUS_ZERO_NOT_UNKNOT))
    @given(
        pattern=strategies.patterns.map(pattern_to_json).flatmap(_with_odd_values),
        companion=strategies.companion_pairs.map(lambda pair: pair[1]).flatmap(_with_odd_values),
    )
    def test_certify_exits_with_a_documented_code(self, pattern, companion):
        """Any pattern and companion in the documented JSON forms, with
        arbitrary values in some places, ends in exit 0, 1, 2 or 3, never
        in a traceback, with one error line exactly when it is 3."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(
                ["certify", "--pattern", json.dumps(pattern), "--companion", json.dumps(companion)]
            )
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert text == "" and err.getvalue().startswith("error: ")
            assert not err.getvalue().startswith("error: internal error:")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""


def _read(text):
    """What Certificate.from_json makes of text: the stored certificate,
    or the type and text of the error it raises."""
    try:
        return Certificate.from_json(text)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def _edited(cert, edit):
    """The text of cert's document after edit(doc) changed it in place."""
    doc = json.loads(cert.to_json())
    edit(doc)
    return json.dumps(doc)


def _move_verdict_last(doc):
    doc["verdict"] = doc.pop("verdict")


def _set_companion(key, value):
    return lambda doc: doc["companion"].__setitem__(key, value)


# Edits in the companion and just after it, where from_json looks for
# the end of the companion's text.
_COMPANION_EDITS = [
    _set_companion("name", {"a": 1, "verdict": "CERTIFIED"}),
    _set_companion("extra", {"a": 1, "verdict": "CERTIFIED"}),
    _set_companion("name", 'K, "verdict": "CERTIFIED"'),
    _set_companion("name", "\\u03c4"),
    _set_companion("name", "τ"),
    lambda doc: doc.pop("verdict"),
    _move_verdict_last,
]

# One value of each JSON type, and values a leaf of a certificate holds.
_LEAF_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 7, 1.5, "", "x", "τ", "T(2,3)", "CERTIFIED",
    [], [1], {}, {"a": 1, "verdict": 2},
]


class TestColdAndWarmReads:
    """A read gives one outcome, the same stored certificate or the same
    error, whether or not from_json has read the companion before."""

    @staticmethod
    def assert_cold_equals_warm(texts):
        for text in texts:
            certify._COMPANIONS.clear()
            cold = _read(text)
            for cert in _FUZZ_CERTIFICATES:
                Certificate.from_json(cert.to_json())
            _read(text)
            assert _read(text) == cold, text

    def test_every_one_leaf_edit(self):
        self.assert_cold_equals_warm(
            json.dumps(_replaced(json.loads(cert.to_json()), path, value))
            for cert, path in _FUZZ_LEAVES
            for value in _LEAF_VALUES
        )

    @settings(max_examples=200, deadline=None)
    @given(leaf=st.sampled_from(_FUZZ_LEAVES), value=_ODD_VALUES)
    def test_one_changed_leaf(self, leaf, value):
        cert, path = leaf
        text = json.dumps(_replaced(json.loads(cert.to_json()), path, value))
        self.assert_cold_equals_warm([text])

    def test_edits_in_and_after_the_companion(self):
        texts = [_edited(cert, edit) for cert in _FUZZ_CERTIFICATES for edit in _COMPANION_EDITS]
        # A raw non-ASCII name, which from_json reads as its escape.
        texts += [text.replace("\\u03c4", "τ") for text in texts if "\\u03c4" in text]
        # Space before, and no space in, the separator after the companion.
        for cert in _FUZZ_CERTIFICATES:
            text = cert.to_json()
            texts += [text.replace(', "verdict"', sep) for sep in (' , "verdict"', ',"verdict"')]
        self.assert_cold_equals_warm(texts)
        # A name holding the separator as JSON text is read once, then known.
        text = _edited(_FUZZ_CERTIFICATES[0], _set_companion("name", 'K, "verdict": "CERTIFIED"'))
        certify._COMPANIONS.clear()
        assert _read(text).companion is _read(text).companion


class TestRepeatedMain:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        """main() builds its parser once; a run of commands in one
        process, an argparse error among them, gives what each command
        gives in a process of its own, the shipped entry point: a
        certificate it writes replays there, and a cover prints FULL."""
        path = str(tmp_path / "cert.json")
        commands = [
            ["certify", "--pattern", TORUS_23, "--companion", "trefoil", "--format", "json"],
            ["sweep", "--p-max", "3", "--q-max", "6", "--companion", "trefoil"],
            ["certify", "--pattern", TORUS_23, "--bogus"],
            ["certify", "--pattern", '{"torus_pattern": [3, 4]}', "--companion", "trefoil"],
            ["certify", "--pattern", TORUS_23, "--companion", "trefoil", "--out", path],
            ["certify", "--replay", path],
            ["set-algebra", "--covers", "[-inf, 2) ∪ (7, inf]", "(1, 8)"],
        ]
        codes = []
        for argv in commands:
            capsys.readouterr()
            code, text = run(argv)
            assert (code, text, capsys.readouterr().err) == run_process(argv)
            codes.append(code)
        assert codes == [0, 0, 3, 1, 0, 0, 0]

    def test_a_fresh_process_imports_neither_fractions_nor_decimal(self):
        """Either would cost every start of the command line a few
        milliseconds.  PYTHONPROFILEIMPORTTIME is -X importtime."""
        code, out, err = run_process(
            ["set-algebra", "--interior", "[1, inf]"], PYTHONPROFILEIMPORTTIME="1"
        )
        assert (code, out) == (0, "(1/1, inf)\n")
        assert re.search(r"\| +lspacesat\.slopes$", err, re.MULTILINE)
        assert not re.search(r"\| +(fractions|decimal)$", err, re.MULTILINE)


# Each command's run, with the engine call it makes; CERT stands for a
# stored certificate.
ENGINE_CALLS = {
    "certify": (["certify", "--pattern", TORUS_23, "--companion", "trefoil"], "certify_satellite"),
    "replay": (["certify", "--replay", "CERT"], "replay_certificate"),
    "explain": (["explain", "CERT"], "render_statement"),
    "cable": (["cable", "--companion", "trefoil", "--p", "2", "--q", "3"], "certify_cable"),
    "sweep": (["sweep", "--p-max", "2", "--q-max", "3", "--companion", "trefoil"], "certify_cable"),
    "set-algebra": (["set-algebra", "--interior", "[1, 2]"], "SlopeSet.parse"),
    "oracle": (["oracle", "--trials", "1"], "covers_circle"),
}


class TestEngineBug:
    """A seeded engine bug raises ConsistencyError, and any other
    exception of the engine is a bug too; main turns either into one
    error line and exit 3: Python's exit 1 for an uncaught exception
    would read as "not certified"."""

    def test_every_command_runs_with_a_seeded_exception(self):
        assert {argv[0] for argv, _ in ENGINE_CALLS.values()} == set(cli._COMMANDS)

    @pytest.mark.parametrize(
        "error", [KeyError, TypeError, ZeroDivisionError, RuntimeError, AssertionError]
    )
    @pytest.mark.parametrize("command", ENGINE_CALLS)
    def test_any_exception_is_an_internal_error(self, command, error, monkeypatch, tmp_path, capsys):
        argv, call = ENGINE_CALLS[command]
        path = tmp_path / "cert.json"
        path.write_text(CABLE_2_3_OF_TREFOIL)

        def seeded(*args, **kwargs):
            raise error("seeded")

        monkeypatch.setattr(f"lspacesat.cli.{call}", seeded)
        capsys.readouterr()
        code, _ = run([str(path) if arg == "CERT" else arg for arg in argv])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1
        assert err.startswith(f"error: internal error: {error.__name__}: ")

    def test_help_is_no_internal_error(self, capsys):
        """--help leaves main as argparse's SystemExit, which no handler
        of main takes for an exception."""
        with pytest.raises(SystemExit) as raised:
            run(["--help"])
        assert raised.value.code == 0 and capsys.readouterr().err == ""

    @staticmethod
    def assert_exits_3(argv, capsys):
        capsys.readouterr()
        code, text = run(argv)
        err = capsys.readouterr().err
        assert code == 3 and text == ""
        assert err.startswith("error: internal consistency check failed: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, seed",
        [
            (ENGINE_CALLS["certify"][0], lambda mp: seed_lemma_bug(mp, "lem.7")),
            (
                ENGINE_CALLS["cable"][0],
                lambda mp: mp.setattr(certify, "cable_is_lspace_exact", lambda k, p, q: False),
            ),
            (ENGINE_CALLS["sweep"][0], lambda mp: seed_lemma_bug(mp, "lem.sandwich")),
        ],
        ids=["certify", "cable_certified_against_the_exact_criterion", "sweep"],
    )
    def test_seeded_bug(self, argv, seed, monkeypatch, capsys):
        seed(monkeypatch)
        self.assert_exits_3(argv, capsys)

    def test_replay(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code, _ = run(["certify", "--pattern", TORUS_23, "--companion", "trefoil", "--out", str(path)])
        assert code == 0
        seed_lemma_bug(monkeypatch, "lem.7")
        self.assert_exits_3(["certify", "--replay", str(path)], capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--pattern", TORUS_23, "--companion", "trefoil"],
            ["cable", "--companion", "trefoil", "--p", "2", "--q", "3"],
        ],
        ids=["certify", "cable"],
    )
    def test_twist_over_the_genus_bound(self, argv, monkeypatch, capsys):
        # A torus pattern whose P(U) comes out 100 over its genus: the
        # genus cross-check in twisted_facts fails, which is no bad input.
        twist = _BraidPattern._twist

        def lying(self, n):
            facts = twist(self, n)
            return dataclasses.replace(facts, genus=facts.genus + 100) if n == 0 else facts

        monkeypatch.setattr(_BraidPattern, "_twist", lying)
        self.assert_exits_3(argv, capsys)


class TestExplain:
    @staticmethod
    def explain(text, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(text + "\n")
        capsys.readouterr()
        code, out = run(["explain", str(path)])
        return code, out, capsys.readouterr().err

    def test_certified_table(self, tmp_path, capsys):
        code, out, err = self.explain(CABLE_2_3_OF_TREFOIL, tmp_path, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "REPLAY OK: verdict CERTIFIED reproduced",
            "params: a=2 b=7 r=13",
            "[ok] necessary.fibered  companion and P(U) are fibered  "
            '{"companion_fibered": true, "pattern_fibered": true}',
            '[ok] necessary.winding  winding number is nonzero  {"winding": 2}',
            "[ok] thm1.1  companion is a nontrivial L-space knot  "
            '{"is_lspace": true, "is_unknot": false}',
            "[ok] thm1.2  winding >= 2 with a minimal meridional disk  "
            '{"winding": 2, "disk": true}',
            '[ok] thm1.3  P(U, -2) is an L-space knot  {"twist": -2, "knot": "T(2,-1)"}',
            "[ok] thm1.4  negative L-space tail asserted for large negative twists  "
            '{"threshold": 1}',
            '[ok] lem.4  r >= 2g(P) + a·w(2w-1) - 1  {"rhs": 13, "g": 1}',
            "[ok] lem.5  b·w >= 2g(P) + r - 1 (exact form of b >= (2g(P)+r-1)/w)  "
            '{"lhs": 14, "rhs": 14}',
            "[ok] lem.7  P(U, -7) is a negative L-space knot  "
            '{"twist": -7, "knot": "T(2,-11)"}',
            "[ok] lem.sandwich  a·w² < r < b·w² (so 1/b < w²/r < 1/a)  "
            '{"aw2": 8, "bw2": 28}',
            "[ok] hrrw.cover  strict slope sets of the two sides jointly cover QP^1  "
            '{"s1": "(1/1, inf)", "s2": "(7/1, inf] ∪ [-inf, 2/1)"}',
            "trusted_inputs:",
            '  companion: {"name": "T(2,3)", "genus": 1, "is_lspace": true, '
            '"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}',
        ]

    @pytest.mark.parametrize(
        "pattern, companion, code, failing",
        [
            (
                torus_pattern(3, 4),
                torus_knot(2, 3),
                1,
                '[FAIL] thm1.3  P(U, -2) is an L-space knot  {"twist": -2, "knot": "T(3,-2)"}',
            ),
            (
                torus_pattern(2, 3),
                KnotFacts("unfibered", 2, False, False, False, False),
                2,
                "[FAIL] necessary.fibered  companion and P(U) are fibered  "
                '{"companion_fibered": false, "pattern_fibered": true}',
            ),
        ],
        ids=["not_certified", "rejected"],
    )
    def test_exits_as_replay_with_the_reason_and_failing_check(
        self, pattern, companion, code, failing, tmp_path, capsys
    ):
        cert = certify_satellite(pattern, companion)
        got, out, err = self.explain(cert.to_json(), tmp_path, capsys)
        assert (got, err) == (code, "")
        lines = out.splitlines()
        assert lines[1] == f"reason: {cert.reason}"
        assert failing in lines

    @pytest.mark.parametrize(
        "text",
        [
            FORMAT_2_CABLE_2_3_OF_TREFOIL,
            FORMAT_3_CABLE_2_3_OF_TREFOIL,
            FORMAT_4_CABLE_2_3_OF_TREFOIL,
            CABLE_2_3_OF_TREFOIL.replace("13", "14"),
        ],
    )
    def test_a_certificate_that_fails_replay_prints_no_table(self, text, tmp_path, capsys):
        code, out, err = self.explain(text, tmp_path, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot replay ") and err.count("\n") == 1

    def test_runs_the_pipeline_once(self, tmp_path, capsys, monkeypatch):
        """Replay runs the pipeline; the table is read off the stored
        text, which replay found to be the re-run's."""
        calls = []

        def counted(pattern, companion):
            calls.append(companion)
            return certify_satellite(pattern, companion)

        monkeypatch.setattr(certify, "certify_satellite", counted)
        monkeypatch.setattr(cli, "certify_satellite", counted)
        code, out, err = self.explain(CABLE_2_3_OF_TREFOIL, tmp_path, capsys)
        assert (code, err, len(out.splitlines())) == (0, "", 15)
        assert len(calls) == 1

    def test_a_missing_file_exits_3(self, tmp_path, capsys):
        code, out = run(["explain", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert (code, out) == (3, "") and err.startswith("error: ")


GOLDEN_TEXTS = [pytest.param(p.values[2], id=p.id) for p in GOLDEN_CERTIFICATES]
VERDICT_EXIT = {"CERTIFIED": 0, "NOT_CERTIFIED": 1, "REJECTED": 2}


class TestGoldenCertificates:
    """The golden certificate of each exit path of the pipeline replays
    and explains on the command line, exiting with its verdict's code."""

    @staticmethod
    def run_on(argv, text, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(text + "\n")
        capsys.readouterr()
        code, out = run([*argv, str(path)])
        return code, out, capsys.readouterr().err

    @pytest.mark.parametrize("text", GOLDEN_TEXTS)
    def test_replay(self, text, tmp_path, capsys):
        verdict = json.loads(text)["verdict"]
        got = self.run_on(["certify", "--replay"], text, tmp_path, capsys)
        assert got == (VERDICT_EXIT[verdict], f"REPLAY OK: verdict {verdict} reproduced\n", "")

    @pytest.mark.parametrize("text", GOLDEN_TEXTS)
    def test_explain(self, text, tmp_path, capsys):
        """The reason and the parameters if the certificate holds them,
        one line per check with its statement filled in from its values,
        then the trusted inputs, each with the facts it holds."""
        cert = json.loads(text)
        expected = [f"REPLAY OK: verdict {cert['verdict']} reproduced"]
        if cert["reason"] is not None:
            expected.append(f"reason: {cert['reason']}")
        if (params := cert["params"]) is not None:
            expected.append(f"params: a={params['a']} b={params['b']} r={params['r']}")
        for check in cert["checks"]:
            values = check["values"]
            statement = STATEMENTS[check["id"]].replace("{twist}", str(values.get("twist")))
            mark = "ok" if check["pass"] else "FAIL"
            dumped = json.dumps(values, ensure_ascii=False)
            expected.append(f"[{mark}] {check['id']}  {statement}  {dumped}")
        expected.append("trusted_inputs:")
        for key in cert["trusted_inputs"]:
            expected.append(f"  {key}: {json.dumps(cert[key], ensure_ascii=False)}")
        code, out, err = self.run_on(["explain"], text, tmp_path, capsys)
        assert (code, err) == (VERDICT_EXIT[cert["verdict"]], "")
        assert out.splitlines() == expected


# An ASCII locale with Python's UTF-8 mode and locale coercion off, so
# that open() without an encoding would read and write ASCII.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
TABLE_NAMED_TAU = TABLE_WITH_TREFOIL_AT_0.replace('"name": "t"', '"name": "\\u03c4"')


class TestFileEncoding:
    """Files are read and written as UTF-8, the encoding of JSON, whatever
    the locale; only stdout follows it."""

    @staticmethod
    def raw_tau_certificate(tmp_path):
        """The certificate of the table named τ over the trefoil, written
        by certify --out under ASCII_LOCALE, then with the name's JSON
        escape rewritten as the UTF-8 bytes of τ."""
        argv = ["certify", "--pattern", TABLE_NAMED_TAU, "--companion", "trefoil"]
        code, _, err = run_process([*argv, "--out", "tau.json"], tmp_path, **ASCII_LOCALE)
        assert (code, err) == (0, "")
        path = tmp_path / "tau.json"
        text = path.read_bytes().decode()
        assert text == run([*argv, "--format", "json"])[1] and '"\\u03c4"' in text
        path.write_bytes(text.replace("\\u03c4", "τ").encode())
        return path

    def test_sweep_out_writes_a_non_ascii_companion(self, tmp_path):
        argv = ["sweep", "--p-max", "4", "--q-max", "6", "--companion", TREFOIL_NAMED_E]
        code, out, err = run_process([*argv, "--out", "s.csv"], tmp_path, **ASCII_LOCALE)
        assert (code, out, err) == (0, "", "")
        text = (tmp_path / "s.csv").read_bytes().decode()
        assert text == run(argv)[1] and '""é""' in text

    def test_a_utf8_argument_gives_one_certificate_whatever_the_locale(self, tmp_path):
        """A raw τ in --pattern is read as UTF-8 under the ASCII locale
        too, so it, UTF-8 mode and the default locale each print and
        write the certificate of the table named τ."""
        pattern = TABLE_WITH_TREFOIL_AT_0.replace('"name": "t"', '"name": "τ"')
        argv = ["certify", "--pattern", pattern, "--companion", "trefoil", "--format", "json"]
        ascii_run = run_process([*argv, "--out", "ascii.json"], tmp_path, **ASCII_LOCALE)
        utf8_run = run_process(argv, tmp_path, **{**ASCII_LOCALE, "PYTHONUTF8": "1"})
        default_run = run_process([*argv, "--out", "default.json"], tmp_path)
        assert ascii_run == utf8_run == default_run == (0, run(argv)[1], "")
        assert '"name": "\\u03c4"' in ascii_run[1]
        assert (tmp_path / "ascii.json").read_bytes() == (tmp_path / "default.json").read_bytes()

    def test_an_argument_that_is_not_utf8_exits_3(self, tmp_path):
        pattern = TABLE_WITH_TREFOIL_AT_0.encode().replace(b'"name": "t"', b'"name": "\xff"')
        for env in (ASCII_LOCALE, {**ASCII_LOCALE, "PYTHONUTF8": "1"}):
            code, out, err = run_process(
                ["certify", "--pattern", pattern, "--companion", "trefoil"], tmp_path, **env
            )
            assert (code, out) == (3, "") and err.count("\n") == 1
            assert err.startswith("error: bad pattern ")
            assert "'utf-8' codec can't decode byte 0xff" in err

    def test_replay_and_explain_read_a_raw_utf8_certificate(self, tmp_path):
        path = self.raw_tau_certificate(tmp_path)
        code, out, err = run_process(["certify", "--replay", str(path)], tmp_path, **ASCII_LOCALE)
        assert (code, out, err) == (0, "REPLAY OK: verdict CERTIFIED reproduced\n", "")
        code, out, err = run_process(
            ["explain", str(path)], tmp_path, **ASCII_LOCALE, PYTHONIOENCODING="utf-8"
        )
        assert (code, err) == (0, "")
        assert "[ok] lem.4  r >= 2g(P) + a·w(2w-1) - 1  " in out
        trefoil = (
            '{"name": "T(2,3)", "genus": 1, "is_lspace": true, '
            '"is_neg_lspace": false, "is_fibered": true, "is_unknot": false}'
        )
        table = (
            '{"table": {"name": "τ", "winding": 2, "genus_s3": 1, "has_disk": true, '
            f'"twists": {{"0": {trefoil}}}, "neg_threshold": 7, "pos_from": -2}}}}'
        )
        assert out.endswith(f"trusted_inputs:\n  companion: {trefoil}\n  pattern: {table}\n")

    def test_explain_to_an_ascii_stdout_still_exits_3(self, tmp_path):
        """The certificate reads; its statements cannot be written, to
        stdout under the ASCII locale or encoded by PYTHONIOENCODING."""
        path = self.raw_tau_certificate(tmp_path)
        for env in (ASCII_LOCALE, {"PYTHONIOENCODING": "ascii"}):
            code, out, err = run_process(["explain", str(path)], tmp_path, **env)
            assert code == 3 and out.startswith("REPLAY OK: ") and err.count("\n") == 1
            assert err.startswith("error: 'ascii' codec can't encode character ")


def documented_commands():
    """The argv of each lspacesat command in README's "Command line"
    block and in the CI workflow, with its source for a test id."""
    root = SRC.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [("README", line) for line in re.sub(r"\\\n\s*", " ", block).splitlines()]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    lines += [("tier1.yml", line.strip()) for line in workflow.splitlines()]
    command = re.compile(r"(?:- run: )?(?:PYTHONPATH=\S+ python -m lspacesat\.cli|lspacesat) (.*)")
    commands = []
    for source, line in lines:
        found = command.match(line)
        if found:
            commands.append(pytest.param(shlex.split(found[1]), id=f"{source}: {found[1]}"))
    return commands


DOCUMENTED_COMMANDS = documented_commands()


class TestDocumentedCommands:
    """Each command the docs or CI run parses, so an option the command
    line drops cannot linger in either; parse_args runs none of them."""

    def test_both_sources_are_read(self):
        assert {c.id.split(":")[0] for c in DOCUMENTED_COMMANDS} == {"README", "tier1.yml"}

    @pytest.mark.parametrize("argv", DOCUMENTED_COMMANDS)
    def test_parses(self, argv):
        cli.build_parser().parse_args(argv)


class TestCable:
    @pytest.mark.parametrize(
        "p, q, code, line",
        [
            ("2", "3", 0, "exact criterion: the (2,3)-cable is an L-space knot"),
            ("3", "4", 1, "gap: exact criterion holds but sufficient conditions do not"),
        ],
        ids=["agreeing", "gap"],
    )
    def test_verdict_lines(self, p, q, code, line):
        got, text = run(["cable", "--companion", "trefoil", "--p", p, "--q", q])
        assert got == code and line in text.splitlines()
        assert ("gap" in text) is (code == 1)

    def test_json_of_a_certified_cable(self):
        """The cover text: the companion's strict slopes (s1) and the
        swapped pattern arc (s2).  The torus pattern's twists keep their
        torus-knot names: P(U, -4) in thm1.3 and P(U, -b) in lem.7."""
        argv = ["cable", "--companion", "T(2,5)", "--p", "3", "--q", "17", "--format", "json"]
        code, text = run(argv)
        checks = json.loads(text.splitlines()[0])["checks"]
        assert code == 0
        assert checks[-1]["values"] == {"s1": "(3/1, inf)", "s2": "(41/1, inf] ∪ [-inf, 4/1)"}
        knots = {check["id"]: check["values"].get("knot") for check in checks}
        assert (knots["thm1.3"], knots["lem.7"]) == ("T(3,5)", "T(3,-106)")


class TestSweep:
    def test_csv_shape_boundaries_and_soundness(self):
        argv = ["sweep", "--p-max", "4", "--q-max", "15"]
        for companion in ("trefoil", "T(2,5)", '{"cable": {"companion": "trefoil", "p": 2, "q": 3}}'):
            argv += ["--companion", companion]
        code, text = run(argv)
        assert code == 0
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["p", "q", "companion", "sufficient_verdict", "exact_verdict", "gap_flag"]
        for p, q, companion, verdict, exact, gap in rows:
            assert verdict != "CERTIFIED" or exact == "lspace"
            if companion == "trefoil":
                # Exact boundary for g = 1: q > p.  Sufficient boundary:
                # q >= 2p - 1, so the strip p < q < 2p - 1 is the gap.
                assert (exact == "lspace") == (int(q) > int(p))
                assert (gap == "gap") == (int(p) < int(q) < 2 * int(p) - 1)
        assert "gap" in {row[5] for row in rows}

    @staticmethod
    def sweep_rows(*companions):
        argv = ["sweep", "--p-max", "8", "--q-max", "60"]
        for companion in companions:
            argv += ["--companion", companion]
        code, text = run(argv)
        assert code == 0
        return list(csv.reader(io.StringIO(text)))[1:]

    def test_gap_rows_of_the_trefoil_and_t_2_5(self):
        """The gap is the strip p(2g-1) < q <= 2gp - 2: 14 rows for each
        of the trefoil and T(2,5) at p <= 8, |q| <= 60."""
        rows = self.sweep_rows("trefoil", "T(2,5)")
        assert [r[2] for r in rows if r[5] == "gap"] == ["T(2,5)"] * 14 + ["trefoil"] * 14

    def test_each_companion_form_is_read_as_certify_reads_it(self):
        rows = self.sweep_rows("trefoil", '{"torus_knot": [2, 3]}')
        trefoil = [r for r in rows if r[2] == "trefoil"]
        torus = [r for r in rows if r[2] == '{"torus_knot": [2, 3]}']
        assert len(trefoil) + len(torus) == len(rows)
        assert [r[:2] + r[3:] for r in torus] == [r[:2] + r[3:] for r in trefoil]

    def test_explicit_facts_of_a_non_fibered_knot_are_rejected(self):
        five_two = json.dumps(
            {
                "name": "5_2",
                "genus": 1,
                "is_lspace": False,
                "is_neg_lspace": False,
                "is_fibered": False,
                "is_unknot": False,
            }
        )
        rows = self.sweep_rows(five_two)
        assert rows and {tuple(r[2:5]) for r in rows} == {(five_two, "REJECTED", "not_lspace")}

    def test_out_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code, text = run(
            [
                "sweep",
                "--p-max",
                "2",
                "--q-max",
                "5",
                "--companion",
                "trefoil",
                "--out",
                str(path),
            ]
        )
        assert code == 0 and text == ""
        assert path.read_text().startswith("p,q,companion")


class TestSetAlgebra:
    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (["--covers", "[-inf, 2) ∪ (7, inf]", "(1, 8)"], 0, "FULL\n"),
            # A gap prints the union.
            (["--covers", "[0, 1]", "[2, 3]"], 1, "[0/1, 1/1] ∪ [2/1, 3/1]\n"),
            (["--covers", "[0, 1]", "[1, 2]"], 1, "[0/1, 2/1]\n"),
            (["--interior", "[1, inf]"], 0, "(1/1, inf)\n"),
            # The complement of a point, which parse builds as one arc.
            (["--interior", "QP1 \\ {0}"], 0, "QP1 \\ {0/1}\n"),
        ],
        ids=["covers_full", "covers_gap", "union", "interior", "interior_copoint"],
    )
    def test_output(self, argv, code, out):
        assert run(["set-algebra", *argv]) == (code, out)


_SLOPE_TEXTS = st.sampled_from(["inf", "-inf", "+∞", "-∞"]) | st.builds(
    "{}{}".format,
    st.integers(-50, 50),
    st.sampled_from(["", "/3", " / -7", "/0", "/1"]),
)
_PIECE_TEXTS = st.builds("{{{}}}".format, _SLOPE_TEXTS) | st.builds(
    "{}{}, {}{}".format,
    st.sampled_from("[("),
    _SLOPE_TEXTS,
    _SLOPE_TEXTS,
    st.sampled_from("])"),
)
_SET_TEXTS = (
    st.lists(_PIECE_TEXTS, min_size=1, max_size=4).map(" ∪ ".join)
    | st.sampled_from(["EMPTY", "FULL"])
    | st.builds("QP1 \\ {{{}}}".format, _SLOPE_TEXTS)
)


@st.composite
def _one_inserted(draw, texts):
    """A text of the set grammar with one arbitrary character inserted."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.characters()) + text[i:]


_FUZZ_SET_TEXTS = st.text() | _SET_TEXTS | _one_inserted(_SET_TEXTS)


class TestSetAlgebraFuzz:
    @settings(max_examples=300, deadline=None)
    @given(a=_FUZZ_SET_TEXTS, b=_FUZZ_SET_TEXTS)
    def test_covers_exits_with_a_documented_code(self, a, b):
        """Any two texts, well formed or not, end in exit 0 (the union is
        FULL), 1 (it is not) or 3 (one error line), never in a traceback."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["set-algebra", "--covers", a, b])
        assert code in (0, 1, 3)
        if code == 3:
            assert text == "" and err.getvalue().startswith("error: ")
            assert not err.getvalue().startswith("error: internal error:")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == "" and (text == "FULL\n") == (code == 0)


class TestOracle:
    def test_small_run_clean(self):
        code, text = run(["oracle", "--trials", "40", "--seed", "7"])
        assert code == 0
        assert text == "oracle: 40 random pairs on 720 slopes, 0 discrepancies\n"

