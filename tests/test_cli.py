import io
import json

import pytest

from lspacesat.cli import main


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def write_tampered_certificate(path):
    """The worked (2,3)-cable certificate with its verdict flipped."""
    run(
        [
            "certify",
            "--pattern",
            '{"torus_pattern": [2, 3]}',
            "--companion",
            "trefoil",
            "--out",
            str(path),
        ]
    )
    data = json.loads(path.read_text())
    data["verdict"] = "NOT_CERTIFIED"
    path.write_text(json.dumps(data))


class TestCertify:
    def test_certified_text(self):
        code, text = run(
            ["certify", "--pattern", '{"torus_pattern": [2, 3]}', "--companion", "trefoil"]
        )
        assert code == 0
        assert text.strip() == "CERTIFIED: r=13 surgery is an L-space"

    def test_not_certified(self):
        code, text = run(
            ["certify", "--pattern", '{"torus_pattern": [3, 4]}', "--companion", "trefoil"]
        )
        assert code == 1 and text.startswith("NOT CERTIFIED")

    def test_non_lspace_companion(self):
        code, text = run(
            ["certify", "--pattern", '{"torus_pattern": [2, 3]}', "--companion", "figure8"]
        )
        # figure8 is fibered but not an L-space knot: thm1.1 fails.
        assert code == 1 and "thm1.1" in text

    def test_json_format(self):
        code, text = run(
            [
                "certify",
                "--pattern",
                '{"torus_pattern": [2, 9]}',
                "--companion",
                "T(2,5)",
                "--format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads(text)
        assert data["verdict"] == "CERTIFIED"
        assert data["params"]["a"] == 4

    def test_bad_companion_is_input_error(self):
        code, _ = run(
            ["certify", "--pattern", '{"torus_pattern": [2, 3]}', "--companion", "granny"]
        )
        assert code == 3

    def test_missing_args(self):
        code, _ = run(["certify", "--pattern", '{"torus_pattern": [2, 3]}'])
        assert code == 3

    def test_out_and_replay_round_trip(self, tmp_path):
        path = tmp_path / "cert.json"
        code, _ = run(
            [
                "certify",
                "--pattern",
                '{"torus_pattern": [2, 3]}',
                "--companion",
                "trefoil",
                "--out",
                str(path),
            ]
        )
        assert code == 0 and path.exists()
        code, text = run(["certify", "--replay", str(path)])
        assert code == 0 and "REPLAY OK" in text

    def test_replay_detects_tampering(self, tmp_path):
        path = tmp_path / "cert.json"
        write_tampered_certificate(path)
        code, _ = run(["certify", "--replay", str(path)])
        assert code == 3

    @pytest.mark.parametrize(
        "certificate",
        [None, b'{"verdict": "CERTIFIED"}', b"not json", b"\xd0\x00", b"[]", "tampered"],
        ids=["link_pattern", "incomplete", "not_json", "not_utf8", "json_list", "tampered"],
    )
    def test_bad_input_exits_3_without_traceback(self, certificate, tmp_path, capsys):
        """Inputs that used to escape main as exceptions (and so exit 1,
        which reads as "not certified") end in one error line and exit 3."""
        path = tmp_path / "cert.json"
        if certificate is None:
            # B(7, 3, 4) closes to a two-component link.
            pattern = '{"one_bridge_braid": {"w": 7, "b": 3, "t": 4}}'
            argv = ["certify", "--pattern", pattern, "--companion", "trefoil"]
        else:
            if certificate == "tampered":
                write_tampered_certificate(path)
            else:
                path.write_bytes(certificate)
            argv = ["certify", "--replay", str(path)]
        capsys.readouterr()
        code, text = run(argv)
        err = capsys.readouterr().err
        assert code == 3 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestCable:
    def test_agreeing(self):
        code, text = run(["cable", "--companion", "trefoil", "--p", "2", "--q", "3"])
        assert code == 0
        assert "exact criterion: the (2,3)-cable is L-space knot" in text
        assert "gap" not in text

    def test_gap(self):
        code, text = run(["cable", "--companion", "trefoil", "--p", "3", "--q", "4"])
        assert code == 1
        assert "gap: exact criterion holds" in text

    def test_not_coprime_is_input_error(self):
        code, _ = run(["cable", "--companion", "trefoil", "--p", "4", "--q", "6"])
        assert code == 3


class TestSweep:
    def test_csv_shape_and_boundary(self):
        code, text = run(
            ["sweep", "--p-max", "3", "--q-max", "12", "--companion", "trefoil"]
        )
        assert code == 0
        import csv

        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert header == ["p", "q", "companion", "sufficient_verdict", "exact_verdict", "gap_flag"]
        rows = list(reader)
        # Exact boundary for the trefoil (g = 1): q > p, i.e. q >= p + 1.
        for p, q, _, _, exact, _ in rows:
            assert (exact == "lspace") == (int(q) > int(p))
        # Sufficient boundary: q >= 2p - 1; the strip p < q < 2p - 1 is the gap.
        gap_rows = [r for r in rows if r[5] == "gap"]
        assert gap_rows and all(
            int(p) < int(q) < 2 * int(p) - 1 for p, q, *_ in gap_rows
        )

    def test_soundness_on_grid(self):
        code, text = run(
            ["sweep", "--p-max", "4", "--q-max", "15", "--companion", "trefoil,T(2,5)"]
        )
        assert code == 0
        import csv

        reader = csv.reader(io.StringIO(text))
        next(reader)
        for _, _, _, verdict, exact, _ in reader:
            if verdict == "CERTIFIED":
                assert exact == "lspace"

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
    def test_covers_full(self):
        code, text = run(
            ["set-algebra", "--covers", "[-inf, 2) ∪ (7, inf]", "(1, 8)"]
        )
        assert code == 0 and text.strip() == "FULL"

    def test_covers_gap_prints_union(self):
        code, text = run(["set-algebra", "--covers", "[0, 1]", "[2, 3]"])
        assert code == 1 and "∪" in text

    def test_union(self):
        code, text = run(["set-algebra", "--union", "[0, 1]", "[1, 2]"])
        assert code == 0 and text.strip() == "[0/1, 2/1]"

    def test_interior(self):
        code, text = run(["set-algebra", "--interior", "[1, inf]"])
        assert code == 0 and text.strip() == "(1/1, inf)"

    def test_parse_error(self):
        code, _ = run(["set-algebra", "--interior", "[banana]"])
        assert code == 3

    def test_no_operation(self):
        code, _ = run(["set-algebra"])
        assert code == 3


class TestOracle:
    def test_small_run_clean(self):
        code, text = run(["oracle", "--max-den", "30", "--trials", "40", "--seed", "7"])
        assert code == 0
        assert "40 random pairs" in text and "0 discrepancies" in text

    def test_rejects_nonpositive_trials(self):
        code, _ = run(["oracle", "--trials", "0"])
        assert code == 3
