"""Annotation ingestion and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cobb
from cobb.cli import main
from cobb.dota import DotaRecord, is_metadata_line, parse_dota_line, read_dota_file, record_box
from cobb.errors import DotaParseError
from cobb.geometry import OrientedBox, iou, vertices_of

GOOD = "0 0 4 0 4 2 0 2 plane 0"


class TestParse:
    def test_simple_line(self):
        rec = parse_dota_line(GOOD)
        assert rec.category == "plane" and rec.difficulty == 0
        assert rec.quad == ((0, 0), (0, 2), (4, 2), (4, 0))  # canonical order

    def test_token_count(self):
        with pytest.raises(DotaParseError, match="line 7.*10 tokens"):
            parse_dota_line("0 0 4 0 4 2 0 2 plane", line_no=7)

    def test_bad_number(self):
        with pytest.raises(DotaParseError, match="non-numeric"):
            parse_dota_line("0 0 x 0 4 2 0 2 plane 0")

    def test_bad_difficulty(self):
        with pytest.raises(DotaParseError, match="difficulty"):
            parse_dota_line("0 0 4 0 4 2 0 2 plane easy")

    def test_metadata_detection(self):
        assert is_metadata_line("imagesource:GoogleEarth")
        assert is_metadata_line("gsd:0.146")
        assert not is_metadata_line(GOOD)

    def test_rotated_square_fit(self):
        box = OrientedBox(10, 5, 3, 3, 0.6)
        coords = " ".join(f"{v:.9f}" for v in vertices_of(box).flat)
        rec = parse_dota_line(coords + " storage-tank 1")
        assert iou(record_box(rec), box) >= 1 - 1e-6


class TestReadFile:
    def test_mixed_file(self, tmp_path):
        f = tmp_path / "ann.txt"
        f.write_text(
            "imagesource:GoogleEarth\n"
            "gsd:0.146343590398\n"
            f"{GOOD}\n"
            "1 1 2 1 2 2 1 2 ship\n"  # 9 tokens: skipped
            "5 5 9 5 9 7 5 7 harbor 2\n"
        )
        records, skipped = read_dota_file(f)
        assert [r.category for r in records] == ["plane", "harbor"]
        assert len(skipped) == 1 and "line 4" in skipped[0]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("")
        assert read_dota_file(f) == ([], [])


class TestConvertAnnotations:
    def test_counts(self, tmp_path):
        from cobb.baselines import get_codec
        from cobb.dota import convert_annotations

        f = tmp_path / "ann.txt"
        lines = [GOOD] * 5 + ["not an annotation"] + [GOOD.replace("plane", "ship")] * 2
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        assert convert_annotations(f, get_codec("long-edge"), out) == 7
        assert len(out.read_text().splitlines()) == 8

    def test_empty(self, tmp_path):
        from cobb.baselines import get_codec
        from cobb.dota import convert_annotations

        f = tmp_path / "ann.txt"
        f.write_text("")
        assert convert_annotations(f, get_codec("cobb"), tmp_path / "o.csv") == 0


from hypothesis import given, strategies as st


@given(st.text(max_size=120))
def test_parser_never_panics(line):
    """Arbitrary text either parses or raises the typed parse error."""
    try:
        rec = parse_dota_line(line, line_no=1)
    except DotaParseError:
        return
    assert isinstance(rec, DotaRecord)


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_codec_exits_2(self, capsys):
        assert main(["roundtrip", "--codec", "nope"]) == 2

    def test_iou_check(self, capsys):
        assert main(["iou-check", "--samples", "300", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "max |closed-form - oracle|" in out

    def test_roundtrip_pass_and_fail(self, capsys):
        assert main(["roundtrip", "--codec", "acute", "--samples", "16", "--seed", "1"]) == 0
        assert main(["roundtrip", "--codec", "csl", "--samples", "16", "--seed", "1"]) == 1

    def test_audit_failing_codec_exits_1(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main([
            "audit", "--codec", "acute", "--seed", "7", "--samples", "8",
            "--out", str(out),
        ])
        assert code == 1
        data = json.loads(out.read_text())
        assert data[0]["codec"] == "acute"
        names = [m["name"] for m in data[0]["metrics"]]
        assert names == [
            "target-rotation", "target-aspect", "loss-rotation", "loss-aspect",
            "decoding-completeness", "decoding-robustness",
        ]
        verdicts = {m["name"]: m["verdict"] for m in data[0]["metrics"]}
        assert verdicts["target-rotation"] == "fail"
        assert verdicts["target-aspect"] == "pass"
        failing = [m for m in data[0]["metrics"] if m["verdict"] == "fail"]
        assert all(m["witness"] is not None for m in failing)

    def test_audit_json_carries_notes(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["audit", "--codec", "cobb", "--samples", "4", "--seed", "7", "--out", str(out)]) == 1
        metrics = {m["name"]: m for m in json.loads(out.read_text())[0]["metrics"]}
        assert all("notes" in m for m in metrics.values())
        assert "vanishing with the perturbation" in metrics["decoding-robustness"]["notes"]

    def test_audit_byte_identical(self, tmp_path):
        args = ["audit", "--codec", "long-edge", "--seed", "3", "--samples", "8"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 1
        assert main(args + ["--out", str(b)]) == 1
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("--directions", "0"), ("--directions", "-1"), ("--steps", "inf"), ("--perturbation", "inf")],
    )
    def test_audit_rejects_config_before_running(self, tmp_path, capsys, flag, value):
        out = tmp_path / "rep.json"
        args = ["audit", "--codec", "cobb", "--samples", "2", "--out", str(out), flag, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be")
        assert not out.exists()

    def test_audit_csv_format(self, tmp_path):
        out = tmp_path / "rep.csv"
        main(["audit", "--codec", "acute", "--seed", "1", "--samples", "8",
              "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "codec,metric,delta,gap,verdict,witness"
        assert len(lines) == 1 + 4 * 3 + 2  # four swept metrics, two single-step

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "audit.cfg"
        cfgfile.write_text("codec=csl\nsamples=16\nseed=5\n")
        assert main(["roundtrip", "--config", str(cfgfile)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("csl:")
        # explicit flag beats the config value
        assert main(["roundtrip", "--config", str(cfgfile), "--codec", "acute"]) == 0

    def test_bad_config_key(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("nonsense=1\n")
        assert main(["roundtrip", "--config", str(cfgfile)]) == 2

    def test_config_key_no_subcommand_defines(self, tmp_path, capsys):
        cfgfile = tmp_path / "bins.cfg"
        cfgfile.write_text("bins=45\n")
        assert main(["iou-check", "--samples", "1", "--config", str(cfgfile)]) == 2
        assert "error: unknown config key 'bins'" in capsys.readouterr().err

    def test_config_value_goes_through_the_flag_type(self, tmp_path, capsys):
        cfgfile = tmp_path / "seed.cfg"
        cfgfile.write_text("seed=abc\n")
        assert main(["iou-check", "--samples", "1", "--config", str(cfgfile)]) == 2
        assert "error: bad config value seed='abc'" in capsys.readouterr().err

    def test_config_value_goes_through_the_flag_choices(self, tmp_path, capsys):
        cfgfile = tmp_path / "format.cfg"
        cfgfile.write_text("format=xml\n")
        out = tmp_path / "rep.out"
        args = ["audit", "--codec", "acute", "--samples", "1", "--out", str(out)]
        assert main(args + ["--config", str(cfgfile)]) == 2
        assert "error: bad config value format='xml'" in capsys.readouterr().err
        assert not out.exists()

    def test_convert_skips_degenerate_annotations(self, tmp_path, capsys):
        src = tmp_path / "ann.txt"
        src.write_text(
            f"{GOOD}\n"
            "5 5 5 5 5 5 5 5 ship 1\n"
            "1 1 2 2 3 3 4 4 ship 0\n"
            "5 5 9 5 9 7 5 7 harbor 2\n"
        )
        out = tmp_path / "enc.csv"
        assert main(["convert", str(src), "--codec", "cobb", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["plane", "harbor"]
        err = capsys.readouterr().err
        assert "skipped line 2: points are collinear" in err
        assert "skipped line 3: points are collinear" in err

    def test_convert(self, tmp_path, capsys):
        src = tmp_path / "ann.txt"
        src.write_text(
            "imagesource:fake\n"
            f"{GOOD}\n"
            "bad line\n"
            "5 5 9 5 9 7 5 7 harbor 2\n"
        )
        out = tmp_path / "enc.csv"
        assert main(["convert", str(src), "--codec", "acute", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "category,difficulty,cx,cy,w,h,theta"
        assert len(lines) == 3
        assert lines[1].startswith("plane,0,")
        err = capsys.readouterr().err
        assert "skipped" in err

    def test_convert_empty(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("")
        out = tmp_path / "enc.csv"
        assert main(["convert", str(src), "--codec", "cobb", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x.csv")])
        assert code in (1, 2) and code != 0

    def test_curves_cli(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "curves", "--codec", "acute", "--sweep", "rotation",
            "--box", "0,0,4,2,0", "--grid-points", "64", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep,cx,cy,w,h,theta"
        assert len(lines) == 65

    def test_module_entrypoint(self):
        # run the package this suite imported, whether installed or not
        env = dict(os.environ, PYTHONPATH=str(Path(cobb.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "cobb", "iou-check", "--samples", "50"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
