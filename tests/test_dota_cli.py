"""Annotation ingestion and the command-line surface."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cobb
from cobb import dota, geometry
from cobb.audit import ProbeConfig
from cobb.baselines import available_codecs, get_codec
from cobb.codec import FLOAT_FMT
from cobb.cli import _build, main
from cobb.dota import DotaRecord, convert_annotations, is_metadata_line, parse_dota_line, read_dota_file, record_box
from cobb.errors import DegenerateGeometryError, DotaParseError
from cobb.geometry import OrientedBox, iou, min_area_rect, vertices_of

GOOD = "0 0 4 0 4 2 0 2 plane 0"

# sha256 of `cobb audit --codec all --seed 7 --samples 4` (JSON), x86-64 Linux
AUDIT_SEED7_SAMPLES4_SHA256 = "66e00f9b27afa3e4696b8fbf33fe400be830d228a83dc48c2355a5583e6173a3"
# sha256 of `cobb curves --codec cobb --sweep <sweep> --box 0,0,4,2,0` (CSV, default grid), x86-64 Linux
CURVES_SHA256 = {
    "rotation": "39231792b46c7647411a7a8bcf39e7d5f0811c827e4a2f060a86b1ee49658e7b",
    "aspect": "600f145af8df6a12eda9cecd72e04ab84e085648e6a5dca22f46558fd13931c2",
}


class TestParse:
    def test_simple_line(self):
        rec = parse_dota_line(GOOD, 1)
        assert rec.category == "plane" and rec.difficulty == 0 and rec.line_no == 1
        assert rec.quad == ((0, 0), (4, 0), (4, 2), (0, 2))  # file order

    def test_token_count(self):
        with pytest.raises(DotaParseError, match="line 7.*10 tokens"):
            parse_dota_line("0 0 4 0 4 2 0 2 plane", line_no=7)

    def test_bad_number(self):
        with pytest.raises(DotaParseError, match="non-numeric"):
            parse_dota_line("0 0 x 0 4 2 0 2 plane 0", 1)

    def test_bad_difficulty(self):
        with pytest.raises(DotaParseError, match="difficulty"):
            parse_dota_line("0 0 4 0 4 2 0 2 plane easy", 1)

    @pytest.mark.parametrize("line", [
        "1_0 0 4 0 4 4 0 4 plane 0",
        "\uff11\uff10 0 4 0 4 4 0 4 plane 0",  # fullwidth 10
        "0 0 4 0 4 4 0 \u0664 plane 0",  # Arabic-Indic 4
        "0 0 4 0 4 4 0 4 plane 1_0",
        "0 0 4 0 4 4 0 4 plane \uff11",
        "0 0 4 0 4 4 0 4e1_0 plane 0",
    ])
    def test_number_not_plain_ascii(self, line):
        # float() and int() read each of these numbers (x0 of the first as 10.0)
        with pytest.raises(DotaParseError, match="line 3: number with an underscore or a non-ASCII character"):
            parse_dota_line(line, 3)

    def test_category_may_be_any_text(self):
        rec = parse_dota_line("0 0 4 0 4 2 0 2 pl_ane\u00e9 1", 1)
        assert rec.category == "pl_ane\u00e9" and rec.difficulty == 1

    def test_metadata_detection(self):
        assert is_metadata_line("imagesource:GoogleEarth")
        assert is_metadata_line("gsd:0.146")
        assert not is_metadata_line(GOOD)

    def test_rotated_square_fit(self):
        box = OrientedBox(10, 5, 3, 3, 0.6)
        coords = " ".join(f"{v:.9f}" for v in vertices_of(box).flat)
        rec = parse_dota_line(coords + " storage-tank 1", 1)
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

    def test_line_that_is_not_utf8_is_skipped(self, tmp_path):
        f = tmp_path / "ann.txt"
        f.write_bytes(b"5 5 9 5 9 7 5 7 pl\xffane 0\n" + GOOD.encode() + b"\n1\xe9 1 2 1 2 2 1 2 ship 0\n")
        records, skipped = read_dota_file(f)
        assert [(r.category, r.line_no) for r in records] == [("plane", 2)]
        assert skipped == ["line 1: not valid UTF-8", "line 3: not valid UTF-8"]

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


def pixel_lines(n, seed, jitter=0.0):
    """DOTA lines of ``n`` seeded pixel-scale rectangles, corners with one
    decimal, each coordinate moved by up to ``jitter`` times the shorter side."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        cx, cy, w, h, theta = (float(v) for v in rng.uniform((0, 0, 4, 4, 0), (2000, 2000, 300, 300, math.pi)))
        flat = vertices_of(OrientedBox(cx, cy, w, h, theta)).flat
        if jitter:
            flat = [v + jitter * min(w, h) * rng.uniform(-1.0, 1.0) for v in flat]
        coords = " ".join(f"{v:.1f}" for v in flat)
        lines.append(f"{coords} {('plane', 'ship', 'harbor')[int(rng.integers(3))]} {int(rng.integers(2))}".encode())
    return lines


REJECTED_LINES = [
    b"1 1 2 2 3 3 4 4 ship 0",  # collinear points
    b"5 5 5 5 5 5 5 5 ship 1",  # one repeated point
    b"1.7e308 1.7e308 -1.7e308 1.7e308 -1.7e308 -1.7e308 1.7e308 -1.7e308 ship 0",  # the fit overflows
    b"0 0 5e153 0 5e153 2e153 0 2e153 ship 0",  # too large for the candidate IoUs
    b"0 0 1e-310 0 1e-310 1e-310 0 1e-310 plane 0",  # subnormal coordinates
    b"0 -1.0e308 1.0e308 0 0 1.0e308 -1.0e308 0 ship 0",  # the outer HBB overflows
    b"5 5 9 5 9 7 5 7 harb\xf0r 2",  # not UTF-8
]


@pytest.mark.parametrize("name", available_codecs())
def test_convert_equals_a_per_record_loop(name, tmp_path, capsys):
    """The batch fit writes the bytes and logs the skips, in line order, of
    fitting and encoding each record on its own."""
    lines = pixel_lines(40, 3)
    for k, bad in enumerate(REJECTED_LINES):
        lines.insert(5 * k + 2, bad)
    src, out = tmp_path / "ann.txt", tmp_path / "enc.csv"
    src.write_bytes(b"\n".join(lines) + b"\n")
    codec = get_codec(name)
    records, skipped = read_dota_file(src)
    want_err = [f"{src}: skipped {reason}" for reason in skipped]
    want_csv = "category,difficulty," + ",".join(codec.component_names) + "\n"
    for rec in records:
        try:
            enc = codec.encode(record_box(rec))
        except DegenerateGeometryError as exc:
            want_err.append(f"{src}: skipped line {rec.line_no}: {exc}")
            continue
        want_csv += f"{rec.category},{rec.difficulty}," + ",".join(FLOAT_FMT % v for v in enc) + "\n"
    capsys.readouterr()
    assert main(["convert", str(src), "--codec", name, "--out", str(out)]) == 0
    assert out.read_bytes() == want_csv.encode()
    assert capsys.readouterr().err.splitlines() == want_err
    assert len(want_err) >= 5  # five of the rejected lines are rejected by every codec


def presentation(line, start, winding):
    """The DOTA line with its four points from point ``start``, in the
    file's winding (``winding`` 1) or the reverse (-1)."""
    toks = line.split(b" ")
    order = [(start + winding * k) % 4 for k in range(4)]
    return b" ".join([t for j in order for t in toks[2 * j : 2 * j + 2]] + toks[8:])


@pytest.mark.parametrize("name", available_codecs())
@pytest.mark.parametrize("kind", ["jittered", "rejected"])
def test_convert_does_not_depend_on_point_order(name, kind, tmp_path, capsys):
    """Writing every record's points from each of the four starts, in either
    winding, gives the same CSV bytes and skip lines."""
    lines = pixel_lines(60, 7, jitter=0.02) if kind == "jittered" else REJECTED_LINES
    outputs = []
    for start in range(4):
        for winding in (1, -1):
            src, out = tmp_path / f"ann{start}{winding}.txt", tmp_path / "enc.csv"
            src.write_bytes(b"\n".join(presentation(line, start, winding) for line in lines) + b"\n")
            capsys.readouterr()
            assert main(["convert", str(src), "--codec", name, "--out", str(out)]) == 0
            err = capsys.readouterr().err.replace(str(src), "ann.txt")
            outputs.append((out.read_bytes(), err.splitlines()))
    assert outputs == [outputs[0]] * 8
    assert presentation(lines[0], 0, 1) == lines[0]


def test_convert_fits_only_the_rejected_records_one_by_one(tmp_path, monkeypatch):
    """Of 300 valid records and 2 rejected ones, only the rejected two reach
    the scalar rectangle fit."""
    lines = pixel_lines(300, 5)
    lines[100:100] = REJECTED_LINES[:1]
    lines[200:200] = REJECTED_LINES[1:2]
    src = tmp_path / "ann.txt"
    src.write_bytes(b"\n".join(lines) + b"\n")
    scalar, calls = geometry.min_area_rect, []
    for owner in (geometry, dota):
        monkeypatch.setattr(owner, "min_area_rect", lambda pts: calls.append(pts) or scalar(pts))
    assert convert_annotations(src, get_codec("acute"), tmp_path / "enc.csv") == 300
    assert len(calls) == 2


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

    def test_audit_report_is_pinned(self, tmp_path):
        """Reports for a given seed stay byte-identical across commits.

        A change that moves any value of the report must say so and re-pin
        the hash.  The values come from libm's cos, sin and atan2, so another
        platform may need its own pin.
        """
        out = tmp_path / "all.json"
        assert main(["audit", "--codec", "all", "--seed", "7", "--samples", "4", "--out", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == AUDIT_SEED7_SAMPLES4_SHA256

    @pytest.mark.parametrize("sweep", sorted(CURVES_SHA256))
    def test_curves_csv_is_pinned(self, tmp_path, sweep):
        """The sweep CSVs stay byte-identical across commits, as the audit
        report does; the same platform caveat applies."""
        out = tmp_path / "curve.csv"
        assert main(["curves", "--codec", "cobb", "--sweep", sweep, "--box", "0,0,4,2,0", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CURVES_SHA256[sweep]

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

    @pytest.mark.parametrize("command", ["audit", "roundtrip", "iou-check"])
    def test_negative_seed_exits_2(self, capsys, command):
        assert main([command, "--seed", "-1", "--samples", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_iou_check_without_samples_exits_2(self, capsys, samples):
        assert main(["iou-check", "--samples", samples]) == 2
        assert capsys.readouterr().err.startswith("error: --samples must be >= 1")

    def test_every_probe_setting_is_an_audit_flag(self, tmp_path):
        # a ProbeConfig field no flag sets is a setting no caller changes;
        # families stays for API callers that audit one family
        args = _build()[0].parse_args(["audit"])
        fields = {f.name for f in dataclasses.fields(ProbeConfig)} - {"families"}
        assert fields <= set(vars(args)), sorted(fields - set(vars(args)))
        # each default is ProbeConfig's own
        assert ProbeConfig(**{name: getattr(args, name) for name in fields}) == ProbeConfig()
        # the sweeps' grid size has one default, the CLI's
        out = tmp_path / "aspect.csv"
        assert main(["curves", "--sweep", "aspect", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 1440

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
        # a flag type that raises the package's own error is reported the same way
        cfgfile.write_text("steps=abc\n")
        assert main(["roundtrip", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == "error: bad config value steps='abc'\n"

    def test_config_value_goes_through_the_flag_choices(self, tmp_path, capsys):
        cfgfile = tmp_path / "format.cfg"
        cfgfile.write_text("format=xml\n")
        out = tmp_path / "rep.out"
        args = ["audit", "--codec", "acute", "--samples", "1", "--out", str(out)]
        assert main(args + ["--config", str(cfgfile)]) == 2
        assert "error: bad config value format='xml'" in capsys.readouterr().err
        assert not out.exists()

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["iou-check", "--samples", "1"]) == 0
        first = len(built)
        assert main(["iou-check", "--samples", "1"]) == 0
        assert len(built) == first

    def test_config_does_not_reach_the_next_call(self, tmp_path, capsys):
        cfgfile = tmp_path / "csl.cfg"
        cfgfile.write_text("codec=csl\n")
        args = ["roundtrip", "--samples", "2"]
        main(args + ["--config", str(cfgfile)])
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == ["csl"]
        main(args)
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == list(available_codecs())

    def test_config_given_with_equals_sign(self, tmp_path, capsys):
        cfgfile = tmp_path / "acute.cfg"
        cfgfile.write_text("codec=acute\nsamples=2\n")
        assert main(["roundtrip", f"--config={cfgfile}"]) == 0
        assert capsys.readouterr().out.startswith("acute:")

    def test_config_key_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        cfgfile = tmp_path / "audit.cfg"
        cfgfile.write_text("perturbation=1e-3\ncodec=acute\n")
        assert main(["roundtrip", "--samples", "2", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out.startswith("acute:")
        # its value is still checked against the flag that defines it
        cfgfile.write_text("format=xml\n")
        assert main(["roundtrip", "--samples", "2", "--config", str(cfgfile)]) == 2
        assert "error: bad config value format='xml'" in capsys.readouterr().err

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        cfgfile = tmp_path / "bom.cfg"
        cfgfile.write_bytes(b"\xef\xbb\xbfcodec=acute\nsamples=2\n")
        assert main(["roundtrip", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out.startswith("acute:")

    def test_usage_error_comes_before_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("nonsense=1\n")
        assert main(["roundtrip", "--bogus", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --bogus" in err and "nonsense" not in err

    @pytest.mark.parametrize("command", [["convert", "ann.txt"], ["curves", "--grid-points", "8"]])
    def test_out_from_the_config_file(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ann.txt").write_text(f"{GOOD}\n")
        (tmp_path / "out.cfg").write_text("out=enc.csv\n")
        assert main(command + ["--config", "out.cfg"]) == 0
        assert capsys.readouterr().out.startswith("wrote ") and (tmp_path / "enc.csv").exists()

    @pytest.mark.parametrize("command", [["convert", "ann.txt"], ["curves", "--grid-points", "8"]])
    def test_out_from_neither_source_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ann.txt").write_text(f"{GOOD}\n")
        (tmp_path / "codec.cfg").write_text("codec=acute\n")
        for config in ([], ["--config", "codec.cfg"]):
            assert main(command + config) == 2
            err = capsys.readouterr().err
            assert err.endswith("error: the following arguments are required: --out\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.txt", "codec.cfg"]

    def test_convert_skips_degenerate_annotations(self, tmp_path, capsys):
        src = tmp_path / "ann.txt"
        src.write_text(
            f"{GOOD}\n"
            "5 5 5 5 5 5 5 5 ship 1\n"
            "1 1 2 2 3 3 4 4 ship 0\n"
            "0 0 5e153 0 5e153 2e153 0 2e153 ship 0\n"  # too large for the candidate IoUs
            "0 0 1e-310 0 1e-310 1e-310 0 1e-310 plane 0\n"  # cross products underflow to 0
            "5 5 9 5 9 7 5 7 harbor 2\n"
        )
        out = tmp_path / "enc.csv"
        assert main(["convert", str(src), "--codec", "cobb", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["plane", "harbor"]
        err = capsys.readouterr().err
        assert "skipped line 2: points are collinear" in err
        assert "skipped line 3: points are collinear" in err
        assert "skipped line 4: HBB extents 5e+153 x 2e+153 out of range" in err
        assert "skipped line 5: points are collinear" in err

    def test_convert_skips_an_overflowing_fit(self, tmp_path, capsys):
        src = tmp_path / "ann.txt"
        src.write_text(
            "1.7e308 1.7e308 -1.7e308 1.7e308 -1.7e308 -1.7e308 1.7e308 -1.7e308 ship 0\n"
            "10 10 20 10 20 20 10 20 plane 0\n"
        )
        out = tmp_path / "enc.csv"
        assert main(["convert", str(src), "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["plane"]
        assert "skipped line 1: rectangle fit is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", available_codecs())
    def test_convert_skips_an_overflowing_outer_hbb(self, tmp_path, capsys, name):
        # a square of side 1.41e308 at 45 degrees: its fit is finite, its outer HBB is not
        src = tmp_path / "ann.txt"
        src.write_text(f"0 -1.0e308 1.0e308 0 0 1.0e308 -1.0e308 0 ship 0\n{GOOD}\n")
        out = tmp_path / "enc.csv"
        assert main(["convert", str(src), "--codec", name, "--out", str(out)]) == 0
        written = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        err = capsys.readouterr().err
        if name in ("cobb", "cobb-ln", "gv"):  # the codecs that encode the outer HBB
            assert written == ["plane"]
            assert f"{src}: skipped line 1: outer HBB extent is not finite" in err.splitlines()
        else:
            assert written == ["ship", "plane"] and "skipped" not in err

    def test_convert_logs_points_that_are_not_a_convex_cycle(self, tmp_path, capsys):
        # a bow-tie, the same square as a proper cycle, and a reflex vertex
        # whose hull is a triangle: every row is written, the two crossed
        # or dented cycles are named
        src, out = tmp_path / "ann.txt", tmp_path / "enc.csv"
        src.write_text("0 0 4 0 0 4 4 4 ship 0\n0 0 4 0 4 4 0 4 ship 0\n0 0 4 0 1 1 0 4 plane 1\n")
        assert main(["convert", str(src), "--codec", "cobb", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 and rows[0] == rows[1]
        assert capsys.readouterr().err.splitlines() == [
            f"{src}: line 1: points are not a convex cycle; fitted their hull",
            f"{src}: line 3: points are not a convex cycle; fitted their hull",
        ]
        # the rows are the fits of the hulls
        hull = get_codec("cobb").encode(min_area_rect([(0, 0), (4, 0), (0, 4)]))
        assert rows[2] == "plane,1," + ",".join(FLOAT_FMT % v for v in hull)

    def test_convert_skips_a_line_that_is_not_utf8(self, tmp_path, capsys):
        src = tmp_path / "ann.txt"
        src.write_bytes(GOOD.encode() + b"\n5 5 9 5 9 7 5 7 harb\xf0r 2\n5 5 9 5 9 7 5 7 harbor 2\n")
        out = tmp_path / "enc.csv"
        assert main(["convert", str(src), "--codec", "acute", "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["plane", "harbor"]
        assert "skipped line 2: not valid UTF-8" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"seed=1\ncodec=\xff\n")
        assert main(["roundtrip", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid UTF-8" in err

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
        assert f"{src}: skipped line 3: expected 10 tokens, got 2" in err.splitlines()

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
