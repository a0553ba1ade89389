"""Command-line frontend.

Subcommands: ``audit`` (continuity metrics), ``roundtrip`` (decoding
completeness), ``convert`` (DOTA annotations to codec encodings), ``curves``
(encoding sweeps).  Exit codes: 0 success, 1 failed verdict, 2 usage or
parse errors.

A plain ``key=value`` config file may supply any long-flag default; explicit
flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from cobb import audit as audit_mod
from cobb import codec as codec_mod
from cobb import curves as curves_mod
from cobb import dota as dota_mod
from cobb.baselines import available_codecs, get_codec
from cobb.errors import CobbError
from cobb.geometry import OrientedBox


def _fmt(v) -> str:
    return codec_mod.FLOAT_FMT % float(v)


# ---------------------------------------------------------------------------
# Report serialization (schema documented in the README)


def report_to_obj(report: audit_mod.MetricReport) -> dict:
    return {
        "codec": report.codec,
        "seed": report.seed,
        "norm": "linf",
        "metrics": [
            {
                "name": m.name,
                "steps": [{"delta": s.delta, "gap": s.gap} for s in m.steps],
                "verdict": m.verdict,
                "witness": m.witness,
                "notes": m.notes,
            }
            for m in report.metrics
        ],
        "extras": report.extras,
    }


def reports_to_json(reports) -> str:
    return json.dumps([report_to_obj(r) for r in reports], indent=2, sort_keys=False) + "\n"


def reports_to_csv(reports) -> str:
    lines = ["codec,metric,delta,gap,verdict,witness"]
    for r in reports:
        for m in r.metrics:
            for s in m.steps:
                witness = json.dumps(m.witness, sort_keys=True) if m.witness else ""
                witness = witness.replace('"', "'")
                lines.append(
                    f'{r.codec},{m.name},{_fmt(s.delta)},{_fmt(s.gap)},{m.verdict},"{witness}"'
                )
    return "\n".join(lines) + "\n"


def _write_out(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Config file handling


def _config_defaults(path, subcommands: dict, command: str) -> dict:
    """The config file's values for ``command``, checked against every subcommand."""
    raw = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise CobbError(f"{path}: not valid UTF-8: {exc}") from None
    for line_no, text in enumerate(lines, start=1):
        line = text.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CobbError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip().replace("-", "_")] = value.strip()
    unknown = set(raw)
    chosen = {}
    # each value goes through the type and choices of its own flag
    for name, sub in subcommands.items():
        for action in sub._actions:
            key = action.dest
            if key not in raw or not action.option_strings or key in ("help", "config"):
                continue
            unknown.discard(key)
            try:
                value = action.type(raw[key]) if action.type else raw[key]
            except (TypeError, ValueError, CobbError):
                raise CobbError(f"bad config value {key}={raw[key]!r}") from None
            if action.choices is not None and value not in action.choices:
                raise CobbError(f"bad config value {key}={value!r}; choose from {', '.join(action.choices)}")
            if name == command:
                chosen[key] = value
    if unknown:
        raise CobbError(f"unknown config key {min(unknown)!r}")
    return chosen


def _parse_steps(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise CobbError(f"bad --steps value {text!r}") from None


def _parse_box(text: str) -> OrientedBox:
    parts = text.split(",")
    if len(parts) != 5:
        raise CobbError(f"--box needs cx,cy,w,h,theta, got {text!r}")
    try:
        cx, cy, w, h, t = (float(p) for p in parts)
    except ValueError:
        raise CobbError(f"non-numeric --box value in {text!r}") from None
    return OrientedBox(cx, cy, w, h, t)


def _codec_list(name: str) -> list[str]:
    if name == "all":
        return list(available_codecs())
    if name in available_codecs():
        return [name]
    raise CobbError(f"unknown codec {name!r}; available: all, {', '.join(available_codecs())}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_audit(args) -> int:
    cfg = audit_mod.ProbeConfig(
        steps=args.steps, samples=args.samples, seed=args.seed,
        perturbation=args.perturbation, directions=args.directions,
    )
    codecs = [get_codec(n) for n in _codec_list(args.codec)]
    reports = audit_mod.run_audit(codecs, cfg)
    text = reports_to_json(reports) if args.format == "json" else reports_to_csv(reports)
    _write_out(text, args.out)
    failures = 0
    for rep in reports:
        for m in rep.metrics:
            line = f"{rep.codec:9s} {m.name:24s} {m.verdict}  worst_gap={_fmt(max(s.gap for s in m.steps))}"
            print(line, file=sys.stderr)
            failures += m.verdict == "fail"
    return 1 if failures else 0


def _cmd_roundtrip(args) -> int:
    cfg = audit_mod.ProbeConfig(steps=args.steps, samples=args.samples, seed=args.seed)
    status = 0
    for name in _codec_list(args.codec):
        codec = get_codec(name)
        res = audit_mod.check_decoding_completeness(codec, cfg)
        print(f"{name}: worst 1-IoU = {_fmt(res.steps[0].gap)} [{res.verdict}]")
        status |= res.verdict == "fail"
    return status


def _cmd_convert(args) -> int:
    import logging

    codec = get_codec(args.codec)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    dota_mod.log.addHandler(handler)
    try:
        n = dota_mod.convert_annotations(args.input, codec, args.out)
    finally:
        dota_mod.log.removeHandler(handler)
    print(f"wrote {n} encodings to {args.out}")
    return 0


def _cmd_curves(args) -> int:
    codec = get_codec(args.codec)
    box = _parse_box(args.box)
    n = curves_mod.emit_curves(codec, args.sweep, box, args.out, args.grid_points)
    print(f"wrote {n} rows to {args.out}")
    return 0


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="cobb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    probe = audit_mod.ProbeConfig()  # the defaults of the audit settings

    def common(p, samples_default):
        p.add_argument("--codec", default="all")
        p.add_argument("--seed", type=int, default=probe.seed)
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--steps", type=_parse_steps, default=probe.steps)
        p.add_argument("--config", default=None, help="key=value defaults file")

    p = sub.add_parser("audit", help="run the six continuity metrics")
    common(p, probe.samples)
    p.add_argument("--perturbation", type=float, default=probe.perturbation)
    p.add_argument("--directions", type=int, default=probe.directions)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("roundtrip", help="decoding completeness check")
    common(p, 256)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("convert", help="DOTA annotations to codec encodings")
    p.add_argument("input")
    p.add_argument("--codec", default="cobb")
    p.add_argument("--out", default=None, help="required, as a flag or in the config file")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("curves", help="encoding-component sweep CSV")
    p.add_argument("--codec", default="cobb")
    p.add_argument("--sweep", choices=("rotation", "aspect"), default="rotation")
    p.add_argument("--box", default="0,0,4,2,0")
    p.add_argument("--grid-points", type=int, dest="grid_points", default=1440)
    p.add_argument("--out", default=None, help="required, as a flag or in the config file")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_curves)

    return parser, sub.choices


# subcommands whose --out may come from the config file but must come from somewhere
_NEEDS_OUT = ("convert", "curves")

# built on the first main call, not at import, and never changed after
_parsers = functools.cache(_build)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = _parsers()
    try:
        args = parser.parse_args(argv)
        command = args.command
        if args.config is not None:
            # config values as the subcommand's defaults: argparse fills in only what is unset
            config = argparse.Namespace(**_config_defaults(args.config, subcommands, command))
            args = subcommands[command].parse_args(argv[argv.index(command) + 1:], config)
        if command in _NEEDS_OUT and args.out is None:
            subcommands[command].error("the following arguments are required: --out")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (CobbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CobbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
