"""The size of the public API that ROADMAP aim 2 tracks: the names
``cobb`` exports and the settable values."""

import dataclasses
import importlib
import inspect
import pkgutil

import cobb

# Every name in ``cobb.__all__``.  A change that adds or removes one updates
# this list and the count in ROADMAP and README.
EXPORTS = [
    "CobbError",
    "CobbVector",
    "ConvexQuad",
    "DegenerateGeometryError",
    "DotaParseError",
    "HorizontalBox",
    "InvalidArgumentError",
    "KERNEL_IMPLEMENTATION",
    "OrientedBox",
    "Proposal",
    "TargetVector",
    "UndefinedIoUError",
    "cobb_loss",
    "decode",
    "decode_target",
    "encode",
    "encode_target",
    "iou",
    "iou_matrix",
    "min_area_rect",
    "outer_hbb",
    "rotate_about",
    "rs_from_ra",
    "sensitivity_probe",
    "sliding_ratio",
    "vertices_of",
]

# Every settable value on the public API, as ``module.name(parameter)`` or
# ``module.Class.field``.  A change that adds or removes one updates this list
# and the count in ROADMAP and README.
SETTABLE_VALUES = [
    "cobb.audit.ProbeConfig.directions",
    "cobb.audit.ProbeConfig.families",
    "cobb.audit.ProbeConfig.perturbation",
    "cobb.audit.ProbeConfig.samples",
    "cobb.audit.ProbeConfig.seed",
    "cobb.audit.ProbeConfig.steps",
]


def _defaulted(qualname, fn):
    return [f"{qualname}({p.name})" for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def settable_values():
    """The counting rule: in each public module of the package (no leading
    underscore), for the functions and classes it defines under a public
    name, count

    - each defaulted parameter of a public function;
    - each defaulted parameter of a method, static method, class method or
      ``__init__`` that a public class defines itself under a public name
      (inherited methods count once, on the class that defines them);
    - each field of a public dataclass with a default or a default factory
      (its generated ``__init__`` is not counted again).

    ``cli.main`` is not counted: its one parameter is the command line, and
    the CLI's flags are the command line's settings, not the library's.
    """
    found = []
    for info in pkgutil.iter_modules(cobb.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"cobb.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{module.__name__}.{name}"
            if inspect.isfunction(obj) and qualname != "cobb.cli.main":
                found += _defaulted(qualname, obj)
            elif inspect.isclass(obj):
                is_dataclass = dataclasses.is_dataclass(obj)
                if is_dataclass:
                    found += [
                        f"{qualname}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                    ]
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and not (attr == "__init__" and not is_dataclass):
                        continue
                    member = getattr(member, "__func__", member)  # static and class methods
                    if inspect.isfunction(member):
                        found += _defaulted(f"{qualname}.{attr}", member)
    return sorted(found)


def test_settable_values_are_the_listed_ones():
    assert settable_values() == SETTABLE_VALUES  # 6


def test_exports_are_the_listed_ones():
    assert sorted(cobb.__all__) == EXPORTS  # 26
    assert len(set(cobb.__all__)) == len(cobb.__all__)
    assert all(hasattr(cobb, name) for name in cobb.__all__)
