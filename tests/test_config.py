"""Tests for configuration validation, and for the config surface itself."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.core.config import AvantanVariant, SamyaConfig
from repro.net.network import NetworkConfig

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent


class TestSamyaConfig:
    def test_defaults_are_sane(self):
        config = SamyaConfig()
        assert config.variant is AvantanVariant.MAJORITY
        assert config.enforce_constraint
        assert config.redistribute
        assert config.proactive

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValueError):
            SamyaConfig(epoch_seconds=0.0)
        with pytest.raises(ValueError):
            SamyaConfig(epoch_seconds=-1.0)

    def test_variant_enum_round_trip(self):
        assert AvantanVariant("majority") is AvantanVariant.MAJORITY
        assert AvantanVariant("star") is AvantanVariant.STAR


class TestNetworkConfig:
    def test_defaults(self):
        config = NetworkConfig()
        assert config.loss_probability == 0.0
        assert config.jitter_sigma > 0.0


# -- the config surface: no knob nobody turns ------------------------------


def parsed(directory: str) -> list[ast.Module]:
    paths = sorted((ROOT / directory).rglob("*.py"))
    return [ast.parse(path.read_text()) for path in paths]


def config_fields(trees: list[ast.Module]) -> dict[str, list[str]]:
    """Field names of every ``@dataclass`` named ``*Config`` in ``trees``."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name.endswith("Config")):
                continue
            decorators = [ast.unparse(d) for d in node.decorator_list]
            if not any(d.startswith("dataclass") for d in decorators):
                continue
            found[node.name] = [
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ]
    return found


def forwarders(classes: dict[str, list[str]], trees: list[ast.Module]) -> dict[str, str]:
    """Functions that build a config class from their own ``**`` keywords
    (``def f(..., **kw): ... Cls(**kw)``), mapped to that class: a keyword
    passed to such a function sets the class's field of that name."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.args.kwarg is None:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in classes and any(
                    k.arg is None and isinstance(k.value, ast.Name)
                    and k.value.id == node.args.kwarg.arg
                    for k in call.keywords
                ):
                    found[node.name] = name
    return found


def fields_set(
    classes: dict[str, list[str]], trees: list[ast.Module]
) -> set[tuple[str, str]]:
    """``(class, field)`` pairs some module in ``trees`` sets.  A field
    counts as set by:

    * a keyword (or positional argument) of a call to its class, or a
      keyword of a call to a function that forwards its ``**`` keywords
      to the class (see :func:`forwarders`);
    * a string naming it, in a file that calls its class with ``**``
      (field names fed in as data, e.g. parametrized);
    * a ``replace(...)`` or ``dict(...)`` keyword or a dict-literal key,
      in a file that names its class;
    * an attribute assignment outside its class body, other than to
      ``self`` (an object's own attribute of the same name is not the
      config field).
    """
    forwarded = forwarders(classes, trees)
    found: set[tuple[str, str]] = set()
    stored: set[str] = set()
    for tree in trees:
        names: set[str] = set()
        strings: set[str] = set()
        keys: set[str] = set()
        splatted: set[str] = set()
        pending = [(tree, False)]
        while pending:
            node, in_config = pending.pop()
            if isinstance(node, ast.ClassDef) and node.name in classes:
                in_config = True
            pending.extend((child, in_config) for child in ast.iter_child_nodes(node))
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if (
                    isinstance(node.ctx, ast.Store)
                    and not in_config
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")
                ):
                    stored.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Dict):
                keys |= {
                    k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                keywords = {k.arg for k in node.keywords if k.arg}
                if name in forwarded:
                    target = forwarded[name]
                    found |= {(target, f) for f in keywords & set(classes[target])}
                elif name in classes:
                    fields = classes[name]
                    named = keywords | set(fields[: len(node.args)])
                    found |= {(name, field) for field in named & set(fields)}
                    if any(k.arg is None for k in node.keywords):
                        splatted.add(name)
                elif name in ("replace", "dict"):
                    keys |= keywords
        for name in splatted:
            found |= {(name, field) for field in strings & set(classes[name])}
        for name in names & set(classes):
            found |= {(name, field) for field in keys & set(classes[name])}
    for name, fields in classes.items():
        found |= {(name, field) for field in stored & set(fields)}
    return found


def test_every_config_field_is_set_somewhere():
    # A field no run or benchmark sets is a second configuration nobody
    # evaluates: make it a constant beside its reader instead (a test
    # that needs another value patches the constant).  Tests and
    # examples do not count as setters.
    src = parsed("src")
    classes = config_fields(src)
    assert len(classes) >= 6, sorted(classes)
    trees = src + parsed("benchmarks")
    every = {(name, field) for name, fields in classes.items() for field in fields}
    never_set = every - fields_set(classes, trees)
    assert sorted(f"{name}.{field}" for name, field in never_set) == []


def test_the_deleted_surfaces_stay_deleted():
    text = {path: path.read_text() for path in SRC.rglob("*.py")}
    for path, source in text.items():
        assert not re.search(
            r"^class (PaxosConfig|RaftConfig|ScaleSiteConfig|ShardMap|DirectoryShard)\b",
            source, re.M,
        ), path
    assert not (SRC / "workload" / "io.py").exists()
    perf = text[SRC / "obs" / "perf.py"]
    assert not re.search(r"def to_dict|def from_dict|PERF_SCHEMA", perf)
    # The envelope-dedup window is spelled once: EnvelopeDedup's default.
    windows = [
        path for path, source in text.items()
        if path.relative_to(SRC).parts[0] in ("net", "core", "scale")
        for _ in re.finditer(r"1 << 16", source)
    ]
    assert windows == [SRC / "net" / "message.py"]
    # `repro top` frames are the --demand / --flow reports: no third
    # renderer, no sparkline windows, no shard merge, no --top K.
    assert not (SRC / "obs" / "top.py").exists()
    demand = text[SRC / "obs" / "demand.py"]
    assert not re.search(r"def merge|WINDOWS_KEPT|_roll_window", demand)
    assert '"--top"' not in text[SRC / "cli.py"]
    # One Avantan round: the skeleton in base.py dispatches every message,
    # and a variant differs only through the methods it overrides.
    avantan = SRC / "core" / "avantan"
    handlers = [
        path for path, source in text.items()
        if path.parent == avantan and "def handle(" in source
    ]
    assert handlers == [avantan / "base.py"]
    for variant in ("majority.py", "star.py"):
        assert "isinstance(payload" not in text[avantan / variant], variant
    assert "isinstance(self" not in text[avantan / "base.py"]
    for path, source in text.items():
        assert not re.search(r"configure_timeouts|_cohort_timeout_value", source), path
    # The JSON snapshots are the one metrics output: no /metrics server,
    # no families() verbs feeding a text writer; and no org hierarchy.
    assert not (SRC / "obs" / "exposition.py").exists()
    assert not (SRC / "core" / "hierarchy.py").exists()
    for path, source in text.items():
        assert not re.search(r"def families\(|metrics_port", source), path
