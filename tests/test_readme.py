"""The README's library tour runs against the package as it is, the CLI
docs name every config key and estimator kind, and every name the
package exports, and every field of EntropySeries, has a consumer
outside the tests."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import fsgentropy
from fsgentropy import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "fsgentropy"


def test_readme_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    capsys.readouterr()


def _names(name: str, text: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text) is not None


def test_cli_docs_name_every_config_key_and_estimator_kind():
    doc = cli.__doc__
    for f in fields(cli.ExperimentConfig):
        assert re.search(rf"^    {f.name} ", doc, re.M), f"cli docstring lacks key {f.name}"
    kinds = re.search(r"Estimator kinds:(.*?)\.\s", README.read_text(), re.S).group(1)
    for kind in cli._RUNNERS:
        assert _names(kind, doc), f"cli docstring lacks estimator {kind}"
        assert _names(f"`{kind}`", kinds), f"README estimator kinds lack {kind}"


def _consumer_sources() -> dict:
    """The package's modules but __init__, the README, and the benchmark
    harness outside its tests."""
    sources = {p: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    sources[README] = README.read_text()
    sources.update(
        (p, p.read_text()) for p in (ROOT / "perfbench").glob("*.py")
        if not p.name.startswith("test_")
    )
    return sources


def _without_own_source(obj, sources: dict) -> list:
    home, own = Path(inspect.getsourcefile(obj)), inspect.getsource(obj)
    return [t.replace(own, "", 1) if p == home else t for p, t in sources.items()]


def test_every_exported_name_has_a_consumer_outside_the_tests():
    """A name fsgentropy/__init__.py imports from a module must appear
    somewhere other than its own definition and __init__: in the
    package's modules, the README, or the benchmark harness outside its
    tests.  Test-only helpers belong in tests/oracles.py."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    ]
    sources = _consumer_sources()
    unused = [
        name for name in names
        if not any(_names(name, t) for t in _without_own_source(getattr(fsgentropy, name), sources))
    ]
    assert names and unused == [], f"exported names with no consumer: {unused}"


def test_every_series_field_is_read_outside_the_tests():
    """Each field of EntropySeries is read as `.field` somewhere other
    than its own class: a field no caller reads is an option to drop."""
    texts = _without_own_source(fsgentropy.EntropySeries, _consumer_sources())
    unread = [
        f.name for f in fields(fsgentropy.EntropySeries)
        if not any(re.search(rf"\.{f.name}(?![\w-])", t) for t in texts)
    ]
    assert unread == [], f"EntropySeries fields with no reader: {unread}"
