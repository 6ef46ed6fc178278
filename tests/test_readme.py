"""The README's library tour runs against the package as it is, and the
CLI docs name every config key and estimator kind."""

import re
from dataclasses import fields
from pathlib import Path

from fsgentropy import cli

README = Path(__file__).resolve().parents[1] / "README.md"


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
