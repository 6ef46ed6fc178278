"""Behaviour gate: each config in tests/golden must make `entcli run`
emit the output stored next to it, byte for byte.

A CSV config writes its rows through `--out`, and the result is compared
with `<stem>.csv`.  A `format = json` config writes to stdout, and the
result is compared with `<stem>.json`; the JSON echoes `out`, so these
configs must run without `--out`.  The JSON twins pin the per-radius
limit summaries and the epsilon trend as well as the rows.

Every output is written by the parent commit of the change that adds
its config, so it pins what the code did before that change, except
for a config the parent rejects: the change that makes it run writes
its output, and CHANGES.md declares it new.  A change
that alters output regenerates the files it alters and says which rows
changed and why; CHANGES.md and the git log record which change each
file was written before.
"""

from pathlib import Path

from fsgentropy.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_golden_csvs_byte_identical(tmp_path, capsys):
    configs = sorted(GOLDEN.glob("*.cfg"))
    assert len(configs) >= 54
    changed = []
    for cfg in configs:
        expected = cfg.with_suffix(".json")
        if expected.exists():
            assert main(["run", str(cfg)]) == 0, cfg.name
            got = capsys.readouterr().out.encode()
        else:
            expected = cfg.with_suffix(".csv")
            out = tmp_path / f"{cfg.stem}.csv"
            assert main(["run", str(cfg), "--out", str(out)]) == 0, cfg.name
            got = out.read_bytes()
        if got != expected.read_bytes():
            changed.append(cfg.name)
    capsys.readouterr()
    assert changed == []
