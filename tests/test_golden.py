"""Behaviour gate: each config in tests/golden must make `entcli run`
emit the CSV stored next to it, byte for byte.

Each CSV was produced before the fast path it gates existed: the
binary ones before the Bowen-label counting moved onto uint64 windows,
the circle corr-sum, doubling and power-test and the torus
local-corr-entropy ones before the circle family counted Bowen pairs
from sparse pair lists.  A change that means to alter output regenerates
them and says which rows changed and why.
"""

from pathlib import Path

from fsgentropy.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_golden_csvs_byte_identical(tmp_path, capsys):
    configs = sorted(GOLDEN.glob("*.cfg"))
    assert len(configs) >= 10
    changed = []
    for cfg in configs:
        out = tmp_path / f"{cfg.stem}.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0, cfg.name
        if out.read_bytes() != cfg.with_suffix(".csv").read_bytes():
            changed.append(cfg.name)
    capsys.readouterr()
    assert changed == []
