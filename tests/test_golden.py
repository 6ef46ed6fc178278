"""Behaviour gate: each config in tests/golden must make `entcli run`
emit the output stored next to it, byte for byte.

A CSV config writes its rows through `--out`, and the result is compared
with `<stem>.csv`.  A `format = json` config writes to stdout, and the
result is compared with `<stem>.json`; the JSON echoes `out`, so these
configs must run without `--out`.  The JSON twins pin the per-radius
limit summaries and the epsilon trend as well as the rows.

Each output was produced before the code it gates was last changed:
the binary CSVs before the Bowen-label counting moved onto uint64
windows, the circle corr-sum, doubling and power-test and the torus
local-corr-entropy CSVs before the circle family counted Bowen pairs
from sparse pair lists, and the exact-mode configs and the JSON twins
before the command line built every result through one series path,
and the Monte Carlo circle corr-entropy and local-corr-entropy, the
three-constant torus top-entropy and the Monte Carlo binary top-entropy
CSVs before the word-averaged series counted over a prefix trie, and the
weighted binary corr-sum, the torus corr-sum and the depth-70 binary
top-entropy CSVs before a corr-sum run built its driving orbits once and
the reference sample was drawn in one call, and the gapped two-radius
binary corr-sum, the shift-heavy binary corr-sum whose windows stop
deciding past the short horizons and the binary doubling out to k = 6
before a label walk resumed where the point set's previous walk ended,
and the circle doubling over halving radii, the three-radius binary
doubling, the exact-measure binary doubling and the circle local
entropy before a doubling series counted every horizon of its word in
one walk per radius, and the three-radius torus local entropy, the
exact-measure binary local entropy and the deep circle local entropy,
whose rows reach the 1/N floor, before a one-centre ball count went
through the shared trie walk, and the circle corr-entropy and
top-entropy and the torus corr-sum whose stage-0 pairs span many
PAIR_CHUNK chunks, and the circle corr-entropy at eps = 1/2, where the
sweep's two bands meet, before stage 0 was built from centre bands and
ball and pair counts were tallied by difference down the trie, and the
circle corr-entropy whose exhaustive words hold rotation chains of up to
seven symbols before rotation nodes kept their sure pairs untested.
A change that means to alter output regenerates them and says which
rows changed and why.
"""

from pathlib import Path

from fsgentropy.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_golden_csvs_byte_identical(tmp_path, capsys):
    configs = sorted(GOLDEN.glob("*.cfg"))
    assert len(configs) >= 50
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
