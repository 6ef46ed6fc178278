"""Config parsing, experiment dispatch, result emission and the entcli
command surface."""

import json
import math

import pytest

from fsgentropy import binary, cli, estimators, words
from fsgentropy.cli import (
    CSV_HEADER,
    ExperimentConfig,
    emit_results,
    format_csv,
    main,
    parse_config,
    parse_rows,
    run_experiment,
)
from fsgentropy.errors import ConfigInvalid, EstimatorUnknown, SystemUnknown

LOG2 = math.log(2.0)


def test_parse_config_defaults_and_overrides():
    assert repr(parse_config("# comment only")) == repr(ExperimentConfig())
    cfg = parse_config(
        """
        # comment
        system = circle-double-rotate
        estimator = top-entropy
        q = 3
        epsilons = 0.2,0.1
        ks = 1,2,3
        n = 50
        m-upsilon = 5
        m_omega = 6
        n_points = 70
        seed = 7
        weights = 0.3,0.7
        exact = false
        series = corr
        power = 3
        depth = 90
        alpha = 0.5
        constants = 0.1,0.2
        out = rows.csv
        format = csv
        """
    )
    assert cfg.system == "circle-double-rotate"
    assert cfg.epsilons == [0.2, 0.1]
    assert cfg.ks == [1, 2, 3]
    assert cfg.seed == 7
    assert cfg.format == "csv"
    # every key parsed by its field's type: q = 3 reads as 3.0, not 3
    want = ExperimentConfig(
        "circle-double-rotate", "top-entropy", 3.0, [0.2, 0.1], [1, 2, 3], 50, 5, 6, 70, 7,
        [0.3, 0.7], False, "corr", 3, 90, 0.5, [0.1, 0.2], "rows.csv", "csv",
    )
    assert repr(cfg) == repr(want)
    with pytest.raises(ConfigInvalid, match="cannot parse 'yes': expected true/false"):
        parse_config("exact = yes")


def test_parse_config_rejects_bad_input():
    with pytest.raises(ConfigInvalid):
        parse_config("unknown_key = 3")
    with pytest.raises(ConfigInvalid):
        parse_config("ks = 3,2")
    with pytest.raises(ConfigInvalid):
        parse_config("epsilons = 0.1,0.2")
    with pytest.raises(ConfigInvalid):
        parse_config("epsilons = -0.5")
    with pytest.raises(ConfigInvalid):
        parse_config("n = 0")
    with pytest.raises(ConfigInvalid):
        parse_config("n = abc")
    with pytest.raises(ConfigInvalid):
        parse_config("this is not a config")
    with pytest.raises(EstimatorUnknown):
        parse_config("estimator = magic")


def test_run_unknown_system():
    cfg = ExperimentConfig(system="no-such-space")
    with pytest.raises(SystemUnknown):
        run_experiment(cfg)


def test_corr_sum_degenerate_orbit_rows_are_one():
    cfg = ExperimentConfig(
        estimator="corr-sum",
        n=1,
        ks=[1, 2, 3],
        epsilons=[0.25],
        m_upsilon=4,
    )
    result = run_experiment(cfg)
    assert all(row.value == 1.0 for row in result.rows)


def test_corr_sum_run_builds_its_driving_orbits_once(monkeypatch):
    # every (eps, k) call of the run drives the same orbits: one window
    # build, and one sampled word per driving word plus omega's
    calls = {"orbit_windows": 0, "sample_word": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(binary, "orbit_windows", counted("orbit_windows", binary.orbit_windows))
    sample = counted("sample_word", words.sample_word)
    monkeypatch.setattr(cli, "sample_word", sample)
    monkeypatch.setattr(estimators, "sample_word", sample)
    cfg = ExperimentConfig(
        estimator="corr-sum", epsilons=[0.25, 0.125], ks=[1, 3, 6], n=200, m_upsilon=5
    )
    assert len(run_experiment(cfg).rows) == 6
    assert calls == {"orbit_windows": 1, "sample_word": 5 + 1}


def test_exact_series_summary_hits_half_log2():
    cfg = ExperimentConfig(
        estimator="exact-series",
        series="top",
        epsilons=[0.25],
        ks=list(range(1, 65)),
    )
    result = run_experiment(cfg)
    (eps, est), = result.summary
    assert eps == 0.25
    assert abs(est.value - LOG2 / 2) <= 1e-9
    assert est.method == "slope-fit"


def test_exact_series_measure_flavour():
    cfg = ExperimentConfig(estimator="exact-series", series="measure", ks=list(range(1, 33)))
    result = run_experiment(cfg)
    assert result.rows[0].value == pytest.approx(LOG2)
    (_, est), = result.summary
    assert abs(est.value - LOG2 / 2) <= 1e-9


def test_power_test_exact_ratio_is_two():
    cfg = ExperimentConfig(
        estimator="power-test", exact=True, epsilons=[0.25], ks=list(range(1, 13))
    )
    result = run_experiment(cfg)
    (row,) = result.rows
    assert 1.9 <= row.value <= 2.1
    assert row.value == pytest.approx(2.0, abs=1e-9)


def test_power_test_monte_carlo_short_horizons_exit_zero(tmp_path, capsys):
    """ks up to 5 at power 2 still gives the power series the three
    horizons its slope fit needs."""
    cfg = tmp_path / "power.cfg"
    cfg.write_text(
        "system = binary-shift-odometer\n"
        "estimator = power-test\n"
        "epsilons = 0.25\n"
        "ks = 2,3,4,5\n"
        "n_points = 256\n"
        "m_omega = 8\n"
        "power = 2\n"
        "seed = 23\n"
    )
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    (row,) = parse_rows(out.read_text())
    assert row.estimator == "power-test" and math.isfinite(row.value)
    capsys.readouterr()


@pytest.mark.parametrize(
    "estimator",
    ["top-entropy", "power-test", "corr-sum", "local-corr-entropy", "exact-series"],
)
def test_exact_on_a_non_binary_system_is_a_config_error(tmp_path, capsys, estimator):
    """The closed forms belong to the binary backend: reading them for
    the circle would print the binary entropy as the circle's."""
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(
        "system = circle-double-rotate\n"
        f"estimator = {estimator}\n"
        "exact = true\n"
        "epsilons = 0.25\n"
        "ks = 1,2,3,4\n"
    )
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


@pytest.mark.parametrize("estimator", ["corr-sum", "local-corr-entropy"])
def test_exact_without_a_closed_form_is_a_config_error(tmp_path, capsys, estimator):
    """corr-sum and local-corr-entropy have no closed form: exact = true
    would be ignored and print sampled rows."""
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(f"estimator = {estimator}\nexact = true\nepsilons = 0.25\nks = 1,2\n")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err and "exact" in captured.err


@pytest.mark.parametrize(
    "body",
    [
        "estimator = exact-series\n",
        "estimator = top-entropy\nexact = true\n",
        "estimator = power-test\nexact = true\n",
    ],
    ids=["exact-series", "top-entropy", "power-test"],
)
def test_closed_form_at_radius_one_is_a_config_error(tmp_path, capsys, body):
    """The closed-form series start at radius 2**-1: radius 1 (t = 0)
    names epsilons instead of ending in a traceback."""
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(body + "epsilons = 1.0\nks = 1,2,3,4\n")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    assert "epsilons" in captured.err


def test_exact_corr_entropy_at_radius_one_runs(tmp_path, capsys):
    """Exact corr-entropy reads the cylinder measures 2**-s at radius 1."""
    cfg = tmp_path / "exact.cfg"
    cfg.write_text("estimator = corr-entropy\nexact = true\nepsilons = 1.0\nks = 1,2,3,4\n")
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = parse_rows(out.read_text())
    assert [r.k for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert r.value == pytest.approx((r.k - 1) / 2 * LOG2 / r.k, abs=1e-12)
    capsys.readouterr()


def test_power_test_exact_short_horizons_exit_zero(tmp_path, capsys):
    """ks up to 4 still gives the closed-form fits the three rows they
    need, as in the Monte Carlo branch."""
    cfg = tmp_path / "power.cfg"
    cfg.write_text("estimator = power-test\nexact = true\nepsilons = 0.25\nks = 1,2,3,4\n")
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    (row,) = parse_rows(out.read_text())
    assert row.value == pytest.approx(2.0, abs=1e-9)
    capsys.readouterr()


def test_power_test_non_finite_ratio_exits_3(tmp_path, monkeypatch, capsys):
    from fsgentropy import limits

    cfg = tmp_path / "power.cfg"
    cfg.write_text("estimator = power-test\nexact = true\nepsilons = 0.25\nks = 1,2,3,4\n")
    monkeypatch.setattr(
        limits, "k_limit", lambda *a, **kw: limits.LimitEstimate(math.nan, (1, 4), "slope-fit")
    )
    assert main(["run", str(cfg)]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_extreme_finite_q_exits_zero(tmp_path, capsys):
    """q = 1e308 overflowed the log-sum-exp of the q-mean to nan."""
    for q in ("1e308", "-1e308"):
        cfg = tmp_path / "q.cfg"
        cfg.write_text(
            "system = circle-double-rotate\n"
            "estimator = corr-entropy\n"
            "epsilons = 0.125\n"
            "ks = 1,2,3\n"
            "n_points = 64\n"
            f"q = {q}\n"
        )
        out = tmp_path / "rows.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0, q
        rows = parse_rows(out.read_text())
        assert len(rows) == 3 and all(math.isfinite(r.value) for r in rows)
    capsys.readouterr()


def test_emit_header_only_for_empty_rows(tmp_path):
    cfg = ExperimentConfig()
    from fsgentropy.cli import ExperimentResult

    result = ExperimentResult(cfg, [], [], None)
    out = tmp_path / "empty.csv"
    text = emit_results(result, str(out), "csv")
    assert text == CSV_HEADER + "\n"
    assert out.read_text() == CSV_HEADER + "\n"


def test_rows_round_trip_through_csv():
    cfg = ExperimentConfig(
        estimator="doubling", epsilons=[0.25, 0.125], ks=[1, 2, 3], n_points=64
    )
    result = run_experiment(cfg)
    text = format_csv(result.rows)
    assert parse_rows(text) == result.rows


def test_emitted_files_byte_identical_across_runs(tmp_path):
    cfg_text = """
    system = binary-shift-odometer
    estimator = corr-entropy
    epsilons = 0.25,0.125
    ks = 1,2,3,4
    n_points = 128
    m_omega = 16
    seed = 5
    """
    paths = []
    for name in ("a.csv", "b.csv"):
        cfg = parse_config(cfg_text)
        result = run_experiment(cfg)
        path = tmp_path / name
        emit_results(result, str(path), "csv")
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_carries_config_and_rows(tmp_path):
    cfg = ExperimentConfig(
        estimator="local-entropy", epsilons=[0.25], ks=[1, 2], n_points=64, seed=9
    )
    result = run_experiment(cfg)
    path = tmp_path / "out.json"
    emit_results(result, str(path), "json")
    payload = json.loads(path.read_text())
    assert payload["config"]["seed"] == 9
    assert payload["config"]["estimator"] == "local-entropy"
    assert len(payload["rows"]) == len(result.rows)
    assert all(math.isfinite(r["value"]) for r in payload["rows"])


def test_every_row_carries_seed_and_is_finite():
    for estimator in ("corr-entropy", "top-entropy", "doubling", "local-entropy"):
        cfg = ExperimentConfig(
            estimator=estimator,
            epsilons=[0.25, 0.125],
            ks=[1, 2, 3],
            n_points=64,
            m_omega=8,
            seed=31,
        )
        result = run_experiment(cfg)
        assert result.rows
        for row in result.rows:
            assert row.seed == 31
            assert math.isfinite(row.value)
            assert math.isfinite(row.stderr)


def test_console_script_is_installed():
    import shutil
    import subprocess

    exe = shutil.which("entcli")
    if exe is None:
        pytest.skip("package not installed with scripts")
    proc = subprocess.run([exe, "list-systems"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "binary-shift-odometer" in proc.stdout


def test_python_m_runs_the_command_line_without_warnings():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fsgentropy

    src = str(Path(fsgentropy.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fsgentropy", "list-systems"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "binary-shift-odometer" in proc.stdout


def test_python_m_cli_module_runs_without_warnings():
    # fsgentropy imports its cli on first access, so runpy finds
    # fsgentropy.cli unloaded when it runs it as __main__
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fsgentropy

    src = str(Path(fsgentropy.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fsgentropy.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "list-systems" in proc.stdout
    lazy = (
        "import sys, fsgentropy; assert 'fsgentropy.cli' not in sys.modules; "
        "assert fsgentropy.cli.main is sys.modules['fsgentropy.cli'].main"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", lazy],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_cli_main_list_systems(capsys):
    assert main(["list-systems"]) == 0
    out = capsys.readouterr().out
    assert "binary-shift-odometer" in out
    assert "circle-double-rotate" in out
    assert "torus-affine" in out


def test_cli_main_run_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "system = binary-shift-odometer\n"
        "estimator = exact-series\n"
        "epsilons = 0.25\n"
        "ks = " + ",".join(str(k) for k in range(1, 33)) + "\n"
    )
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = parse_rows(out.read_text())
    assert rows and rows[0].estimator == "exact-series"
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("estimator = nonsense\n")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "system = binary-shift-odometer\n"
        "estimator = corr-entropy\n"
        "epsilons = 0.25\n"
        "ks = 1,2\n"
        "n_points = 64\n"
        "m_omega = 8\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(cfg), "--out", str(a), "--seed", "1"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--seed", "2"]) == 0
    assert a.read_text() != b.read_text()
    ra, rb = parse_rows(a.read_text()), parse_rows(b.read_text())
    assert {r.seed for r in ra} == {1}
    assert {r.seed for r in rb} == {2}


@pytest.mark.parametrize(
    "body, argv",
    [
        ("system = circle-double-rotate\nepsilons = nan\n", []),
        ("system = circle-double-rotate\nepsilons = inf\n", []),
        ("epsilons = nan\n", []),
        ("weights = nan,nan\n", []),
        ("system = circle-double-rotate\nalpha = nan\n", []),
        ("system = torus-affine\nconstants = 0.0,inf\n", []),
        ("seed = -5\n", []),
        ("", ["--seed", "-1"]),
        ("estimator = power-test\npower = 30\n", []),
        (None, ["reproduce-paper-example", "--seed", "-3"]),
    ],
    ids=[
        "nan-radius-circle", "inf-radius-circle", "nan-radius-binary", "nan-weights",
        "nan-alpha", "inf-constant", "negative-seed", "negative-seed-flag",
        "power-alphabet-overflow", "reproduce-negative-seed",
    ],
)
def test_values_a_run_cannot_use_are_config_errors(tmp_path, capsys, body, argv):
    """Non-finite numbers, negative seeds and an oversized power alphabet
    end in exit 2 with a config error, not rows, a runtime error or a
    traceback."""
    if body is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilons = 0.25\nks = 1,2,3\nn_points = 64\nm_omega = 4\n" + body)
        argv = ["run", str(cfg), *argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
