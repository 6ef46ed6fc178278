"""Config parsing, experiment dispatch, result emission and the entcli
command surface."""

import json
import math

import pytest

from fsgentropy import binary, cli, estimators, systems, words
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
    # build, one array draw per driving word, and one sampled word, omega
    calls = {"orbit_windows": 0, "sample_symbols": 0, "sample_word": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(binary, "orbit_windows", counted("orbit_windows", binary.orbit_windows))
    monkeypatch.setattr(estimators, "sample_symbols",
                        counted("sample_symbols", words.sample_symbols))
    sample = counted("sample_word", words.sample_word)
    monkeypatch.setattr(cli, "sample_word", sample)
    monkeypatch.setattr(estimators, "sample_word", sample)
    cfg = ExperimentConfig(
        estimator="corr-sum", epsilons=[0.25, 0.125], ks=[1, 3, 6], n=200, m_upsilon=5
    )
    assert len(run_experiment(cfg).rows) == 6
    assert calls == {"orbit_windows": 1, "sample_symbols": 5, "sample_word": 1}


def _counted(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(len(args[0]))
        return fn(*args, **kwargs)

    return wrapper


POWER_TEST = """
estimator = power-test
epsilons = {eps}
ks = 2,3,4,5,6,7
n_points = 256
m_omega = 8
power = 2
"""


@pytest.mark.parametrize("eps", [0.125, 0.4])
def test_circle_power_test_sorts_its_sample_once(monkeypatch, eps):
    # the base and the power system share one point set, and with it one
    # sorted array, as arcs (eps 1/8) and past the domain edge (eps 0.4)
    calls = []
    monkeypatch.setattr(systems, "_circle_array", _counted(calls, systems._circle_array))
    cfg = parse_config("system = circle-double-rotate" + POWER_TEST.format(eps=eps))
    assert len(run_experiment(cfg).rows) == 1
    assert calls == [256]


def test_binary_power_test_converts_its_sample_to_windows_once(monkeypatch):
    # a power system keeps its base's to_windows, so its point set too
    calls = []
    monkeypatch.setattr(binary, "to_windows", _counted(calls, binary.to_windows))
    cfg = parse_config("system = binary-shift-odometer" + POWER_TEST.format(eps=0.25))
    assert len(run_experiment(cfg).rows) == 1
    assert calls == [256]


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


@pytest.mark.parametrize("weights", [[0.9, 0.1], [0.3, 0.7]])
def test_closed_forms_take_the_shift_weight(weights):
    """Under skewed weights the closed-form top-entropy rows are the word
    average of exact corr-entropy over all prefixes, (t + p (k-1)) log 2
    / k with p the shift's weight, and the exact power-test ratio stays
    the power."""
    grid = dict(exact=True, epsilons=[0.25, 0.125], ks=[1, 2, 3, 4, 6], weights=weights)
    top = run_experiment(ExperimentConfig(estimator="top-entropy", **grid)).rows
    corr = run_experiment(ExperimentConfig(estimator="corr-entropy", **grid)).rows
    assert [(r.epsilon, r.k) for r in top] == [(r.epsilon, r.k) for r in corr]
    for a, b in zip(top, corr):
        t = binary.prefix_length_for(a.epsilon)
        assert a.value == pytest.approx((t + weights[0] * (a.k - 1)) * LOG2 / a.k, abs=1e-12)
        assert a.value == pytest.approx(b.value, abs=1e-12)
    for power in (2, 3):
        cfg = ExperimentConfig(estimator="power-test", power=power, **grid)
        (row,) = run_experiment(cfg).rows
        assert row.value == pytest.approx(power, abs=1e-9)


@pytest.mark.parametrize(
    "estimator", ["corr-entropy", "doubling", "local-entropy", "top-entropy", "power-test"]
)
def test_exact_runs_draw_no_point(monkeypatch, estimator):
    """An exact run reads binary.ball_measure and draws no sample point."""
    def no_draw(*args, **kwargs):
        raise AssertionError("an exact run drew a point")

    monkeypatch.setattr(binary, "random_points", no_draw)
    monkeypatch.setattr(estimators.EmpiricalMeasure, "draw", no_draw)
    cfg = ExperimentConfig(estimator=estimator, exact=True, epsilons=[0.25, 0.125], ks=[1, 2, 3, 5])
    assert run_experiment(cfg).rows


@pytest.mark.parametrize("depth, code", [(7, 2), (8, 0)])
def test_power_test_depth_floor_counts_the_base_horizons(tmp_path, capsys, depth, code):
    """ks = 2 at power 2 fits the base series out to horizon
    2 * (4 - 1) + 1 = 7, which reads 6 shifts past the radius's 2
    coordinates: the floor is 8, so depth 7 is a config error, not a
    run that stops with DepthExhausted, and depth 8 runs."""
    cfg = tmp_path / "power.cfg"
    cfg.write_text(
        "system = binary-shift-odometer\n"
        "estimator = power-test\n"
        "epsilons = 0.25\n"
        "ks = 2\n"
        "n_points = 64\n"
        "m_omega = 8\n"
        "power = 2\n"
        "weights = 0.999,0.001\n"
        f"depth = {depth}\n"
    )
    assert main(["run", str(cfg)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "config error" in captured.err
        assert "depth" in captured.err and ">= 8" in captured.err
    else:
        assert captured.out.startswith(CSV_HEADER)


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
def test_closed_form_at_radius_one_reads_the_whole_space(tmp_path, capsys, body):
    """At radius 1 (L = 0) every Bowen ball is the whole space: the
    closed-form series print 0.0 rows at the config's radius, and the
    power test, whose base limit is then 0, exits 3 naming it instead
    of ending in a traceback."""
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(body + "epsilons = 1.0\nks = 1,2,3,4\n")
    code = main(["run", str(cfg)])
    captured = capsys.readouterr()
    if "power-test" in body:
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "runtime error: power-test base limit is 0 at epsilon 1.0: no ratio\n"
        )
    else:
        assert code == 0
        rows = parse_rows(captured.out)
        want = [(1.0, k, "0.0") for k in range(1, 5)]
        assert [(r.epsilon, r.k, str(r.value)) for r in rows] == want


def test_exact_corr_entropy_at_radius_one_runs(tmp_path, capsys):
    """Exact corr-entropy at radius 1 reads balls that are the whole
    space, so every row is 0.0, as the sampled run prints."""
    cfg = tmp_path / "exact.cfg"
    cfg.write_text("estimator = corr-entropy\nexact = true\nepsilons = 1.0\nks = 1,2,3,4\n")
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = parse_rows(out.read_text())
    assert [r.k for r in rows] == [1, 2, 3, 4]
    assert [str(r.value) for r in rows] == ["0.0"] * 4
    cfg.write_text("estimator = corr-entropy\nepsilons = 1.0\nks = 1,2,3,4\nn_points = 64\n")
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert [str(r.value) for r in parse_rows(out.read_text())] == ["0.0"] * 4
    capsys.readouterr()


@pytest.mark.parametrize("eps", [0.25, 0.3, 1.0])
@pytest.mark.parametrize("weights", [None, [0.999, 0.001], [0.3, 0.7]])
def test_exact_corr_entropy_is_the_closed_form_past_the_word_budget(eps, weights):
    """Past the word budget (2**(k-1) > m_omega = 8 from k = 5) the rows
    of exact corr-entropy stay the closed form (L + p (k-1)) log 2 / k,
    bit for bit, with L the radius's cylinder length and p the shift's
    weight, and 0.0 where L = 0 (radius 1), at the config's own radius
    (0.3 is not dyadic) with stderr 0.0, and the series is slope-fit;
    they are the rows of exact_series at L."""
    ks = list(range(1, 13))
    cfg = ExperimentConfig(
        estimator="corr-entropy", exact=True, epsilons=[eps], ks=ks, m_omega=8, q=3.0,
        weights=weights,
    )
    result = run_experiment(cfg)
    p, t = 0.5 if weights is None else weights[0], binary.prefix_length_for(eps)
    want = [(eps, k, (t + p * (k - 1)) * LOG2 / k if t else 0.0, 0.0) for k in ks]
    assert [(r.epsilon, r.k, r.value, r.stderr) for r in result.rows] == want
    ((_, est),) = result.summary
    assert est.method == "slope-fit"
    series = binary.exact_series("corr", t, max(ks), 3.0, 1, p)
    assert [r.value for r in result.rows] == [v for _, v in series.rows]


@pytest.mark.parametrize("eps", [2.0, 1.0, 0.5, 0.3])
def test_exact_top_entropy_equals_a_sample_that_fills_every_cylinder(eps):
    """4096 sampled points fill every cylinder of length L + s <= 4 that
    ks 1..3 read, so the sampled top-entropy rows (exhaustive words) are
    the closed form at every radius, dyadic or not, below 1 or not."""
    grid = dict(estimator="top-entropy", epsilons=[eps], ks=[1, 2, 3], n_points=4096)
    exact = run_experiment(ExperimentConfig(exact=True, **grid)).rows
    sampled = run_experiment(ExperimentConfig(**grid)).rows
    assert [(r.epsilon, r.k) for r in exact] == [(r.epsilon, r.k) for r in sampled]
    for a, b in zip(exact, sampled):
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "body",
    [
        "epsilons = 1.0\n",
        "epsilons = 1.0\nexact = true\n",
        "epsilons = 2.0\nexact = true\n",
        "system = circle-double-rotate\nepsilons = 0.5\n",
    ],
    ids=["binary-sampled", "binary-exact", "binary-exact-radius-two", "circle-sampled"],
)
def test_power_test_with_a_zero_base_limit_exits_3(tmp_path, capsys, body):
    """Where every ball is the whole space (radius >= 1 on the binary
    system, the circle's diameter 0.5) the base entropy limit is 0: the
    run names it and exits 3, not a ZeroDivisionError traceback."""
    cfg = tmp_path / "power.cfg"
    cfg.write_text("estimator = power-test\nks = 1,2,3,4\nn_points = 128\n" + body)
    assert main(["run", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("runtime error: power-test base limit is 0 at epsilon")


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
        ("system = torus-affine\nconstants = \n", []),
        ("depth = 2\n", []),
        ("depth = 4\n", []),
        ("estimator = corr-sum\nn = 50\ndepth = 54\n", []),
        ("estimator = power-test\ndepth = 7\n", []),
        ("seed = -5\n", []),
        ("", ["--seed", "-1"]),
        ("estimator = power-test\npower = 30\n", []),
        (None, ["reproduce-paper-example", "--seed", "-3"]),
    ],
    ids=[
        "nan-radius-circle", "inf-radius-circle", "nan-radius-binary", "nan-weights",
        "nan-alpha", "inf-constant", "no-constants", "depth-2", "depth-below-horizon",
        "depth-below-orbit", "depth-below-power-horizon", "negative-seed", "negative-seed-flag",
        "power-alphabet-overflow", "reproduce-negative-seed",
    ],
)
def test_values_a_run_cannot_use_are_config_errors(tmp_path, capsys, body, argv):
    """Non-finite numbers, no torus constants, a binary depth below the
    coordinates the run reads, negative seeds and an oversized power
    alphabet end in exit 2 with a config error, not rows, a runtime
    error or a traceback."""
    if body is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilons = 0.25\nks = 1,2,3\nn_points = 64\nm_omega = 4\n" + body)
        argv = ["run", str(cfg), *argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "body, need",
    [
        ("", 2 + 3),
        ("epsilons = 0.25,0.0625\n", 4 + 3),
        ("estimator = corr-sum\nn = 50\n", 2 + 3 + 50),
        ("estimator = local-corr-entropy\nn = 50\n", 2 + 3 + 50),
        ("estimator = power-test\npower = 3\n", 2 + 3 * 3),
    ],
    ids=["horizon", "finest-radius", "corr-sum", "local-corr-entropy", "power-test"],
)
def test_a_binary_depth_must_cover_what_the_run_reads(body, need):
    """The depth floor is the finest radius's resolution plus the longest
    horizon (times the power for power-test), plus n for orbits; other
    systems ignore the depth."""
    base = "epsilons = 0.25\nks = 1,2,3\n" + body
    assert parse_config(f"{base}depth = {need}\n").depth == need
    with pytest.raises(ConfigInvalid, match=f"depth.*must be >= {need}"):
        parse_config(f"{base}depth = {need - 1}\n")
    assert parse_config(f"{base}system = torus-affine\ndepth = 1\n").depth == 1


def test_a_depth_at_the_floor_may_still_fail_at_run_time(tmp_path, capsys):
    """The floor is necessary, not sufficient: depth 5 is the floor of
    this corr-entropy run, passes the check, and runs out of carry room;
    one below it is rejected with the headroom the default adds."""
    cfg = tmp_path / "floor.cfg"
    body = "estimator = corr-entropy\nepsilons = 0.25\nks = 1,2,3\nn_points = 64\n"
    cfg.write_text(body + "depth = 5\n")
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == "runtime error: all-ones prefix of depth 5\n"
    cfg.write_text(body + "depth = 4\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "must be >= 5, the coordinates this run reads" in err
    assert "necessary, not sufficient: below 45, the default, a carry may still run out" in err


@pytest.mark.parametrize(
    "body",
    [
        "estimator = local-entropy\nn_points = 1\n",
        "estimator = local-corr-entropy\nepsilons = 0.6\nn = 5\nm_upsilon = 2\n",
    ],
    ids=["local-entropy-one-point", "local-corr-entropy-every-pair-close"],
)
def test_a_ball_holding_everything_prints_a_positive_zero(tmp_path, capsys, body):
    """A centre whose ball holds the whole sample, or orbits whose pairs
    are all close, give entropy rows of 0.0, never -0.0."""
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("system = circle-double-rotate\nepsilons = 0.25\nks = 1,2,3\n" + body)
    assert main(["run", str(cfg)]) == 0
    rows = parse_rows(capsys.readouterr().out)
    assert [str(r.value) for r in rows] == ["0.0"] * 3
