"""Harness: config grammar, sweep expansion, CSV output, resume, CLI."""

import dataclasses
import os
import subprocess
import sys

import pytest

import dqft
from dqft.bench import (CONFIG_KEYS, CSV_COLUMNS, SweepConfig, expand_points, format_row,
                        load_config, normalize_theta, parse_config, run_point,
                        summarize, sweep)
from dqft.cli import main

CONFIG_TEXT = """\
# small sweep
num_qubits: [4, 6]
nodes: [1, 2, 4]
theta: [0.0, 0.333333]
shots: 50
modes: [telegate, semiclassical]
seed: 7
repeats: 1
output_path: {out}
"""


def _config(tmp_path, **overrides):
    out = overrides.pop("output_path", str(tmp_path / "rows.csv"))
    cfg = parse_config(CONFIG_TEXT.format(out=out))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# -- config grammar -----------------------------------------------------------


def test_parse_config_roundtrip(tmp_path):
    cfg = _config(tmp_path)
    assert cfg.num_qubits == [4, 6]
    assert cfg.nodes == [1, 2, 4]
    assert cfg.theta == [0.0, 1 / 3]  # 0.333333 normalized to the exact rational
    assert cfg.shots == 50
    assert cfg.modes == ["telegate", "semiclassical"]
    assert cfg.seed == 7
    assert cfg.repeats == 1


def test_parse_config_errors():
    with pytest.raises(ValueError, match="missing"):
        parse_config("shots: 10")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(CONFIG_TEXT.format(out="x") + "bogus: 3\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(CONFIG_TEXT.format(out="x") + "shots: 11\n")
    with pytest.raises(ValueError, match="mode"):
        parse_config(CONFIG_TEXT.format(out="x").replace("semiclassical", "magic"))
    with pytest.raises(ValueError, match="list"):
        parse_config(CONFIG_TEXT.format(out="x").replace("[1, 2, 4]", "3"))
    with pytest.raises(ValueError, match="theta"):
        parse_config(CONFIG_TEXT.format(out="x").replace("0.333333", "1.5"))


@pytest.mark.parametrize("old, new, key", [("seed: 7", "seed: -3", "seed"),
                                           ("[4, 6]", "[0]", "num_qubits"),
                                           ("[1, 2, 4]", "[1, 0]", "nodes"),
                                           ("[1, 2, 4]", "[-2]", "nodes")])
def test_parse_config_rejects_negative_seed_and_sizes_below_one(old, new, key):
    with pytest.raises(ValueError, match=f"^{key} must be >= "):
        parse_config(CONFIG_TEXT.format(out="x").replace(old, new))


@pytest.mark.parametrize("old, new, key", [
    ("[4, 6]", "[4, 6, 4]", "num_qubits"),
    ("[1, 2, 4]", "[2, 2]", "nodes"),
    ("[0.0, 0.333333]", "[0.333333, 0.3333333]", "theta"),  # both snap to 1/3
    ("[0.0, 0.333333]", "[0.1, 0.1000000001]", "theta"),  # one resume key, 0.1
    ("[telegate, semiclassical]", "[telegate, telegate]", "modes"),
], ids=["num_qubits", "nodes", "theta-thirds", "theta-one-resume-key", "modes"])
def test_parse_config_rejects_a_repeated_list_value(old, new, key):
    with pytest.raises(ValueError, match=f"^{key} repeats a value"):
        parse_config(CONFIG_TEXT.format(out="x").replace(old, new))


def test_config_keys_are_the_sweep_config_fields():
    assert CONFIG_KEYS == tuple(f.name for f in dataclasses.fields(SweepConfig))


def test_normalize_theta():
    assert normalize_theta(0.333333) == 1 / 3
    assert normalize_theta(0.666667) == 2 / 3
    assert normalize_theta(0.25) == 0.25


def test_load_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(CONFIG_TEXT.format(out="rows.csv"))
    assert load_config(str(path)).shots == 50


# -- sweep expansion --------------------------------------------------------------


def test_expand_points_skips_k_greater_than_n(tmp_path):
    notices = []
    cfg = _config(tmp_path, num_qubits=[4, 6, 8, 10, 12],
                  nodes=[1, 2, 4, 8], theta=[0.0, 1 / 3, 2 / 3],
                  modes=["telegate"])
    points = expand_points(cfg, log=notices.append)
    # k=8 valid only for n in {8, 10, 12}: 18 (n, k) pairs x 3 thetas
    assert len(points) == 54
    assert len(notices) == 2  # (4, 8) and (6, 8)
    cfg.nodes = [1, 2, 4]
    assert len(expand_points(cfg)) == 45  # 5 * 3 * 3 * 1


def test_row_count_rule(tmp_path):
    cfg = _config(tmp_path, repeats=2)
    points = expand_points(cfg)
    assert len(points) == 2 * 3 * 2 * 2 * 2  # n-list x nodes x theta x modes x repeats


# -- single points ------------------------------------------------------------------


def test_run_point_theta_zero():
    row = run_point(4, 2, 0.0, "telegate", shots=20, seed=0)
    assert row.modal_outcome == 0
    assert row.fidelity_exact == pytest.approx(1.0, abs=1e-10)
    assert row.fidelity_sampled == pytest.approx(1.0, abs=1e-10)


def test_run_point_resource_numbers():
    row = run_point(8, 4, 0.333333, "telegate", shots=50, seed=1)
    assert row.epr_count == 12
    assert row.block_slots == 7
    assert row.classical_msg_count == 24


def test_format_row_nine_significant_digits():
    row = run_point(4, 2, 1 / 3, "telegate", shots=10, seed=0)
    cells = format_row(row).split(",")
    assert len(cells) == len(CSV_COLUMNS)
    theta_cell = cells[CSV_COLUMNS.index("theta")]
    assert theta_cell == "0.333333333"


# -- sweep and CSV ---------------------------------------------------------------------


def test_sweep_writes_csv_and_resumes(tmp_path):
    cfg = _config(tmp_path)
    summary = sweep(cfg, log=lambda m: None)
    assert summary["written"] == len(expand_points(cfg))
    assert summary["failures"] == []
    path = summary["output_path"]
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + summary["written"]

    # rerun on the existing CSV: zero new rows
    again = sweep(cfg, log=lambda m: None)
    assert again["written"] == 0
    assert again["skipped"] == summary["written"]
    with open(path) as fh:
        assert len(fh.read().splitlines()) == len(lines)


def test_sweep_determinism_modulo_wall_time(tmp_path):
    cfg_a = _config(tmp_path, output_path=str(tmp_path / "a.csv"))
    cfg_b = _config(tmp_path, output_path=str(tmp_path / "b.csv"))
    sweep(cfg_a, log=lambda m: None)
    sweep(cfg_b, log=lambda m: None)

    def strip_wall(path):
        drop = CSV_COLUMNS.index("wall_time_seconds")
        with open(path, "rb") as fh:
            body = fh.read().decode().splitlines()
        return [",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                for line in body]

    assert strip_wall(tmp_path / "a.csv") == strip_wall(tmp_path / "b.csv")


def test_sweep_semiclassical_rows_use_no_epr(tmp_path):
    cfg = _config(tmp_path)
    summary = sweep(cfg, log=lambda m: None)
    semi = [r for r in summary["rows"] if r.mode == "semiclassical"]
    assert semi
    assert all(r.epr_count == 0 for r in semi)
    tele = [r for r in summary["rows"] if r.mode == "telegate"]
    assert all(r.classical_msg_count == 2 * r.epr_count for r in tele)


def test_sweep_empirical_fidelity_floor(tmp_path):
    cfg = _config(tmp_path, shots=100)
    summary = sweep(cfg, log=lambda m: None)
    assert all(r.fidelity_sampled >= 0.9 for r in summary["rows"])


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DQFT_OUTPUT_DIR", str(tmp_path / "outdir"))
    cfg = _config(tmp_path, output_path="relative.csv",
                  num_qubits=[4], nodes=[1], theta=[0.0], modes=["telegate"])
    summary = sweep(cfg, log=lambda m: None)
    assert summary["output_path"] == str(tmp_path / "outdir" / "relative.csv")
    assert os.path.exists(summary["output_path"])


def test_summarize_lines(tmp_path):
    cfg = _config(tmp_path, num_qubits=[4], nodes=[1, 2], theta=[0.0],
                  modes=["telegate"])
    summary = sweep(cfg, log=lambda m: None)
    lines = summarize(summary["rows"])
    assert len(lines) == 3  # header + one line per (n, k)


# -- CLI ---------------------------------------------------------------------------------


def test_cli_run_success(capsys):
    code = main(["run", "--n", "4", "--k", "2", "--theta", "0.0", "--shots", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert ",".join(CSV_COLUMNS) in out


def test_cli_run_k_exceeds_n(capsys):
    code = main(["run", "--n", "4", "--k", "8"])
    assert code == 2
    assert "k exceeds n" in capsys.readouterr().err


def test_cli_run_nonpositive_n_is_reported_before_k_exceeds_n(capsys):
    code = main(["run", "--n", "0", "--k", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "must be positive" in err and "k exceeds n" not in err


def test_cli_run_bad_theta(capsys):
    code = main(["run", "--n", "4", "--k", "2", "--theta", "1.5"])
    assert code == 2


def test_cli_run_negative_seed_exits_2(capsys):
    code = main(["run", "--n", "4", "--k", "2", "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "seed" in err and "Traceback" not in err


def test_cli_run_invalid_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n", "four", "--k", "2"])
    assert exc.value.code == 2


def _must_not_run(*args):
    raise AssertionError(f"run_point{args} ran")


@pytest.mark.parametrize("mode", ["telegate", "semiclassical"])
def test_cli_run_refuses_a_state_larger_than_memory_up_front(capsys, monkeypatch, mode):
    monkeypatch.setattr(dqft.bench, "run_point", _must_not_run)
    code = main(["run", "--n", "64", "--k", "2", "--mode", mode])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: n=64 needs ") and "Traceback" not in err


def test_cli_run_reports_a_memory_error_as_an_error_line(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(dqft.bench, "run_point", out_of_memory)
    code = main(["run", "--n", "20", "--k", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: n=20 needs ") and "out of memory" in err


def test_cli_sweep_and_summary(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(CONFIG_TEXT.format(out=out))
    code = main(["sweep", str(cfg_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "wrote" in stdout
    assert out.exists()


def test_cli_sweep_missing_config(capsys):
    assert main(["sweep", "/nonexistent/sweep.cfg"]) == 2


@pytest.mark.parametrize("old, new", [("seed: 7", "seed: -3"), ("[4, 6]", "[0]"),
                                      ("[1, 2, 4]", "[1, 0]")])
def test_cli_sweep_bad_config_exits_2_and_writes_nothing(tmp_path, capsys, old, new):
    out, cfg_path = tmp_path / "bad.csv", tmp_path / "bad.cfg"
    cfg_path.write_text(CONFIG_TEXT.format(out=out).replace(old, new))
    assert main(["sweep", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


@pytest.mark.parametrize("change", ["shots", "header"])
def test_cli_sweep_unresumable_csv_exits_2_and_leaves_files(tmp_path, capsys, change):
    out, sidecar, cfg_path = (tmp_path / name for name in ("one.csv", "one.csv.shots", "one.cfg"))
    one_point = ("num_qubits: [4]\nnodes: [2]\ntheta: [0.0]\nshots: {shots}\n"
                 "modes: [telegate]\nseed: 7\nrepeats: 1\noutput_path: {out}\n")
    cfg_path.write_text(one_point.format(shots=6, out=out))
    assert main(["sweep", str(cfg_path)]) == 0
    if change == "shots":
        cfg_path.write_text(one_point.format(shots=5, out=out))
    else:
        out.write_text("n,k,theta\n4,2,0.0\n")
    before = out.read_bytes(), sidecar.read_bytes()
    capsys.readouterr()
    assert main(["sweep", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert (out.read_bytes(), sidecar.read_bytes()) == before


def test_cli_sweep_into_closed_pipe_exits_without_traceback(tmp_path):
    # a reader that closes stdout before the summary is written, like `| head`
    out, cfg_path = tmp_path / "piped.csv", tmp_path / "piped.cfg"
    cfg_path.write_text(CONFIG_TEXT.format(out=out))
    src = os.path.dirname(os.path.dirname(dqft.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "dqft", "sweep", str(cfg_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    proc.wait(timeout=120)
    assert "Traceback" not in err and "BrokenPipeError" not in err
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) - 1 == len(expand_points(_config(tmp_path)))


def test_run_point_modal_outcome_is_the_smallest_of_tied_values(monkeypatch):
    run_distributed = dqft.bench.run_distributed

    def tied(*args, **kwargs):
        res = run_distributed(*args, **kwargs)
        res.counts = {9: 20, 6: 40, 2: 10, 3: 40}
        return res

    monkeypatch.setattr(dqft.bench, "run_distributed", tied)
    assert run_point(4, 2, 0.3, "telegate", shots=110, seed=0).modal_outcome == 3
