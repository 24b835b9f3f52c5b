"""Sweep resume: torn CSV tails, the seed in the resume key, and the shots sidecar."""

import pytest

from dqft.bench import CSV_COLUMNS, SweepConfig, format_row, sweep
from dqft.cli import main


def _config(path, seed=7, shots=20):
    return SweepConfig(num_qubits=[3], nodes=[1, 2], theta=[0.0, 1 / 3], shots=shots,
                       modes=["telegate"], seed=seed, repeats=1, output_path=str(path))


def _quiet(msg):
    pass


def _rows_without_wall_time(path):
    wall = CSV_COLUMNS.index("wall_time_seconds")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(cells) == len(CSV_COLUMNS) for cells in rows)
    return [cells[:wall] + cells[wall + 1:] for cells in rows]


def _tear(path, keep_of_last_row):
    """Cut the file inside its last row, keeping that many characters of it."""
    text = path.read_text()
    start = text.rstrip("\n").rfind("\n") + 1
    path.write_text(text[:start + keep_of_last_row])


def test_row_cut_inside_last_cell_is_rerun(tmp_path):
    path = tmp_path / "rows.csv"
    full = sweep(_config(path), log=_quiet)
    want = _rows_without_wall_time(path)
    last = format_row(full["rows"][-1])
    _tear(path, len(last) - 1)  # 14 cells, last one cut short, no newline
    again = sweep(_config(path), log=_quiet)
    assert again["written"] == 1
    assert again["skipped"] == full["written"] - 1
    assert _rows_without_wall_time(path) == want


def test_row_cut_early_is_not_glued_to_the_next(tmp_path):
    path = tmp_path / "rows.csv"
    full = sweep(_config(path), log=_quiet)
    want = _rows_without_wall_time(path)
    _tear(path, 12)
    again = sweep(_config(path), log=_quiet)
    assert again["written"] == 1
    assert path.read_text().endswith("\n")
    assert _rows_without_wall_time(path) == want
    assert len(want) == full["written"]


def test_header_cut_before_its_newline_is_rewritten(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(",".join(CSV_COLUMNS))
    res = sweep(_config(path), log=_quiet)
    assert len(_rows_without_wall_time(path)) == res["written"] == 4


def test_rerun_with_another_seed_writes_its_rows(tmp_path):
    path = tmp_path / "rows.csv"
    first = sweep(_config(path, seed=7), log=_quiet)
    second = sweep(_config(path, seed=8), log=_quiet)
    assert second["written"] == first["written"] == 4
    assert second["skipped"] == 0
    assert sweep(_config(path, seed=8), log=_quiet)["written"] == 0
    seeds = [cells[CSV_COLUMNS.index("seed")] for cells in _rows_without_wall_time(path)]
    assert seeds == ["7"] * 4 + ["8"] * 4


def test_rerun_with_other_shots_raises_before_running(tmp_path):
    path = tmp_path / "rows.csv"
    sweep(_config(path, shots=100), log=_quiet)
    before = path.read_text()
    assert (tmp_path / "rows.csv.shots").read_text() == "100\n"
    with pytest.raises(ValueError, match="shots=100"):
        sweep(_config(path, shots=5000), log=_quiet)
    assert path.read_text() == before


def test_csv_without_sidecar_is_accepted_and_gets_one(tmp_path):
    path = tmp_path / "rows.csv"
    sidecar = tmp_path / "rows.csv.shots"
    sweep(_config(path, shots=30), log=_quiet)
    sidecar.unlink()  # as written before the sidecar existed
    again = sweep(_config(path, shots=30), log=_quiet)
    assert (again["written"], again["skipped"]) == (0, 4)
    assert sidecar.read_text() == "30\n"
    with pytest.raises(ValueError):
        sweep(_config(path, shots=31), log=_quiet)


@pytest.mark.parametrize("held", ["", "abc"], ids=["empty", "garbled"])
def test_unreadable_sidecar_is_a_cli_error_not_a_traceback(tmp_path, capsys, held):
    # an empty sidecar is what a kill between its open and its write leaves
    path = tmp_path / "rows.csv"
    sweep(_config(path, shots=20), log=_quiet)
    before = path.read_text()
    (tmp_path / "rows.csv.shots").write_text(held)
    config = tmp_path / "sweep.cfg"
    config.write_text(f"num_qubits: [3]\nnodes: [1, 2]\ntheta: [0.0]\nshots: 20\n"
                      f"modes: [telegate]\nseed: 7\nrepeats: 1\noutput_path: {path}\n")
    assert main(["sweep", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shots sidecar ") and str(path) in err
    assert repr(held) in err and "Traceback" not in err
    assert path.read_text() == before
    assert (tmp_path / "rows.csv.shots").read_text() == held
