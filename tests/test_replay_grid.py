"""Every point of the replay grid replays its committed hash (replay_grid.py).

The hashes were written from the tree before the four-step node pass, so a
change that moves a count, a draw, a counter or a .9g fidelity cell on any
of the 1632 runs fails here, naming the first points that moved.
"""

import json

import replay_grid


def test_every_grid_point_replays_its_committed_hash():
    want = json.loads(replay_grid.PATH.read_text())
    got = replay_grid.grid()
    assert list(got) == list(want), "the grid's points changed: regenerate only on purpose"
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, f"{len(moved)} of {len(want)} points moved, first: {moved[:5]}"
