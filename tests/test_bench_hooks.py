"""The traced benchmark's hooks still find every name they wrap.

dqftbench/spans.py patches dqft functions and methods where their callers
look them up, through ``owner.__dict__[attr]``; a name deleted or no longer
re-exported breaks the traced run.  This runs its Tracer as the traced
benchmark does, on one telegate and one semiclassical point, checks the
wrapped fabric calls against the simulated counters with the benchmark's
own counted_vs_simulated, and checks that unpatching restores every name.
"""

from pathlib import Path

import dqft
import dqft.bench

BENCH_DIR = Path(__file__).resolve().parent.parent / "dqftbench"


def test_traced_points_count_every_fabric_call_and_unpatch_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans
    import worker

    captured = []
    run_distributed = dqft.bench.run_distributed

    def capturing(plan, theta, mode="telegate", **kwargs):
        result = run_distributed(plan, theta, mode=mode, **kwargs)
        captured.append(((plan.n, plan.k, theta, mode), result))
        return result

    monkeypatch.setattr(dqft.bench, "run_distributed", capturing)
    tracer = spans.Tracer()
    tracer.install(dqft)
    patched = list(tracer._undo)
    try:
        for n, k, mode in ((6, 3, "telegate"), (7, 4, "semiclassical")):
            dqft.bench.run_point(n, k, 0.3, mode, 20, 5)
    finally:
        tracer.unpatch_all()

    assert [key[3] for key, _ in captured] == ["telegate", "semiclassical"]
    table = spans.SpanTable(tracer)
    record = worker.OpRecord(0.0, 2, 2, results=captured)
    assert worker.counted_vs_simulated(table, [record]) == []
    assert table.calls("fabric.measure") == 20 * 7 + captured[0][1].metrics.midcircuit_measurements
    assert table.calls("fabric.allocate_epr") == captured[0][1].metrics.epr_count > 0
    assert table.calls("bench.run_point") == 2
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
