"""The contract between the engine and the benchmark's traced run.

`perfbench/run.py --trace 1` reaches into the engine from outside the
package: it swaps names that `retrack.engine` and `retrack.matching`
import for timing wrappers, and counts work through those calls'
arguments and results. These tests keep that working as the engine
changes, without the benchmark's files changing.
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import retrack.engine  # noqa: E402
import retrack.matching  # noqa: E402
from retrack.simworld import MockTracker  # noqa: E402
from retrack.tracker_port import TrackerPort  # noqa: E402

MODULES = ((retrack.engine, spans.ENGINE_NAMES), (retrack.matching, spans.MATCHING_NAMES))


def _wrapped():
    return {(module.__name__, name): getattr(module, name)
            for module, names in MODULES for name in names}


def test_every_wrapped_name_is_imported():
    missing = [key for key, fn in _wrapped().items() if not callable(fn)]
    assert not missing


def test_instrumented_installs_and_restores_its_wrappers():
    before = _wrapped()
    with spans.instrumented(spans.Tracer()):
        during = _wrapped()
        assert all(during[key] is not fn for key, fn in before.items())
    assert _wrapped() == before


def test_counting_port_overrides_every_public_port_method():
    # a method left to the base class would let the traced run take a
    # different path through the port than the untraced run takes
    public = {name for name in dir(TrackerPort) if not name.startswith("_")}
    assert public
    assert sorted(public - set(vars(spans.CountingPort))) == []


def test_traced_run_gives_the_untraced_records_and_counts(monkeypatch):
    scene = workloads.build_scene("crossing", 3)
    plain = bench.run_engine(MockTracker(scene), scene, [])
    # per fired frame, the pool's distinct rows: tracklets that differ in
    # end frame or in some box object (`build_weights` copies a twin row)
    distinct = []
    pool = retrack.engine.build_candidate_pool

    def spy(*args):
        tracklets = pool(*args)
        distinct.append(len({(tr.end_frame, *map(id, tr.boxes)) for tr in tracklets}))
        return tracklets

    monkeypatch.setattr(retrack.engine, "build_candidate_pool", spy)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        port = spans.CountingPort(MockTracker(scene), tracer)
        traced = bench.run_engine(port, scene, [], tracer, 0)
    assert traced == plain

    records = traced[1]
    fired = [r for r in records if r["gate"] == "fired"]
    assert fired
    counts = tracer.counts
    real = sum(r["n_candidates"] - (r["kalman_index"] is not None) for r in records)
    assert counts["kept"] == real <= counts["raw"]
    assert counts["chains"] == counts["rows"] == sum(len(r["weights"]) for r in fired)
    assert counts["cols"] == sum(len(r["weights"][0]) for r in fired)
    # one overlap per gate check, and one per weight of a distinct row but
    # the argmax row's target weight, which the gate's overlap supplies
    gated = sum(r["gate"] != "single_candidate" for r in records)
    assert len(distinct) == len(fired)
    assert any(n < len(r["weights"]) for n, r in zip(distinct, fired))
    want = gated + sum(n * len(r["weights"][0]) - 1 for n, r in zip(distinct, fired))
    names = tracer.arrays()["name"]
    assert int((names == tracer.names.index("tracklet_avg_iou")).sum()) == want
    # spans nest inside their parents and self times add up
    keys = {(0, r["frame"]) for r in fired}
    totals = spans.layer_totals(tracer, keys, np.ones(len(names)))
    assert totals["step"]["calls"] == len(records)
    # `raw`, `kept` and the candidate_select span time are read off these
    # three calls; a step that skipped one would under-report silently
    for name in ("filter_by_confidence", "soft_nms", "assemble"):
        assert totals.get(name, {}).get("calls") == len(records), name
