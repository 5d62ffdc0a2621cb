"""Engine behavior: gating, neighbor upkeep, rescue, and fallbacks."""
import logging
import math

import pytest

import retrack.engine
from conftest import ScriptPort, solo_scene, zero_iou_scene
from props import WindowPort
from retrack.candidate_select import ALPHA, NMS_FLOOR, NMS_IOU, NMS_SIGMA
from retrack.engine import EngineConfig, engine_init, run_baseline, run_sequence, step
from retrack.geometry import BBox, Tracklet, iou
from retrack.simworld import MockTracker, ScenarioConfig, generate_scene
from retrack.tracker_port import TrackerPort


class ForwardingPort(TrackerPort):
    """Forwards `make_template` and `propose` only, so the base class's
    chaining of `propose` calls runs in place of the inner port's lean
    `track_segment`; records every frame `propose` is asked about."""

    def __init__(self, inner: TrackerPort):
        self.inner = inner
        self.proposed: list[int] = []

    def make_template(self, frame, box):
        return self.inner.make_template(frame, box)

    def propose(self, template, frame, prior):
        self.proposed.append(frame)
        return self.inner.propose(template, frame, prior)


class RecordingPort(TrackerPort):
    """Forwards every call to `inner`; records the frames of each
    `track_segment` call, in the order asked."""

    def __init__(self, inner: TrackerPort):
        self.inner = inner
        self.segments: list[list[int]] = []

    def make_template(self, frame, box):
        return self.inner.make_template(frame, box)

    def propose(self, template, frame, prior):
        return self.inner.propose(template, frame, prior)

    def track_segment(self, template, start, frames):
        self.segments.append(list(frames))
        return self.inner.track_segment(template, start, frames)


def _target_box(f):
    return BBox(2.0 * f, 0.0, 10.0, 10.0)


D_NEAR = BBox(100.0, 50.0, 10.0, 10.0)
D_JUMPED = BBox(200.0, 50.0, 10.0, 10.0)


def _two_lane_script(n=6, jump_at=4):
    script = {}
    for f in range(n):
        d = D_NEAR if f < jump_at else D_JUMPED
        script[f] = ((_target_box(f), d), (0.9, 0.8))
    return script


class TestConfig:
    def test_defaults_round_trip_through_as_dict(self):
        cfg = EngineConfig()
        assert cfg.as_dict() == {
            "alpha": 0.7, "nms_iou": 0.25, "nms_sigma": 0.01,
            "nms_floor": 1e-3, "tau": 9, "stability_iou": 0.6,
            "assoc_iou": 0.3, "use_kalman": True,
        }

    @pytest.mark.parametrize("field, value", [
        ("tau", 0), ("tau", 2.5), ("tau", True),
        ("use_kalman", "no"), ("use_kalman", 1), ("use_kalman", None),
    ])
    def test_bad_values_fail_when_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})


class TestInit:
    def test_state_anchored_on_first_box(self):
        port = ScriptPort(_two_lane_script())
        b0 = _target_box(0)
        state = engine_init(port, 0, b0, EngineConfig())
        assert state.target.end_frame == 0
        assert state.target.head == b0
        assert len(state.target) == 1
        assert len(state.neighbors) == 0
        assert state.motion is not None
        assert state.template == port.make_template(0, b0)
        off = engine_init(port, 0, b0, EngineConfig(use_kalman=False))
        assert off.motion is None


class TestIsStable:
    """The stability gate, read from the records `step` writes."""

    def test_single_real_candidate_is_trusted(self):
        port = ScriptPort({1: ((BBox(9.0, 9.0, 4.0, 4.0),), (0.5,))})
        cfg = EngineConfig()
        state = engine_init(port, 0, BBox(0.0, 0.0, 4.0, 4.0), cfg)
        box, _, rec = step(state, 1, port, cfg)
        assert rec["n_candidates"] == 2  # the one proposal plus the motion box
        assert rec["gate"] == "single_candidate"
        assert rec["gate_overlap"] is None
        assert rec["source"] == "argmax"
        assert box == BBox(9.0, 9.0, 4.0, 4.0)
        assert port.propose_calls == 1  # nothing was backtracked

    def test_threshold_is_strict(self, monkeypatch):
        scene = generate_scene(ScenarioConfig("convoy"), 100)
        port = MockTracker(scene)
        cfg = EngineConfig()
        state = engine_init(port, 0, scene.true_box(min(scene.ids()), 0), cfg)
        for t in range(1, scene.length):
            _, after, rec = step(state, t, port, cfg)
            if rec["gate"] == "history_overlap" and rec["gate_overlap"] < 0.9:
                break
            state = after
        else:
            pytest.fail("no history_overlap frame with a fractional overlap")
        overlap = rec["gate_overlap"]
        monkeypatch.setattr(retrack.engine, "STABILITY_IOU", overlap)
        _, _, again = step(state, t, port, cfg)
        assert again["gate_overlap"] == overlap
        assert again["gate"] == "fired"
        monkeypatch.setattr(retrack.engine, "STABILITY_IOU", math.nextafter(overlap, 0.0))
        assert step(state, t, port, cfg)[2]["gate"] == "history_overlap"


class TestStablePath:
    def test_neighbor_histories_grow_cap_and_reset(self):
        port = ScriptPort(_two_lane_script())
        cfg = EngineConfig(tau=3, use_kalman=False)
        state = engine_init(port, 0, _target_box(0), cfg)
        lengths = []
        for t in range(1, 6):
            box, state, rec = step(state, t, port, cfg)
            assert box == _target_box(t)
            assert rec["gate"] == "history_overlap"
            assert rec["gate_overlap"] == 1.0
            assert rec["source"] == "argmax"
            assert rec["weights"] is None and rec["pairs"] is None
            lengths.append([len(tr) for tr in state.neighbors])
        # grows by one per frame, capped at tau, fresh after the jump
        assert lengths == [[1], [2], [3], [1], [2]]
        assert state.neighbors[0].end_frame == 5
        assert state.neighbors[0].head == D_JUMPED

    def test_one_proposal_ends_the_neighbor_pool(self):
        script = _two_lane_script(n=3)
        script[3] = ((_target_box(3),), (0.9,))
        port = ScriptPort(script)
        cfg = EngineConfig(tau=3)  # the motion box joins, and is no loser
        state = engine_init(port, 0, _target_box(0), cfg)
        for t in (1, 2):
            _, state, rec = step(state, t, port, cfg)
            assert rec["gate"] == "history_overlap"
        assert len(state.neighbors) == 1
        calls = port.propose_calls
        box, state, rec = step(state, 3, port, cfg)
        assert rec["gate"] == "single_candidate" and rec["n_candidates"] == 2
        assert state.neighbors == ()
        assert box == _target_box(3)
        assert port.propose_calls == calls + 1  # the frame's own proposals only

    def test_step_requires_the_next_frame(self):
        port = ScriptPort(_two_lane_script())
        cfg = EngineConfig(use_kalman=False)
        state = engine_init(port, 0, _target_box(0), cfg)
        with pytest.raises(ValueError):
            step(state, 2, port, cfg)


class TestSoftSuppression:
    """Two proposals overlapping just above NMS_IOU: 13 x 4 boxes 7.7 apart.
    The decay takes a score of 0.8 to just above NMS_FLOOR and one of 0.65
    (still above ALPHA times 0.9) to just below it."""

    B0 = BBox(0.0, 0.0, 13.0, 4.0)
    NEAR = BBox(7.7, 0.0, 13.0, 4.0)

    def _step(self, score):
        port = ScriptPort({0: ((self.B0,), (0.9,)), 1: ((self.B0, self.NEAR), (0.9, score))})
        cfg = EngineConfig()
        state = engine_init(port, 0, self.B0, cfg)
        return step(state, 1, port, cfg)

    def test_decayed_box_is_kept_as_a_loser(self):
        ov = iou(self.B0, self.NEAR)
        assert ov > NMS_IOU
        decayed = 0.8 * math.exp(-(ov * ov) / NMS_SIGMA)
        assert decayed > NMS_FLOOR
        box, state, rec = self._step(0.8)
        assert rec["n_candidates"] == 3 and rec["kalman_index"] == 2
        assert rec["scores"] == [0.9, decayed, 0.0]
        assert rec["gate"] == "history_overlap" and rec["gate_overlap"] == 1.0
        assert box == self.B0
        assert state.neighbors == (Tracklet(1, (self.NEAR,)),)

    def test_box_decayed_below_the_floor_is_dropped(self):
        ov = iou(self.B0, self.NEAR)
        assert 0.65 > ALPHA * 0.9 and 0.65 * math.exp(-(ov * ov) / NMS_SIGMA) < NMS_FLOOR
        box, state, rec = self._step(0.65)
        assert rec["n_candidates"] == 2 and rec["kalman_index"] == 1
        assert rec["scores"] == [0.9, 0.0]
        assert rec["gate"] == "single_candidate" and rec["gate_overlap"] is None
        assert box == self.B0
        assert state.neighbors == ()


class TestFallbacks:
    """A script whose backtracks land nowhere near the target history."""

    def _script(self):
        return ScriptPort({
            0: ((BBox(300.0, 300.0, 10.0, 10.0),), (0.5,)),
            1: ((BBox(100.0, 100.0, 10.0, 10.0),
                 BBox(200.0, 200.0, 10.0, 10.0)), (0.9, 0.8)),
        })

    def test_no_kalman_degrades_to_argmax(self, caplog):
        port = self._script()
        cfg = EngineConfig(use_kalman=False)
        state = engine_init(port, 0, BBox(0.0, 0.0, 10.0, 10.0), cfg)
        with caplog.at_level(logging.WARNING, logger="retrack.engine"):
            box, state, rec = step(state, 1, port, cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "frame 1: no viable candidate, degrading to argmax"]
        assert rec["gate"] == "fired"
        assert rec["gate_overlap"] == 0.0
        assert rec["source"] == "degraded_argmax"
        assert rec["selected"] == rec["top"] == 0
        assert box == BBox(100.0, 100.0, 10.0, 10.0)
        assert rec["weights"] == [[0.0], [0.0]]
        assert rec["pairs"] == [[0, 0]]

    def test_kalman_box_rescues_when_no_overlap_evidence(self):
        port = self._script()
        cfg = EngineConfig()
        b0 = BBox(0.0, 0.0, 10.0, 10.0)
        state = engine_init(port, 0, b0, cfg)
        box, state, rec = step(state, 1, port, cfg)
        assert rec["gate"] == "fired"
        assert rec["source"] == "kalman_fallback"
        assert rec["selected"] == rec["kalman_index"] == 2
        assert rec["scores"][2] == 0.0
        # constant-velocity prediction from a standing start stays put
        assert box == b0


class TestSoloScene:
    def test_engine_reduces_to_baseline_when_unchallenged(self, solo):
        port = MockTracker(solo)
        frames = range(solo.length)
        b0 = solo.true_box(1, 0)
        base = run_baseline(port, frames, b0)
        got, records = run_sequence(MockTracker(solo), frames, b0, EngineConfig())
        assert got == base
        assert all(r["gate"] == "single_candidate" for r in records)
        assert all(r["source"] == "argmax" for r in records)
        assert all(r["weights"] is None for r in records)
        assert all(r["n_candidates"] == 2 for r in records)


class TestCrossingRescue:
    def test_engine_holds_target_where_baseline_switches(self):
        scene = generate_scene(ScenarioConfig("crossing"), 0)
        frames = range(scene.length)
        b0 = scene.true_box(1, 0)
        last = scene.length - 1
        base = run_baseline(MockTracker(scene), frames, b0)
        assert iou(base[-1], scene.true_box(1, last)) == 0.0
        assert iou(base[-1], scene.true_box(2, last)) > 0.5

        got, records = run_sequence(MockTracker(scene), frames, b0, EngineConfig())
        assert iou(got[-1], scene.true_box(1, last)) > 0.9
        fired = [r for r in records if r["gate"] == "fired"]
        assert fired
        assert any(r["source"] == "target_matched" for r in fired)
        for r in fired:
            assert len(r["weights"]) == r["n_candidates"]
            assert all(isinstance(p, list) and len(p) == 2 for p in r["pairs"])

    def test_rescue_does_not_need_the_motion_box(self):
        scene = generate_scene(ScenarioConfig("crossing"), 0)
        frames = range(scene.length)
        b0 = scene.true_box(1, 0)
        cfg = EngineConfig(use_kalman=False)
        got, records = run_sequence(MockTracker(scene), frames, b0, cfg)
        assert iou(got[-1], scene.true_box(1, scene.length - 1)) > 0.9
        assert all(r["kalman_index"] is None for r in records)


class TestZeroOverlapOcclusion:
    """Full scene blackout: only the motion prior bridges the gap."""

    def test_kalman_bridges_and_plain_argmax_is_hijacked(self):
        scene = zero_iou_scene()
        frames = range(scene.length)
        b0 = scene.true_box(2, 0)
        gt_last = scene.true_box(2, scene.length - 1)

        base = run_baseline(MockTracker(scene), frames, b0)
        assert iou(base[-1], gt_last) == 0.0

        on, rec_on = run_sequence(MockTracker(scene), frames, b0, EngineConfig())
        assert iou(on[-1], gt_last) > 0.9
        assert iou(on[20], scene.true_box(2, 20)) > 0.9
        blackout = rec_on[19]
        assert blackout["frame"] == 20
        assert blackout["gate"] == "fired"
        assert blackout["source"] == "kalman_fallback"
        assert blackout["selected"] == blackout["kalman_index"]
        assert rec_on[20]["gate"] == "single_candidate"
        assert all(r["source"] != "degraded_argmax" for r in rec_on)

        off, rec_off = run_sequence(MockTracker(scene), frames, b0,
                                    EngineConfig(use_kalman=False))
        assert iou(off[-1], gt_last) == 0.0
        hijack = rec_off[19]
        assert hijack["source"] == "degraded_argmax"
        assert hijack["selected"] == hijack["top"] == 0


class TestRunners:
    def test_sequences_must_be_consecutive(self):
        port = ScriptPort(_two_lane_script())
        b0 = _target_box(0)
        for frames in ([], [0, 2, 3], [2, 1, 0]):
            with pytest.raises(ValueError):
                run_sequence(port, frames, b0, EngineConfig(use_kalman=False))
            with pytest.raises(ValueError):
                run_baseline(port, frames, b0)

    @pytest.mark.parametrize("frames", [[2, 1, 0], range(2, -1, -1)])
    def test_a_descending_run_names_its_frames(self, frames):
        # a range passes the segment check as it is; the message lists it
        port = ScriptPort(_two_lane_script())
        for run in (lambda: run_sequence(port, frames, _target_box(0), EngineConfig()),
                    lambda: run_baseline(port, frames, _target_box(0))):
            with pytest.raises(ValueError) as caught:
                run()
            assert str(caught.value) == "frames must ascend, got [2, 1, 0]"

    def test_single_frame_run_returns_the_anchor(self):
        port = ScriptPort(_two_lane_script())
        b0 = _target_box(0)
        boxes, records = run_sequence(port, [0], b0, EngineConfig())
        assert boxes == [b0]
        assert records == []
        assert run_baseline(port, [0], b0) == [b0]

    def test_record_per_stepped_frame(self):
        port = ScriptPort(_two_lane_script())
        cfg = EngineConfig(use_kalman=False)
        boxes, records = run_sequence(port, range(6), _target_box(0), cfg)
        assert len(boxes) == 6
        assert [r["frame"] for r in records] == [1, 2, 3, 4, 5]
        assert [list(b.as_tuple()) for b in boxes[1:]] == [r["box"] for r in records]

    def test_backtracking_stays_after_the_anchor(self):
        scene = generate_scene(ScenarioConfig("crossing"), 3)
        port = ForwardingPort(MockTracker(scene))
        frames = range(30, scene.length)
        b0 = scene.true_box(1, 30)
        boxes, records = run_sequence(WindowPort(port), frames, b0, EngineConfig())
        # the first stepped frame already backtracks, from frame 30 only
        assert records[0]["gate"] == "history_overlap"
        assert min(port.proposed) == 30
        assert run_sequence(MockTracker(scene), frames, b0, EngineConfig()) == \
            (boxes, records)

    @pytest.mark.parametrize("anchor", [0, 30])
    @pytest.mark.parametrize("tau", [1, 9, 27])
    def test_each_backtrack_covers_the_window(self, anchor, tau):
        """Every `track_segment` call of `step(t)` runs from t - 1 down to
        the older of t - tau and the anchor frame, and no further."""
        scene = generate_scene(ScenarioConfig("crossing"), 3)
        port = RecordingPort(MockTracker(scene))
        cfg = EngineConfig(tau=tau)
        state = engine_init(port, anchor, scene.true_box(1, anchor), cfg)
        depths = set()
        for t in range(anchor + 1, scene.length):
            port.segments.clear()
            _, state, _ = step(state, t, port, cfg)
            want = list(range(t - 1, max(t - tau, anchor) - 1, -1))
            assert all(frames == want for frames in port.segments), t
            depths.update(len(frames) for frames in port.segments)
        # the run backtracks, and the anchor cuts its first windows short
        assert depths
        assert tau == 1 or min(depths) < tau

    def test_window_port_fails_each_call_outside_the_window(self):
        scene = generate_scene(ScenarioConfig("crossing"), 3)
        port, b0 = WindowPort(MockTracker(scene)), scene.true_box(1, 30)
        anchor = port.make_template(30, b0)
        with pytest.raises(AssertionError, match="step to frame 32 after frame 30"):
            port.propose(anchor, 32, b0)
        port.propose(anchor, 31, b0)
        template = port.make_template(31, b0)
        port.propose(template, 30, b0)
        port.track_segment(template, b0, range(30, 32))
        outside = "outside the window \\[30, 31\\]"
        for call in (lambda: port.make_template(29, b0), lambda: port.make_template(32, b0),
                     lambda: port.propose(template, 29, b0),
                     lambda: port.propose(template, 32, b0),
                     lambda: port.track_segment(template, b0, [30, 29]),
                     lambda: port.track_segment(template, b0, [31, 32])):
            with pytest.raises(AssertionError, match=outside):
                call()


class BoxingPort(TrackerPort):
    """Boxes each of the inner port's templates in a fresh object and
    unboxes it in `propose` and `track_segment`: no two handles are equal
    or share fields with the inner port's, so an engine that read or
    compared templates would decide differently through it."""

    class Boxed:
        __slots__ = ("inner",)

        def __init__(self, inner):
            self.inner = inner

    def __init__(self, inner: TrackerPort):
        self.inner = inner

    def make_template(self, frame, box):
        return self.Boxed(self.inner.make_template(frame, box))

    def propose(self, template, frame, prior):
        return self.inner.propose(template.inner, frame, prior)

    def track_segment(self, template, start, frames):
        return self.inner.track_segment(template.inner, start, frames)


@pytest.mark.parametrize("kind, seed, target", [("crossing", 3, 1), ("convoy", 103, 1),
                                               ("zero_iou", 0, 2)])
def test_engine_treats_a_template_as_opaque(kind, seed, target):
    scene = (zero_iou_scene(seed) if kind == "zero_iou"
             else generate_scene(ScenarioConfig(kind), seed))
    frames = range(scene.length)
    b0 = scene.true_box(target, 0)
    boxed = BoxingPort(MockTracker(scene))
    assert run_sequence(boxed, frames, b0, EngineConfig()) == \
        run_sequence(MockTracker(scene), frames, b0, EngineConfig())
    assert run_baseline(boxed, frames, b0) == run_baseline(MockTracker(scene), frames, b0)


@pytest.mark.parametrize("kind, seed", [("crossing", 3), ("convoy", 103), ("deform", 3)])
def test_lean_chain_gives_the_base_chain_run(kind, seed):
    scene = generate_scene(ScenarioConfig(kind), seed)
    frames = range(scene.length)
    b0 = scene.true_box(1, 0)
    lean = run_sequence(MockTracker(scene), frames, b0, EngineConfig())
    chained = run_sequence(ForwardingPort(MockTracker(scene)), frames, b0, EngineConfig())
    assert lean == chained


@pytest.mark.parametrize("kind, seed", [("crossing", 3), ("convoy", 103), ("deform", 3)])
def test_baseline_is_the_forward_chain(kind, seed, monkeypatch):
    scene = generate_scene(ScenarioConfig(kind), seed)
    frames = range(scene.length)
    b0 = scene.true_box(1, 0)
    port = MockTracker(scene)
    proposed = []

    def counting(template, frame, prior):
        proposed.append(frame)
        return MockTracker.propose(port, template, frame, prior)

    monkeypatch.setattr(port, "propose", counting)
    lean = run_baseline(port, frames, b0)
    # the mock's lean chain scores proposals without asking `propose`
    assert proposed == []
    chained = ForwardingPort(MockTracker(scene))
    assert run_baseline(chained, frames, b0) == lean
    assert chained.proposed == list(frames[1:])


@pytest.mark.parametrize("kind, seed", [("crossing", 3), ("convoy", 103)])
def test_gate_overlap_is_the_argmax_target_weight(kind, seed):
    scene = generate_scene(ScenarioConfig(kind), seed)
    _, records = run_sequence(MockTracker(scene), range(scene.length),
                              scene.true_box(1, 0), EngineConfig())
    fired = [r for r in records if r["gate"] == "fired"]
    assert fired
    for r in fired:
        assert r["weights"][r["top"]][-1] == r["gate_overlap"]


@pytest.mark.parametrize("tau", [9, 1], ids=["default", "tau1"])
@pytest.mark.parametrize("kind, seed", [("crossing", 3), ("convoy", 103), ("deform", 3)])
def test_neighbors_end_at_the_frame_within_tau(kind, seed, tau):
    scene = generate_scene(ScenarioConfig(kind), seed)
    port = MockTracker(scene)
    cfg = EngineConfig(tau=tau)
    state = engine_init(port, 0, scene.true_box(1, 0), cfg)
    longest = 0
    for t in range(1, scene.length):
        _, state, _ = step(state, t, port, cfg)
        assert state.target.end_frame == t
        for tr in state.neighbors:
            assert tr.end_frame == t and len(tr) <= tau, t
            longest = max(longest, len(tr))
    assert longest == tau  # some neighbor history grew to the cap
