"""Scene scripting, the scene-backed mock tracker, and MOT file I/O."""
import logging
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from conformance import check_port, check_rejects
from conftest import zero_iou_scene
from oracles import mock_score
from retrack.engine import EngineConfig, run_baseline, run_sequence
from retrack.evalkit import EvalReport
from retrack.geometry import BBox, iou
from retrack.simworld import (SCENARIO_IDS, SCENARIOS, SEARCH_RADIUS_SCALE, STATIC,
                              MockTracker, MotFormatError, ObjectSpec, OcclusionEvent,
                              ScenarioConfig, Scene, _tapered_occlusion, _unit_with_cosine,
                              _visibility_to_events, generate_scene, load_mot, mot_scene,
                              parse_mot, save_mot)

DIM = 4
E0 = (1.0, 0.0, 0.0, 0.0)
E1 = (0.0, 1.0, 0.0, 0.0)
WALL = (0.0, 0.0, 1.0, 0.0)


def _static(cx, cy, size=10.0, length=6):
    """The boxes of an object that stands centred on (cx, cy) for `length` frames."""
    return (BBox(cx - size / 2.0, cy - size / 2.0, size, size),) * length


def _scene(objects, length=6, **kw):
    kw.setdefault("static_appearance", WALL)
    return Scene(length, 0, tuple(objects), **kw)


class TestOcclusionEvent:
    def test_active_is_inclusive(self):
        ev = OcclusionEvent(3, 5, STATIC, 0.5)
        assert not ev.active(2)
        assert ev.active(3)
        assert ev.active(5)
        assert not ev.active(6)

    def test_validation(self):
        with pytest.raises(ValueError):
            OcclusionEvent(5, 3, STATIC, 0.5)
        with pytest.raises(ValueError):
            OcclusionEvent(0, 1, STATIC, 0.0)
        with pytest.raises(ValueError):
            OcclusionEvent(0, 1, STATIC, 1.5)
        assert OcclusionEvent(0, 0, STATIC, 1.0).severity == 1.0


class TestObjectSpec:
    def test_drift_spikes_override_base_rate(self):
        obj = ObjectSpec(1, _static(0, 0), E0, drift=0.01,
                         drift_spikes=((4, 6, 0.2),))
        assert obj.drift_at(3) == 0.01
        assert obj.drift_at(4) == 0.2
        assert obj.drift_at(6) == 0.2
        assert obj.drift_at(7) == 0.01


class TestScene:
    def test_objects_sorted_by_id_and_ids_unique(self):
        a = ObjectSpec(2, _static(0, 0), E0)
        b = ObjectSpec(1, _static(50, 0), E1)
        scene = _scene([a, b])
        assert scene.ids() == [1, 2]
        with pytest.raises(ValueError):
            _scene([a, ObjectSpec(2, _static(9, 9), E1)])
        with pytest.raises(ValueError):
            _scene([a], length=0)

    def test_visibility_tracks_strongest_active_event(self):
        obj = ObjectSpec(1, _static(0, 0), E0,
                         occlusions=(OcclusionEvent(0, 4, STATIC, 0.25),
                                     OcclusionEvent(2, 3, STATIC, 0.5)))
        scene = _scene([obj])
        assert scene.visibility(1, 0) == 0.75
        assert scene.visibility(1, 2) == 0.5
        assert scene.visibility(1, 5) == 1.0

    def test_static_occlusion_mixes_toward_wall(self):
        obj = ObjectSpec(1, _static(0, 0), E0,
                         occlusions=(OcclusionEvent(2, 3, STATIC, 0.25),))
        scene = _scene([obj])
        np.testing.assert_array_equal(scene.effective_appearance(1, 0),
                                      np.asarray(E0))
        norm = math.hypot(0.75, 0.25)
        eff = scene.effective_appearance(1, 2)
        assert eff[0] == pytest.approx(0.75 / norm, rel=1e-12)
        assert eff[2] == pytest.approx(0.25 / norm, rel=1e-12)
        assert np.linalg.norm(eff) == pytest.approx(1.0, rel=1e-12)

    def test_object_occluder_mixes_toward_that_object(self):
        target = ObjectSpec(1, _static(0, 0), E0,
                            occlusions=(OcclusionEvent(1, 1, 2, 0.5),))
        other = ObjectSpec(2, _static(50, 0), E1)
        scene = _scene([target, other])
        eff = scene.effective_appearance(1, 1)
        assert eff[0] == pytest.approx(eff[1], rel=1e-12)
        assert eff[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_wall_appearance_derived_deterministically(self):
        obj = ObjectSpec(1, _static(0, 0, length=4), E0)
        one = Scene(4, 9, (obj,))
        two = Scene(4, 9, (obj,))
        assert one.static_appearance == two.static_appearance
        assert np.linalg.norm(one.static_appearance) == pytest.approx(1.0)

    def test_drift_walk_is_deterministic_and_unit_norm(self):
        obj = ObjectSpec(1, _static(0, 0, length=10), E0, drift=0.1)
        one, two = _scene([obj], length=10), _scene([obj], length=10)
        for f in range(10):
            a = one.effective_appearance(1, f)
            np.testing.assert_array_equal(a, two.effective_appearance(1, f))
            assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert not np.array_equal(one.effective_appearance(1, 0),
                                  one.effective_appearance(1, 9))

    def test_zero_drift_appearance_is_constant(self):
        scene = _scene([ObjectSpec(1, _static(0, 0), E0)])
        for f in range(scene.length):
            np.testing.assert_array_equal(scene.effective_appearance(1, f),
                                          np.asarray(E0))


class TestSceneSerialization:
    """A scene is built from specs, which a generator or a MOT file hands
    over; a spec no scene can use fails when it is built."""

    @staticmethod
    def _objects():
        target = ObjectSpec(1, _static(10.0, 20.0, size=8.0, length=8), E0, drift=0.05,
                            drift_spikes=((2, 4, 0.3),),
                            occlusions=(OcclusionEvent(1, 3, STATIC, 0.25),
                                        OcclusionEvent(5, 5, 2, 0.5)))
        return target, ObjectSpec(2, _static(100, 100, length=8), E1)

    @pytest.mark.parametrize("change, message", [
        ("short_frames", "object 2: its path holds 7 boxes, the scene 8 frames"),
        ("long_frames", "object 2: its path holds 9 boxes, the scene 8 frames"),
        ("unknown_occluder", "object 1: occluder 3 is neither"),
        ("static_dimension", "static_appearance has dimension 3, object 1"),
        ("object_dimension", "object 2: appearance of shape \\(3,\\), not \\(4,\\)"),
        ("object_zero", "object 2: appearance must be finite and not all zero"),
        ("object_nan", "object 1: appearance must be finite and not all zero"),
        ("static_zero", "static_appearance must be finite and not all zero"),
        ("static_nan", "static_appearance must be finite and not all zero"),
        ("mix_cancels", "object 1: the occlusion at frame 5 mixes its appearance to zero"),
        ("drift_nan", "object 1: drift must be finite and >= 0, got nan"),
        ("drift_negative", "object 2: drift must be finite and >= 0, got -0.01"),
        ("spike_nan", "object 1: drift_spikes rate must be finite and >= 0, got nan"),
        ("spike_negative", "object 1: drift_spikes rate must be finite and >= 0, got -0.3"),
        ("spike_reversed", "object 1: drift_spikes window 4..2 ends before it starts"),
    ], ids=["short_frames", "long_frames", "unknown_occluder", "static_dimension",
            "object_dimension", "object_zero", "object_nan", "static_zero",
            "static_nan", "mix_cancels", "drift_nan", "drift_negative", "spike_nan",
            "spike_negative", "spike_reversed"])
    def test_bad_spec_fails_when_built(self, change, message):
        """Unchecked, each would fail later with an error that names no
        object, mid-run with a NaN score, or run silently on a truncated
        path."""
        target, other = self._objects()
        wall = WALL
        with pytest.raises(ValueError, match=message):
            if change.endswith("_frames"):
                n = 7 if change == "short_frames" else 9
                other = replace(other, boxes=(BBox(95.0, 95.0, 10.0, 10.0),) * n)
            elif change == "unknown_occluder":
                first, second = target.occlusions
                target = replace(target, occlusions=(first, replace(second, occluder=3)))
            elif change == "static_dimension":
                wall = WALL[:3]
            elif change == "object_dimension":
                other = replace(other, appearance=other.appearance[:3])
            elif change == "object_zero":
                other = replace(other, appearance=(0.0,) * DIM)
            elif change == "object_nan":
                target = replace(target, appearance=(1.0, math.nan, 0.0, 0.0))
            elif change == "static_zero":
                wall = (0.0,) * DIM
            elif change == "static_nan":
                wall = WALL[:3] + (math.nan,)
            elif change == "drift_nan":
                target = replace(target, drift=math.nan)
            elif change == "drift_negative":
                other = replace(other, drift=-0.01)
            elif change.startswith("spike_"):
                start, end, rate = target.drift_spikes[0]
                spike = {"spike_nan": (start, end, math.nan),
                         "spike_negative": (start, end, -rate),
                         "spike_reversed": (end, start, rate)}[change]
                target = replace(target, drift_spikes=(spike,))
            else:  # object 2 occludes object 1 at half strength over frame 5
                target = replace(target, drift=0.0, drift_spikes=())
                other = replace(other, appearance=tuple(-v for v in target.appearance))
            _scene([target, other], length=8, static_appearance=wall)


class TestSceneTables:
    """`Scene._tables` maps each id, in id order, to the object's tables;
    the mock tracker's range test reads its centre columns in place of
    `BBox.cx` and `BBox.cy`, so they must agree bit for bit. Appearance
    columns index `Scene._appearances`, which holds each row once."""

    @staticmethod
    def _scene(source, tmp_path):
        if source in ("crossing", "convoy", "deform"):
            return generate_scene(ScenarioConfig(source), 7)
        save_mot(generate_scene(ScenarioConfig("convoy"), 103), tmp_path / "gt.txt")
        return load_mot(tmp_path / "gt.txt", seed=103)

    @pytest.mark.parametrize("source", ["crossing", "convoy", "deform", "mot"])
    def test_one_table_per_id_serves_every_query(self, source, tmp_path):
        scene = self._scene(source, tmp_path)
        assert list(scene._tables) == scene.ids()
        for row, (obj_id, table) in enumerate(scene._tables.items()):
            # the table holds the spec's own boxes, not a copy
            assert table.boxes is scene.objects[row].boxes
            assert len(table.boxes) == len(table.visibility) == len(table.appearance) \
                == scene.length
            for f, box in enumerate(table.boxes):
                assert box == scene.true_box(obj_id, f)
                assert table.visibility[f] == scene.visibility(obj_id, f)
                assert 0 <= table.appearance[f] < len(scene._appearances)
                np.testing.assert_array_equal(scene._appearances[table.appearance[f]],
                                              scene.effective_appearance(obj_id, f))
            # evaluation's box array holds the same boxes, objects in id order
            assert scene._box_array[row].tolist() == [list(b.as_tuple()) for b in table.boxes]
        rows = [r.tobytes() for r in scene._appearances]
        assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("source", ["crossing", "convoy", "deform", "mot"])
    def test_centre_columns_equal_box_centres(self, source, tmp_path):
        scene = self._scene(source, tmp_path)
        for boxes, _vis, _eff, cxs, cys in scene._tables.values():
            assert len(cxs) == len(cys) == scene.length
            for f, box in enumerate(boxes):
                assert cxs[f].hex() == box.cx.hex()
                assert cys[f].hex() == box.cy.hex()


class TestMockTracker:
    def _world(self):
        near = ObjectSpec(1, _static(135.0, 20.0, length=4), E0)  # 120 px from prior
        far = ObjectSpec(2, _static(145.0, 20.0, length=4), E1)   # 130 px, out of range
        return _scene([near, far], length=4)

    def test_search_radius_gates_proposals(self):
        scene = self._world()
        tracker = MockTracker(scene)
        prior = BBox(0.0, 0.0, 30.0, 40.0)  # diagonal 50, radius 125
        tpl = tracker.make_template(0, scene.true_box(1, 0))
        got = tracker.propose(tpl, 1, prior)
        assert got.boxes == (scene.true_box(1, 1),)
        assert got.scores == (1.0,)

    def test_prior_returned_when_nothing_in_range(self):
        scene = self._world()
        tracker = MockTracker(scene)
        prior = BBox(400.0, 400.0, 10.0, 10.0)
        tpl = tracker.make_template(0, scene.true_box(1, 0))
        got = tracker.propose(tpl, 1, prior)
        assert got.boxes == (prior,)
        assert got.scores == (0.0,)

    def test_score_is_visibility_times_cosine(self):
        obj = ObjectSpec(1, _static(20.0, 20.0), E0,
                         occlusions=(OcclusionEvent(2, 2, STATIC, 0.25),))
        scene = _scene([obj])
        tracker = MockTracker(scene)
        tpl = tracker.make_template(0, scene.true_box(1, 0))
        got = tracker.propose(tpl, 2, scene.true_box(1, 1))
        norm = math.hypot(0.75, 0.25)
        assert got.scores[0] == pytest.approx(0.75 * 0.75 / norm, rel=1e-12)

    def test_template_over_empty_region_scores_zero(self):
        scene = self._world()
        tracker = MockTracker(scene)
        tpl = tracker.make_template(0, BBox(300.0, 300.0, 10.0, 10.0))
        got = tracker.propose(tpl, 1, scene.true_box(1, 0))
        assert got.boxes
        assert set(got.scores) == {0.0}

    def test_frame_bounds_validated(self):
        scene = self._world()
        tracker = MockTracker(scene)
        with pytest.raises(ValueError):
            tracker.make_template(4, scene.true_box(1, 0))
        tpl = tracker.make_template(0, scene.true_box(1, 0))
        with pytest.raises(ValueError):
            tracker.propose(tpl, 4, scene.true_box(1, 0))

    def test_port_frames_count_backbone_passes(self):
        scene = self._world()
        tracker = MockTracker(scene)
        tpl = tracker.make_template(0, scene.true_box(1, 0))
        assert tracker.port_frames == 0
        tracker.propose(tpl, 1, scene.true_box(1, 0))
        assert tracker.port_frames == 1
        tracker.track_segment(tpl, scene.true_box(1, 3), [3, 2, 1])
        assert tracker.port_frames == 4
        assert MockTracker(scene).port_frames == 0


class TestConformance:
    """`MockTracker`'s lean `track_segment` against the port contract: the
    same tracklets as the base class's chaining of `propose` calls."""

    FAR = BBox(-3000.0, -3000.0, 40.0, 40.0)  # no object ever in range

    @staticmethod
    def _starts(port, scene, frame):
        """A start at each object's box and at `FAR`, each with the template
        cropped there, and one from the first object's box with the template
        cropped at `FAR`: empty ground, so every object in range scores zero
        and each step's tie goes to the first proposal."""
        far = TestConformance.FAR
        boxes = [scene.true_box(i, frame) for i in scene.ids()] + [far]
        return [(port.make_template(frame, b), b) for b in boxes] + \
            [(port.make_template(frame, far), boxes[0])]

    @pytest.mark.parametrize("frames", [range(29, 20, -1), range(31, 40)],
                             ids=["backward", "forward"])
    @pytest.mark.parametrize("kind, seed", [("crossing", 3), ("convoy", 103),
                                            ("deform", 3), ("zero_iou", 0)])
    def test_lean_chain_conforms(self, kind, seed, frames):
        # the zero-IoU scene's frames 20-38 are blacked out: every score
        # there is exactly zero and the first object in range wins the tie
        scene = (zero_iou_scene(seed) if kind == "zero_iou"
                 else generate_scene(ScenarioConfig(kind), seed))
        port = MockTracker(scene)
        starts = self._starts(port, scene, 30)
        got, _ = check_port(port, starts, [frames, [frames[0]]])
        assert len(got) == len(starts) == 4
        # nothing in range and nothing cropped: the far chain coasts on its
        # start, proposed back as the prior at score zero
        assert got[2].boxes == (self.FAR,) * len(frames)

    def test_frames_checked(self):
        scene = generate_scene(ScenarioConfig("convoy"), 103)
        port = MockTracker(scene)
        n = scene.length
        for template, start in self._starts(port, scene, 2):
            check_rejects(port, template, start,
                          outside=[range(1, -2, -1), range(n - 2, n + 1)])


class TestMockScores:
    """`propose` scores, bit for bit, against `oracles.mock_score`, which
    rebuilds each effective appearance from the scene's specs."""

    @staticmethod
    def _scene(source, tmp_path):
        if source != "mot":
            return generate_scene(ScenarioConfig(source), 7)
        # a visibility of its own at every frame: a distinct row per frame
        rows = [f"{f + 1},{i},{100.0 + 3 * f!r},{y!r},40.0,40.0,1,1,{vis!r}"
                for f in range(40)
                for i, y, vis in ((1, 200.0, 1.0 - f / 64), (2, 250.0, 1.0 - (f % 4) / 8))]
        (tmp_path / "gt.txt").write_text("\n".join(rows) + "\n")
        scene = load_mot(tmp_path / "gt.txt", seed=7)
        assert len(scene._appearances) >= 40
        return scene

    @pytest.mark.parametrize("source", ["crossing", "convoy", "deform", "mot"])
    def test_propose_scores_equal_the_oracle(self, source, tmp_path):
        scene = self._scene(source, tmp_path)
        port, n = MockTracker(scene), scene.length
        crops = [(i, c) for i in scene.ids() for c in (0, n // 3, n // 2, n - 1)]
        for crop in [*crops, None]:
            if crop is None:
                template = port.make_template(0, TestConformance.FAR)
            else:
                assert scene.dominant_object(scene.true_box(*crop), crop[1]) == crop[0]
                template = port.make_template(crop[1], scene.true_box(*crop))
            for f in range(n):
                # a prior on each object's box keeps every object in range somewhere
                for prior in (scene.true_box(i, f) for i in scene.ids()):
                    radius = SEARCH_RADIUS_SCALE * math.hypot(prior.w, prior.h)
                    near = [i for i in scene.ids() if math.hypot(
                        prior.cx - scene.true_box(i, f).cx,
                        prior.cy - scene.true_box(i, f).cy) <= radius]
                    got = port.propose(template, f, prior)
                    assert got.boxes == tuple(scene.true_box(i, f) for i in near)
                    assert [s.hex() for s in got.scores] == \
                        [mock_score(scene, crop, i, f).hex() for i in near], (crop, f)


@pytest.mark.parametrize("kind, seed", [("crossing", 3), ("convoy", 103), ("deform", 3)])
def test_a_warm_port_decides_as_a_fresh_one(kind, seed):
    """The cosines a port keeps from one run change nothing in the next."""
    scene = generate_scene(ScenarioConfig(kind), seed)
    frames, b0, cfg = range(scene.length), scene.true_box(1, 0), EngineConfig()
    attributes = set(vars(scene))
    port = MockTracker(scene)
    first = run_sequence(port, frames, b0, cfg)
    assert any(port._templates.values())
    assert run_sequence(port, frames, b0, cfg) == first
    assert run_sequence(MockTracker(scene), frames, b0, cfg) == first
    assert MockTracker(scene)._templates == {}
    assert set(vars(scene)) == attributes  # the scene holds no cosines
    check_port(port, TestConformance._starts(port, scene, 30),
               [range(29, 20, -1), range(31, 40)])


class TestDominantObject:
    def test_no_overlap_gives_none(self):
        scene = _scene([ObjectSpec(1, _static(20.0, 20.0), E0)])
        assert scene.dominant_object(BBox(300.0, 300.0, 10.0, 10.0), 0) is None
        # sharing only an edge is no overlap either
        assert scene.dominant_object(BBox(25.0, 15.0, 10.0, 10.0), 0) is None

    def test_largest_overlap_wins_and_a_tie_goes_to_the_lower_id(self):
        scene = _scene([ObjectSpec(3, _static(20.0, 20.0), E0),
                        ObjectSpec(1, _static(40.0, 20.0), E1),
                        ObjectSpec(2, _static(20.0, 20.0), E1)])
        assert scene.dominant_object(BBox(15.0, 15.0, 10.0, 10.0), 0) == 2
        assert scene.dominant_object(BBox(34.0, 15.0, 10.0, 10.0), 0) == 1
        # straddles the boxes centred at x 20 (ids 2, 3) and x 40 (id 1)
        # with an equal overlap, 0.2, on each
        wide = BBox(20.0, 15.0, 20.0, 10.0)
        assert iou(wide, scene.true_box(1, 0)) == iou(wide, scene.true_box(3, 0)) == 0.2
        assert scene.dominant_object(wide, 0) == 1

    def test_agrees_with_a_direct_overlap_scan_and_id_switches(self):
        scene = generate_scene(ScenarioConfig("crossing"), 3)
        port = MockTracker(scene)
        pred = run_baseline(port, range(scene.length), scene.true_box(1, 0))
        owners = []
        for f, box in enumerate(pred):
            overlaps = [(iou(box, scene.true_box(i, f)), -i) for i in scene.ids()]
            best, neg_id = max(overlaps)
            owners.append(-neg_id if best > 0.0 else None)
            assert scene.dominant_object(box, f) == owners[-1]
        # the baseline is hijacked by the distractor at the crossing
        assert set(owners) == {1, 2}
        changes = sum(a != b for a, b in zip([1] + owners, owners))
        assert EvalReport.compute(pred, scene, 1).id_switches == changes >= 1


class TestAppearanceHelpers:
    def test_unit_with_cosine_hits_exact_target(self):
        rng = np.random.default_rng(0)
        u = np.zeros(8)
        u[0] = 1.0
        for c in (0.0, 0.5, 0.72, 1.0):
            v = _unit_with_cosine(rng, u, c)
            assert float(np.dot(u, v)) == pytest.approx(c, abs=1e-12)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


class TestTaperedOcclusion:
    def test_ladder_steps_down_one_frame_at_a_time(self):
        sev = 72.0 / 256
        events = _tapered_occlusion(10, 20, sev)
        assert events[0] == OcclusionEvent(10, 20, STATIC, sev)
        assert len(events) == 9
        for i, ev in enumerate(events[1:]):
            assert ev.start == ev.end == 21 + i
            assert ev.severity == (64.0 - 8.0 * i) / 256
        assert events[-1].severity == 8.0 / 256


class TestScenarioGeneration:
    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_every_scene_has_the_scenario_ids(self, kind):
        for seed in range(5):
            assert generate_scene(ScenarioConfig(kind), seed).ids() == list(SCENARIO_IDS)

    def test_generation_is_deterministic(self):
        for kind in ("crossing", "convoy", "deform"):
            cfg = ScenarioConfig(kind)
            a, b = generate_scene(cfg, 5), generate_scene(cfg, 5)
            assert a.objects == b.objects
            assert a.static_appearance == b.static_appearance
            assert a._tables == b._tables
            np.testing.assert_array_equal(a._appearances, b._appearances)

    def test_crossing_structure(self):
        cfg = ScenarioConfig("crossing")
        scene = generate_scene(cfg, 3)
        assert scene.ids() == [1, 2]
        target, distractor = scene.objects
        assert target.occlusions and not distractor.occlusions
        sev = target.occlusions[0].severity
        assert sev * 256 == int(sev * 256)  # dyadic grid
        assert cfg.severity[0] <= sev <= cfg.severity[1]
        # lanes meet mid-sequence at three quarters of a box apart, close
        # enough to confuse an argmax tracker but too far to be suppressed
        t_meet = int(cfg.length * 0.42)
        pair_iou = iou(scene.true_box(1, t_meet), scene.true_box(2, t_meet))
        assert pair_iou == pytest.approx(1.0 / 7.0)
        assert pair_iou < 0.25

    def test_convoy_lanes_never_overlap(self):
        scene = generate_scene(ScenarioConfig("convoy"), 4)
        assert scene.objects[0].occlusions
        for f in range(scene.length):
            assert iou(scene.true_box(1, f), scene.true_box(2, f)) == 0.0

    def test_deform_uses_drift_spike_not_occlusion(self):
        scene = generate_scene(ScenarioConfig("deform"), 4)
        target = scene.objects[0]
        assert target.drift_spikes and not target.occlusions
        start, end, rate = target.drift_spikes[0]
        assert 20 <= start < 27 and rate == 0.12

    @pytest.mark.parametrize("kind, change, message", [
        ("drift", {}, "kind must be one of .*crossing.*convoy.*deform.*, got 'drift'"),
        ("crossing", {"length": 28}, "length must be an integer >= 29, got 28"),
        ("convoy", {"length": 18}, "length must be an integer >= 19, got 18"),
        ("deform", {"length": 27}, "length must be an integer >= 28, got 27"),
        ("convoy", {"length": 0}, "length must be an integer >= 19, got 0"),
        ("convoy", {"length": True}, "length must be an integer"),
        ("convoy", {"appearance_dim": 1}, "appearance_dim must be an integer >= 3"),
        ("deform", {"appearance_dim": 2}, "appearance_dim must be an integer >= 3, got 2"),
        ("convoy", {"box_size": 0.0}, "box_size must be finite and > 0"),
        ("convoy", {"box_size": False}, "box_size must be finite and > 0"),
        ("convoy", {"drift": -0.1}, "drift must be finite and >= 0"),
        ("convoy", {"drift": math.inf}, "drift must be finite and >= 0"),
        ("convoy", {"similarity": [0.5, 0.6]}, "similarity must be a pair"),
        ("convoy", {"bounds": (512.0, math.inf)}, "bounds must be a pair of finite"),
        ("convoy", {"bounds": (512.0, 0.0)}, "bounds must be > 0"),
        ("convoy", {"lane_gap": (75.0, 55.0)}, "lane_gap must be an ordered range"),
        ("convoy", {"similarity": (-1.5, 0.5)}, "similarity must be within \\[-1, 1\\]"),
        ("convoy", {"severity": (0.0, 0.1)}, "severity must be within \\(0, 1\\]"),
        ("convoy", {"severity": (0.9, 1.5)}, "severity must be within \\(0, 1\\]"),
        ("convoy", {"speed": (-1.0, 2.0)}, "speed must be > 0"),
    ], ids=["kind_unknown", "crossing_length_28", "convoy_length_18", "deform_length_27",
            "length_0", "length_bool", "appearance_dim_1",
            "appearance_dim_2", "box_size_0", "box_size_bool", "drift_negative", "drift_inf",
            "similarity_list",
            "bounds_inf", "bounds_0", "lane_gap_reversed", "similarity_below_-1",
            "severity_from_0", "severity_above_1", "speed_negative"])
    def test_bad_config_fails_when_built(self, kind, change, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(kind, **change)

    @pytest.mark.parametrize("kind, change", [
        ("crossing", {"length": 29}), ("convoy", {"length": 19}), ("deform", {"length": 28}),
        ("deform", {"appearance_dim": 3}), ("convoy", {"similarity": (-1.0, 1.0)}),
        ("convoy", {"severity": (0.5, 0.5)}), ("crossing", {"speed": (2.0, 2.0)}),
    ], ids=["crossing_length_29", "convoy_length_19", "deform_length_28",
            "appearance_dim_3", "similarity_full",
            "severity_one_point", "speed_one_point"])
    def test_edge_configs_generate(self, kind, change):
        for seed in range(5):
            generate_scene(ScenarioConfig(kind, **change), seed)

    @pytest.mark.parametrize("kind, length", [("crossing", 29), ("convoy", 19),
                                              ("deform", 28)])
    def test_shortest_scene_carries_its_event(self, kind, length):
        """At its kind's minimum length, every scene holds its scripted
        event: an occlusion frame with visibility below 1, or a frame whose
        appearance the drift spike changed."""
        cfg = ScenarioConfig(kind, length=length)
        for seed in range(50):
            scene = generate_scene(cfg, seed)
            target = scene.objects[0]
            if kind == "deform":
                start = target.drift_spikes[0][0]
                before, after = (scene.effective_appearance(1, f) for f in (start, start + 1))
                assert float(np.abs(after - before).max()) > 1e-9, seed
            else:
                start = target.occlusions[0].start
                assert start >= 0 and scene.visibility(1, start) < 1.0, seed

    @pytest.mark.parametrize("kind", ["crossing", "convoy", "deform"])
    def test_wall_is_orthogonal_at_three_dimensions(self, kind):
        cfg = ScenarioConfig(kind, appearance_dim=3)
        for seed in range(10):
            scene = generate_scene(cfg, seed)
            wall = np.asarray(scene.static_appearance)
            for obj in scene.objects:
                assert abs(float(np.dot(wall, obj.appearance))) <= 1e-12

    def test_config_from_file_coerces_ranges(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"kind": "convoy", "length": 32, "bounds": [256.0, 128.0], '
                     '"similarity": [0.5, 0.6], "severity": [0.25, 0.3], '
                     '"lane_gap": [50.0, 60.0]}')
        cfg = ScenarioConfig.from_file(p, "convoy")
        assert cfg.kind == "convoy"
        assert cfg.length == 32
        assert cfg.similarity == (0.5, 0.6)
        assert cfg.speed == (3.5, 4.5)
        for name in ("bounds", "similarity", "severity", "speed", "lane_gap"):
            assert type(getattr(cfg, name)) is tuple


class TestMotRoundTrip:
    def test_generated_scene_survives_exactly(self, tmp_path):
        scene = generate_scene(ScenarioConfig("crossing"), 3)
        p = tmp_path / "gt.txt"
        save_mot(scene, p)
        back = load_mot(p, seed=3)
        assert back.length == scene.length
        assert back.ids() == scene.ids()
        for obj_id in scene.ids():
            for f in range(scene.length):
                assert back.true_box(obj_id, f) == scene.true_box(obj_id, f)
                assert back.visibility(obj_id, f) == scene.visibility(obj_id, f)

    def test_parsed_tracks_build_each_seeds_scene(self, tmp_path):
        """The file is parsed once; only the appearances depend on the seed."""
        p = tmp_path / "gt.txt"
        save_mot(generate_scene(ScenarioConfig("convoy"), 103), p)
        tracks = parse_mot(p)
        assert pickle.loads(pickle.dumps(tracks)) == tracks
        assert [t[0] for t in tracks] == [1, 2]
        scenes = [mot_scene(tracks, seed) for seed in (0, 5)]
        for scene, seed in zip(scenes, (0, 5)):
            loaded = load_mot(p, seed)
            assert scene.objects == loaded.objects
        one, five = (s.objects for s in scenes)
        for a, b in zip(one, five):
            assert (a.id, a.boxes, a.occlusions) == (b.id, b.boxes, b.occlusions)
            assert a.appearance != b.appearance

    def test_visibility_runs_become_events(self):
        events = _visibility_to_events([1.0, 0.75, 0.75, 0.5, 1.0])
        assert events == (OcclusionEvent(1, 2, STATIC, 0.25),
                          OcclusionEvent(3, 3, STATIC, 0.5))
        assert _visibility_to_events([0.75, 0.75]) == (
            OcclusionEvent(0, 1, STATIC, 0.25),)
        assert _visibility_to_events([1.0, 1.0]) == ()


class TestMotParsing:
    def _load(self, tmp_path, text):
        p = tmp_path / "gt.txt"
        p.write_text(text)
        return load_mot(p)

    def test_gap_interpolates_with_warning(self, tmp_path, caplog):
        text = ("1,1,0.0,0.0,10.0,10.0,1,1,1.0\n"
                "4,1,6.0,0.0,10.0,10.0,1,1,1.0\n")
        with caplog.at_level(logging.WARNING, logger="retrack.simworld"):
            scene = self._load(tmp_path, text)
        assert "id 1 missing frames 2..3" in caplog.text
        assert scene.true_box(1, 1).x == 2.0
        assert scene.true_box(1, 2).x == 4.0

    def test_edge_frames_hold_nearest_annotation(self, tmp_path):
        text = ("1,1,0.0,0.0,10.0,10.0,1,1,1.0\n"
                "4,1,6.0,0.0,10.0,10.0,1,1,1.0\n"
                "3,2,50.0,50.0,10.0,10.0,1,1,1.0\n")
        scene = self._load(tmp_path, text)
        for f in range(4):
            assert scene.true_box(2, f).as_tuple() == (50.0, 50.0, 10.0, 10.0)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        text = ("1,1,0.0,0.0,10.0,10.0,1,1,1.0\n"
                "\n"
                "2,1,1.0,0.0,10.0,10.0,1,1,oops\n")
        with pytest.raises(MotFormatError, match="line 3"):
            self._load(tmp_path, text)

    @pytest.mark.parametrize("row, hint", [
        ("1,1,0.0,0.0,10.0,10.0,1,1", "expected 9"),
        ("1,1,abc,0.0,10.0,10.0,1,1,1.0", "line 2"),
        ("0,1,0.0,0.0,10.0,10.0,1,1,1.0", "frame must be >= 1"),
        ("1,1,0.0,0.0,0.0,10.0,1,1,1.0", "positive size"),
        ("1,1,nan,0,10,10,1,1,1.0", "x must be finite"),
        ("1,1,0,0,inf,10,1,1,1.0", "w must be finite"),
        ("1,1,0.0,0.0,10.0,10.0,1,1,1.5", "outside"),
        ("2,7,0.0,0.0,10.0,10.0,1,1,1.0", "duplicate"),
        ("1,1,0,0,10,10,1,abc,1.0", "line 2"),
    ])
    def test_malformed_rows_report_line_numbers(self, tmp_path, row, hint):
        text = "2,7,5.0,5.0,10.0,10.0,1,1,1.0\n" + row + "\n"
        with pytest.raises(MotFormatError, match=hint) as err:
            self._load(tmp_path, text)
        assert "line 2" in str(err.value) or "line 1" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(MotFormatError, match="no data rows"):
            self._load(tmp_path, "\n\n")
