"""Scene scripting, the scene-backed mock tracker, and MOT file I/O."""
import logging
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformance import check_port, check_rejects
from conftest import lane, unit_vector, zero_iou_scene
from oracles import mock_score, mot_fill
from retrack.engine import EngineConfig, run_baseline, run_sequence
from retrack.evalkit import EvalReport
from retrack.geometry import BBox, iou
from retrack.simworld import (SCENARIO_IDS, SCENARIOS, SEARCH_RADIUS_SCALE, MockTracker,
                              MotFormatError, ObjectSpec, ScenarioConfig, Scene,
                              _tapered_occlusion, _unit_with_cosine, generate_scene, load_mot,
                              mot_scene, parse_mot, save_mot)
from retrack.tracker_port import TrackerPort

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


class TestObjectSpec:
    def test_per_frame_bounds_are_inclusive(self):
        """A visibility of exactly 1 or 0 and a rate of 0 are accepted; what
        lies outside fails in `test_bad_spec_fails_when_built`."""
        obj = ObjectSpec(1, _static(0, 0), E0, visibility=(1.0, 0.0, 1.0, 1.0, 1.0, 1.0),
                         drift=(0.0,) * 6)
        scene = _scene([obj])
        assert scene.visibility(1, 0) == 1.0
        assert scene.visibility(1, 1) == 0.0
        np.testing.assert_array_equal(scene.effective_appearance(1, 1), np.asarray(WALL))
        np.testing.assert_array_equal(scene.effective_appearance(1, 5), np.asarray(E0))


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

    def test_visibility_is_read_from_the_table(self):
        obj = ObjectSpec(1, _static(0, 0), E0, visibility=(0.75, 0.75, 0.5, 0.5, 0.75, 1.0))
        scene = _scene([obj])
        assert [scene.visibility(1, f) for f in range(6)] == [0.75, 0.75, 0.5, 0.5, 0.75, 1.0]
        # an object in plain view stores no visibility at all
        plain = _scene([ObjectSpec(1, _static(0, 0), E0)])
        assert [plain.visibility(1, f) for f in range(6)] == [1.0] * 6
        # the port's table is a list of floats either way
        for table in (scene._tables[1], plain._tables[1]):
            assert type(table.visibility) is list

    def test_static_occlusion_mixes_toward_wall(self):
        obj = ObjectSpec(1, _static(0, 0), E0, visibility=(1.0, 1.0, 0.75, 0.75, 1.0, 1.0))
        scene = _scene([obj])
        np.testing.assert_array_equal(scene.effective_appearance(1, 0),
                                      np.asarray(E0))
        norm = math.hypot(0.75, 0.25)
        eff = scene.effective_appearance(1, 2)
        assert eff[0] == pytest.approx(0.75 / norm, rel=1e-12)
        assert eff[2] == pytest.approx(0.25 / norm, rel=1e-12)
        assert np.linalg.norm(eff) == pytest.approx(1.0, rel=1e-12)

    def test_wall_appearance_derived_deterministically(self):
        obj = ObjectSpec(1, _static(0, 0, length=4), E0)
        one = Scene(4, 9, (obj,))
        two = Scene(4, 9, (obj,))
        assert one.static_appearance == two.static_appearance
        assert np.linalg.norm(one.static_appearance) == pytest.approx(1.0)

    def test_drift_walk_is_deterministic_and_unit_norm(self):
        obj = ObjectSpec(1, _static(0, 0, length=10), E0, drift=(0.1,) * 10)
        one, two = _scene([obj], length=10), _scene([obj], length=10)
        for f in range(10):
            a = one.effective_appearance(1, f)
            np.testing.assert_array_equal(a, two.effective_appearance(1, f))
            assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert not np.array_equal(one.effective_appearance(1, 0),
                                  one.effective_appearance(1, 9))

    def test_rate_at_a_frame_drives_the_next_step(self):
        """Only frame 3's rate is nonzero: the appearance holds through
        frame 3, moves at frame 4, and stays there."""
        obj = ObjectSpec(1, _static(0, 0), E0, drift=(0.0, 0.0, 0.0, 0.2, 0.0, 0.0))
        rows = [_scene([obj]).effective_appearance(1, f) for f in range(6)]
        for f in range(4):
            np.testing.assert_array_equal(rows[f], np.asarray(E0))
        assert float(np.abs(rows[4] - rows[3]).max()) > 1e-3
        np.testing.assert_allclose(rows[5], rows[4], rtol=0.0, atol=1e-15)

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
        # drifts at 0.05, spiking to 0.3 over frames 2-4; three quarters
        # visible over frames 1-3 and half visible at frame 5
        target = ObjectSpec(1, _static(10.0, 20.0, size=8.0, length=8), E0,
                            visibility=(1.0, 0.75, 0.75, 0.75, 1.0, 0.5, 1.0, 1.0),
                            drift=(0.05, 0.05, 0.3, 0.3, 0.3, 0.05, 0.05, 0.05))
        return target, ObjectSpec(2, _static(100, 100, length=8), E1)

    @pytest.mark.parametrize("change, message", [
        ("short_frames", "object 2: 'boxes' holds 7 entries, the scene 8 frames"),
        ("long_frames", "object 2: 'boxes' holds 9 entries, the scene 8 frames"),
        ("visibility_short", "object 1: 'visibility' holds 7 entries, the scene 8 frames"),
        ("drift_long", "object 2: 'drift' holds 9 entries, the scene 8 frames"),
        ("static_dimension", "static_appearance has dimension 3, object 1"),
        ("object_dimension", "object 2: appearance of shape \\(3,\\), not \\(4,\\)"),
        ("object_zero", "object 2: appearance must be finite and not all zero"),
        ("object_nan", "object 1: appearance must be finite and not all zero"),
        ("static_zero", "static_appearance must be finite and not all zero"),
        ("static_nan", "static_appearance must be finite and not all zero"),
        ("mix_cancels", "object 1: the occlusion at frame 5 mixes its appearance to zero"),
        ("visibility_nan", "object 1: visibility must lie in \\[0, 1\\], got nan"),
        ("visibility_negative", "object 1: visibility must lie in \\[0, 1\\], got -0.25"),
        ("visibility_above_1", "object 1: visibility must lie in \\[0, 1\\], got 1.5"),
        ("drift_nan", "object 1: drift must be finite and >= 0, got nan"),
        ("drift_negative", "object 2: drift must be finite and >= 0, got -0.01"),
        ("spike_nan", "object 1: drift must be finite and >= 0, got nan"),
        ("spike_negative", "object 1: drift must be finite and >= 0, got -0.3"),
    ], ids=["short_frames", "long_frames", "visibility_short", "drift_long", "static_dimension",
            "object_dimension", "object_zero", "object_nan", "static_zero",
            "static_nan", "mix_cancels", "visibility_nan", "visibility_negative",
            "visibility_above_1", "drift_nan", "drift_negative", "spike_nan",
            "spike_negative"])
    def test_bad_spec_fails_when_built(self, change, message):
        """Unchecked, each would fail later with an error that names no
        object, mid-run with a NaN score, or run silently on a truncated
        table. The spike rows spoil only the rates of frames 2-4, so every
        frame's rate is checked, not the first alone."""
        target, other = self._objects()
        wall = WALL
        with pytest.raises(ValueError, match=message):
            if change.endswith("_frames"):
                n = 7 if change == "short_frames" else 9
                other = replace(other, boxes=(BBox(95.0, 95.0, 10.0, 10.0),) * n)
            elif change == "visibility_short":
                target = replace(target, visibility=target.visibility[:7])
            elif change == "drift_long":
                other = replace(other, drift=(0.0,) * 9)
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
            elif change.startswith("visibility_"):
                bad = {"visibility_nan": math.nan, "visibility_negative": -0.25,
                       "visibility_above_1": 1.5}[change]
                target = replace(target, visibility=target.visibility[:5] + (bad,) * 3)
            elif change == "drift_nan":
                target = replace(target, drift=(math.nan,) * 8)
            elif change == "drift_negative":
                other = replace(other, drift=(-0.01,) * 8)
            elif change.startswith("spike_"):
                rates = target.drift
                spike = math.nan if change == "spike_nan" else -rates[2]
                target = replace(target, drift=rates[:2] + (spike,) * 3 + rates[5:])
            else:  # a wall opposite the undrifted target, half visible at frame 5
                target = replace(target, drift=())
                wall = tuple(-v for v in target.appearance)
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
        obj = ObjectSpec(1, _static(20.0, 20.0), E0, visibility=(1.0, 1.0, 0.75, 1.0, 1.0, 1.0))
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
        tracker.track_segment(tpl, scene.true_box(1, 2), [2, 1, 0])
        # the objects stand still, so this chain joins the last one at its
        # second step and takes its boxes: a frame asked still counts
        tracker.track_segment(tpl, scene.true_box(1, 3), [3, 2, 1, 0])
        assert tracker.port_frames == 11
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
    """The cosines and chains a port keeps from one run change nothing in
    the next."""
    scene = generate_scene(ScenarioConfig(kind), seed)
    frames, b0, cfg = range(scene.length), scene.true_box(1, 0), EngineConfig()
    attributes = set(vars(scene))
    port = MockTracker(scene)
    first = run_sequence(port, frames, b0, cfg)
    assert any(port._templates.values())
    assert run_sequence(port, frames, b0, cfg) == first
    assert run_sequence(MockTracker(scene), frames, b0, cfg) == first
    assert any(template.chains for template in port._templates.values())
    fresh = MockTracker(scene)
    assert fresh._templates == {}
    assert fresh.make_template(0, b0).chains == {}
    assert set(vars(scene)) == attributes  # the scene holds no cosines and no chains
    check_port(port, TestConformance._starts(port, scene, 30),
               [range(29, 20, -1), range(31, 40)])


class TestChainMemo:
    """The chains a template keeps: a chain that joins a known one reuses
    its boxes, and a warm port answers as a fresh one does."""

    G = 41  # the frame of the starts, with 27 frames before it

    @staticmethod
    def _fast():
        """Two look-alikes on parallel lanes, 20 px a frame: a search from a
        box more than 7 frames off finds neither."""
        return Scene(64, 0, tuple(ObjectSpec(i, lane(64, 40.0, 40.0 + 20.0 * 63, y),
                                             unit_vector(i))
                                  for i, y in ((1, 200.0), (2, 260.0))))

    @pytest.mark.parametrize("kind, seed", [("crossing", 3), ("convoy", 103), ("deform", 3),
                                            ("fast", 0)])
    def test_a_warm_port_chains_as_a_fresh_one(self, kind, seed):
        scene = self._fast() if kind == "fast" else generate_scene(ScenarioConfig(kind), seed)
        g = self.G
        segments = [
            # forward from frame g - 1, then backward from g: the backward
            # chains' second steps land on the forward chains' first keys
            range(g - 1, g + 8), range(g, g - 9, -1),
            # a 27-frame chain after 9-frame ones: the known tail is short
            range(g - 1, g - 10, -1), range(g, g - 27, -1),
            [g], [g - 1],
        ]
        warm = MockTracker(scene)
        run_sequence(warm, range(scene.length), scene.true_box(1, 0), EngineConfig())
        before = warm.port_frames
        # the starts take in `FAR`, whose chains repeat their prior
        got = check_port(warm, TestConformance._starts(warm, scene, g), segments)
        fresh = MockTracker(scene)
        assert check_port(fresh, TestConformance._starts(fresh, scene, g), segments) == got
        assert warm.port_frames - before == fresh.port_frames
        assert got[3][2].boxes == (TestConformance.FAR,) * 27

    @pytest.mark.parametrize("kind, seed", [("crossing", 3), ("deform", 3)])
    def test_a_range_chains_as_its_list_does(self, kind, seed):
        scene = generate_scene(ScenarioConfig(kind), seed)
        g = self.G
        segments = [range(g - 1, g + 8), range(g, g - 9, -1), range(g - 1, g - 10, -1),
                    range(g, g - 27, -1), range(g + 1, g - 8, -1), range(g, g + 1)]
        by_range, by_list = MockTracker(scene), MockTracker(scene)
        for frames in segments:
            for obj in scene.ids():
                start = scene.true_box(obj, frames[0])
                got = [port.track_segment(port.make_template(frames[0], start), start, seq)
                       for port, seq in ((by_range, frames), (by_list, list(frames)))]
                assert got[0] == got[1]
        assert by_range.port_frames == by_list.port_frames > 0

    def test_a_chain_that_joins_a_known_one_walks_only_its_first_step(self):
        scene = generate_scene(ScenarioConfig("crossing"), 3)
        port = MockTracker(scene)
        template = port.make_template(10, scene.true_box(1, 10))
        port.track_segment(template, scene.true_box(1, 10), range(9, 0, -1))
        walk, walked = port._walk, []

        def spy(template, prior, frames):
            walked.append(list(frames))
            return walk(template, prior, frames)

        port._walk = spy
        start = scene.true_box(1, 11)
        # its first step, at frame 10, lands on the known chain's start
        got = port.track_segment(template, start, range(10, 1, -1))
        assert walked == [[10]]
        assert got == TrackerPort.track_segment(port, template, start, range(10, 1, -1))
        # a chain that joins none walks every frame
        port.track_segment(template, start, range(11, 15))
        assert walked == [[10], [11], [12, 13, 14]]


class TestDominantObject:
    def test_no_overlap_gives_none(self):
        scene = _scene([ObjectSpec(1, _static(20.0, 20.0), E0)])
        assert scene.dominant_object(BBox(300.0, 300.0, 10.0, 10.0), 0) is None
        # sharing only an edge is no overlap either
        assert scene.dominant_object(BBox(25.0, 15.0, 10.0, 10.0), 0) is None

    # straddles the boxes centred at x 20 (ids 2, 3) and x 40 (id 1) of
    # `_three`'s scene with an equal overlap, 0.2, on each
    WIDE = BBox(20.0, 15.0, 20.0, 10.0)

    @staticmethod
    def _three():
        return _scene([ObjectSpec(3, _static(20.0, 20.0), E0),
                       ObjectSpec(1, _static(40.0, 20.0), E1),
                       ObjectSpec(2, _static(20.0, 20.0), E1)])

    @staticmethod
    def _by_iou(scene, box, frame):
        """`dominant_object` as a loop of `iou` calls."""
        best_id, best_ov = None, 0.0
        for i in scene.ids():
            ov = iou(box, scene.true_box(i, frame))
            if ov > best_ov:
                best_id, best_ov = i, ov
        return best_id

    def test_largest_overlap_wins_and_a_tie_goes_to_the_lower_id(self):
        scene = self._three()
        assert scene.dominant_object(BBox(15.0, 15.0, 10.0, 10.0), 0) == 2
        assert scene.dominant_object(BBox(34.0, 15.0, 10.0, 10.0), 0) == 1
        wide = self.WIDE
        assert iou(wide, scene.true_box(1, 0)) == iou(wide, scene.true_box(3, 0)) == 0.2
        assert scene.dominant_object(wide, 0) == 1

    def test_equals_a_loop_of_iou_calls(self):
        nothing = BBox(-3000.0, -3000.0, 40.0, 40.0)
        for kind, seed in [("crossing", 3), ("convoy", 103), ("deform", 3)]:
            scene = generate_scene(ScenarioConfig(kind), seed)
            boxes = {scene.true_box(i, f) for i in scene.ids() for f in range(scene.length)}
            for f in range(scene.length):
                for box in [*boxes, nothing]:
                    assert scene.dominant_object(box, f) == self._by_iou(scene, box, f)
            assert scene.dominant_object(nothing, 0) is None
        three = self._three()
        assert three.dominant_object(self.WIDE, 0) == self._by_iou(three, self.WIDE, 0) == 1

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
    SEV = 72.0 / 256

    def test_ladder_steps_down_one_frame_at_a_time(self):
        visibility = _tapered_occlusion(40, 10, 20, self.SEV)
        assert len(visibility) == 40
        assert visibility[:10] == (1.0,) * 10
        assert visibility[10:21] == (1.0 - self.SEV,) * 11
        assert visibility[21:29] == tuple((192.0 + 8.0 * i) / 256 for i in range(8))
        assert visibility[28] == 248.0 / 256
        assert visibility[29:] == (1.0,) * 11

    @pytest.mark.parametrize("length", [30, 24, 21, 16, 11])
    def test_ladder_is_cut_at_the_last_frame(self, length):
        """A fade, or the full-strength stretch itself, that runs past the
        scene's last frame is cut there."""
        assert _tapered_occlusion(length, 10, 20, self.SEV) == \
            _tapered_occlusion(40, 10, 20, self.SEV)[:length]

    @pytest.mark.parametrize("start, end", [(-1, 20), (40, 45), (20, 19)],
                             ids=["before_frame_0", "past_last_frame", "ends_before_start"])
    def test_window_outside_the_scene_fails(self, start, end):
        """A start before frame 0 would wrap onto the scene's last frames,
        and one past the last frame would script no occlusion at all."""
        with pytest.raises(ValueError, match="occlusion"):
            _tapered_occlusion(40, start, end, self.SEV)


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
        assert min(target.visibility) < 1.0 and not distractor.visibility
        sev = 1.0 - min(target.visibility)
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
        assert min(scene.objects[0].visibility) < 1.0
        for f in range(scene.length):
            assert iou(scene.true_box(1, f), scene.true_box(2, f)) == 0.0

    def test_deform_uses_drift_spike_not_occlusion(self):
        """The target drifts at 0.12 over one stretch of 9 to 13 frames
        starting at frame 20 to 26, and at the config's `drift` elsewhere;
        the bystander at `drift` throughout. Nothing is obscured, and an
        object that never drifts stores no rates."""
        for drift in (0.0, 0.02):
            cfg = ScenarioConfig("deform", drift=drift)
            target, other = generate_scene(cfg, 4).objects
            assert not target.visibility and not other.visibility
            assert len(target.drift) == cfg.length and set(target.drift) == {drift, 0.12}
            spiked = [f for f, rate in enumerate(target.drift) if rate == 0.12]
            assert 20 <= spiked[0] < 27 and 9 <= len(spiked) <= 13
            assert spiked == list(range(spiked[0], spiked[-1] + 1))
            assert other.drift == ((drift,) * cfg.length if drift else ())

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
        event: one occlusion that sets in at full strength and then only
        fades (a head wrapped past frame 0 would rise again at the scene's
        end), or a frame whose appearance the drift spike changed."""
        cfg = ScenarioConfig(kind, length=length)
        for seed in range(50):
            scene = generate_scene(cfg, seed)
            target = scene.objects[0]
            if kind == "deform":
                start = target.drift.index(0.12)
                before, after = (scene.effective_appearance(1, f) for f in (start, start + 1))
                assert float(np.abs(after - before).max()) > 1e-9, seed
            else:
                start = next(f for f, v in enumerate(target.visibility) if v < 1.0)
                run = target.visibility[start:]
                assert all(a <= b for a, b in zip(run, run[1:])), seed
                assert scene.visibility(1, start) < 1.0, seed

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
            assert (a.id, a.boxes, a.visibility) == (b.id, b.boxes, b.visibility)
            assert a.appearance != b.appearance

    def test_visibility_is_kept_as_written(self, tmp_path):
        """Each frame keeps its row's visibility, or in a gap the linear
        interpolation `va + t * (vb - va)`; the scene and the file
        `save_mot` writes hold the same value."""
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,10,10,1,1,1.0\n2,1,0,0,10,10,1,1,0.75\n"
                     "3,1,0,0,10,10,1,1,0.5\n5,1,0,0,10,10,1,1,1.0\n"
                     "1,2,50,50,10,10,1,1,0.3\n"
                     "1,3,90,90,10,10,1,1,0.3\n4,3,90,90,10,10,1,1,0.61\n")
        (_, _, first), (_, _, second), (_, _, third) = parse_mot(p)
        assert first == (1.0, 0.75, 0.5, 0.75, 1.0)
        assert second == (0.3,) * 5
        assert third == (0.3, 0.3 + (1 / 3) * (0.61 - 0.3), 0.3 + (2 / 3) * (0.61 - 0.3),
                         0.61, 0.61)
        scene = mot_scene(parse_mot(p), 0)
        assert [scene.visibility(1, f) for f in range(5)] == list(first)
        assert [scene.visibility(2, f) for f in range(5)] == [0.3] * 5
        assert [scene.visibility(3, f) for f in range(5)] == list(third)
        save_mot(scene, tmp_path / "back.txt")
        written = [line.split(",") for line in (tmp_path / "back.txt").read_text().splitlines()]
        assert [row[8] for row in written if row[1] == "2"] == ["0.3"] * 5
        assert [row[8] for row in written if row[1] == "3"] == [repr(v) for v in third]


_MOT_BOX = st.builds(BBox, st.floats(-500.0, 500.0), st.floats(-500.0, 500.0),
                    st.floats(0.5, 100.0), st.floats(0.5, 100.0))
# dyadic visibilities, and three-decimal ones as a file holds them
_MOT_VIS = st.one_of(st.integers(0, 256).map(lambda k: k / 256),
                     st.integers(0, 1000).map(lambda k: k / 1000))


@st.composite
def _mot_rows(draw):
    """Annotated rows per id, {id: {0-based frame: (box, visibility)}}, for
    1-4 ids over 2-40 frames: each id on any nonempty set of frames, so
    ids start late, end early, skip one frame or many, or hold one row."""
    length = draw(st.integers(2, 40))
    ids = draw(st.sets(st.integers(1, 9), min_size=1, max_size=4))
    per_id = {obj_id: {f: (draw(_MOT_BOX), draw(_MOT_VIS))
                       for f in draw(st.sets(st.integers(0, length - 1), min_size=1))}
              for obj_id in ids}
    if max(f for rows in per_id.values() for f in rows) == 0:  # a run needs two frames
        per_id[min(ids)][length - 1] = (draw(_MOT_BOX), draw(_MOT_VIS))
    return per_id


def _hex(tracks):
    return [(obj_id, [tuple(map(float.hex, b.as_tuple())) for b in boxes],
             [v.hex() for v in visibility]) for obj_id, boxes, visibility in tracks]


class TestMotParsing:
    def _load(self, tmp_path, text):
        p = tmp_path / "gt.txt"
        p.write_text(text)
        return load_mot(p)

    @settings(max_examples=120, deadline=None, database=None)
    @given(_mot_rows())
    # one annotation, held to frame 0 and to the file's last frame
    @example({5: {3: (BBox(1.0, 2.0, 3.0, 4.0), 0.61)}, 2: {4: (BBox(9.0, 9.0, 5.0, 5.0), 1.0)}})
    # adjacent frames; gaps at the start, in the middle and at the end
    @example({1: {0: (BBox(0.0, 0.0, 10.0, 10.0), 1.0), 1: (BBox(1.0, 0.0, 10.0, 10.0), 0.3),
                  2: (BBox(2.0, 0.0, 10.0, 10.0), 0.999)},
              2: {1: (BBox(50.0, 5.0, 8.0, 9.0), 0.5), 4: (BBox(56.0, 8.0, 9.0, 8.0), 0.61),
                  5: (BBox(57.0, 8.5, 9.5, 8.0), 0.0)},
              3: {0: (BBox(-5.0, 3.0, 4.0, 4.0), 0.25), 7: (BBox(30.0, 3.0, 6.0, 4.0), 0.875)}})
    def test_one_pass_fill_matches_the_reference(self, tmp_path_factory, per_id):
        """`parse_mot` fills each id's track in one pass; the reference fills
        each frame by searching the annotated ones. Boxes and visibilities
        agree bit for bit, and the gap warnings come in the same order."""
        rows = [f"{f + 1},{obj_id},{b.x!r},{b.y!r},{b.w!r},{b.h!r},1,1,{v!r}"
                for obj_id, frames in per_id.items()
                for f, (b, v) in sorted(frames.items(), reverse=True)]
        p = tmp_path_factory.getbasetemp() / "fill.txt"
        p.write_text("\n".join(rows) + "\n")
        warned = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = lambda record: warned.append(record.args[1:])
        logger = logging.getLogger("retrack.simworld")
        logger.addHandler(handler)
        try:
            tracks = parse_mot(p)
        finally:
            logger.removeHandler(handler)
        expected, gaps = mot_fill(per_id, 1 + max(f for fs in per_id.values() for f in fs))
        assert _hex(tracks) == _hex(expected)
        assert warned == gaps

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
