"""Property registry shared by the regular suite and the volume runs.

Each property couples a hypothesis strategy with a checking body and is
tagged with the module it exercises. `run_prop` executes one property at
a chosen example budget; COUNTS tallies how many generated cases actually
ran per module, so callers can enforce a minimum volume. `run_volume`
runs one module's properties at the acceptance volume. `WindowPort`
wraps a tracker port and fails any call the engine makes about a frame
outside its window.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ScriptPort, backtrack_all, box_scene, shifted
from oracles import motion_covariance, predicted_box, reference_iou
from retrack.candidate_select import (CandidateSet, assemble,
                                      filter_by_confidence, soft_nms)
from retrack.evalkit import EAO_INTERVALS, REANCHOR_SKIP, EvalReport
from retrack.geometry import BBox, Tracklet, batch_iou, box_array, iou, tracklet_avg_iou
from retrack.motion import MIN_SIZE, motion_init, motion_predict, motion_update
from retrack.matching import build_weights
from retrack.pools import build_candidate_pool, update_neighbor_pool
from retrack.simworld import ObjectSpec, Scene
from retrack.tracker_port import RawCandidates, TrackerPort


@dataclass(frozen=True)
class Prop:
    module: str
    name: str
    strategy: st.SearchStrategy
    body: Callable


PROPS: list[Prop] = []
COUNTS: Counter = Counter()


def prop(module: str, name: str, strategy):
    def register(fn):
        PROPS.append(Prop(module, name, strategy, fn))
        return fn
    return register


def run_prop(p: Prop, max_examples: int) -> None:
    @settings(max_examples=max_examples, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(p.strategy)
    def check(value):
        COUNTS[p.module] += 1
        p.body(value)

    check()


def run_volume(module: str) -> Counter:
    """Run every property of `module` at an even share of 10,400 cases,
    then top up until the module has generated at least 10,200. Returns
    the cases this call generated, keyed by module; a module-level
    function, so a process pool can run one module per task."""
    start = COUNTS[module]
    group = [p for p in PROPS if p.module == module]
    budget = -(-10_400 // len(group))
    for p in group:
        run_prop(p, budget)
    # narrow strategies can exhaust below their budget; top up on the
    # wide ones until the module crosses the volume floor
    for p in group * 3:
        short = 10_200 - (COUNTS[module] - start)
        if short <= 0:
            break
        run_prop(p, short)
    return Counter({module: COUNTS[module] - start})


# ---------------------------------------------------------------------------
# the engine's frame window
# ---------------------------------------------------------------------------

class WindowPort(TrackerPort):
    """Forwards every call to `inner` and fails any `make_template`,
    `propose` or `track_segment` frame outside [anchor, t].

    The anchor is the frame of the first template, the one the engine keeps
    for the whole run; t is the frame the engine is deciding. Each `propose`
    on the anchor's template is the call that opens a `step`, so it must
    move t on by exactly one frame. That template is boxed, so no other
    handle can pass for it. Wrap engine runs only: the baseline chains
    forward from the anchor in a single call.
    """

    class Anchor:
        __slots__ = ("inner",)

        def __init__(self, inner):
            self.inner = inner

    def __init__(self, inner: TrackerPort):
        self.inner = inner
        self.anchor_template = self.anchor = self.now = None

    def _check(self, call: str, frames: Sequence[int]) -> None:
        for f in frames:
            assert self.anchor <= f <= self.now, \
                f"{call} at frame {f}, outside the window [{self.anchor}, {self.now}]"

    def _unboxed(self, template):
        return template.inner if template is self.anchor_template else template

    def make_template(self, frame, box):
        if self.anchor_template is None:
            self.anchor = self.now = frame
            self.anchor_template = self.Anchor(self.inner.make_template(frame, box))
            return self.anchor_template
        self._check("make_template", [frame])
        return self.inner.make_template(frame, box)

    def propose(self, template, frame, prior):
        if template is self.anchor_template:
            assert frame == self.now + 1, f"step to frame {frame} after frame {self.now}"
            self.now = frame
        else:
            self._check("propose", [frame])
        return self.inner.propose(self._unboxed(template), frame, prior)

    def track_segment(self, template, start, frames):
        self._check("track_segment", frames)
        return self.inner.track_segment(self._unboxed(template), start, frames)


coords = st.floats(-500.0, 500.0)
sizes = st.floats(0.5, 200.0)
unit_floats = st.floats(0.0, 1.0)
boxes = st.builds(BBox, coords, coords, sizes, sizes)


def box_lists(n_min=1, n_max=6):
    return st.lists(boxes, min_size=n_min, max_size=n_max)


@st.composite
def partner_box(draw, a: BBox):
    """A box against `a`: unrelated, identical, touching one of its edges
    (overlap width or height exactly 0), sharing one of its corners or
    nested inside it."""
    kind = draw(st.sampled_from(("free", "same", "touch_x", "touch_y", "corner",
                                 "nested")))
    if kind == "free":
        return draw(boxes)
    if kind == "same":
        return a
    if kind == "corner":
        return shifted(a, draw(st.sampled_from((a.w, -a.w))),
                       draw(st.sampled_from((a.h, -a.h))))
    if kind == "touch_x":
        return shifted(a, a.w, draw(st.floats(-a.h, a.h)))
    if kind == "touch_y":
        return shifted(a, draw(st.floats(-a.w, a.w)), a.h)
    scale = draw(st.floats(0.1, 0.9))
    fx, fy = draw(st.floats(0.0, 1.0 - scale)), draw(st.floats(0.0, 1.0 - scale))
    return BBox(a.x + fx * a.w, a.y + fy * a.h, a.w * scale, a.h * scale)


@st.composite
def coterminal_tracklets(draw):
    """Two tracklets ending on one frame, of independent lengths, whose
    aligned boxes are often identical, edge-touching or nested."""
    end = draw(st.integers(-5, 40))
    first = draw(box_lists())
    second = draw(box_lists())
    second = [draw(partner_box(a)) for a in first[:len(second)]] + second[len(first):]
    return Tracklet(end, tuple(first)), Tracklet(end, tuple(second))


@st.composite
def raw_cands(draw, n_max=8):
    n = draw(st.integers(1, n_max))
    bs = draw(st.lists(boxes, min_size=n, max_size=n))
    ss = draw(st.lists(unit_floats, min_size=n, max_size=n))
    return RawCandidates(tuple(bs), tuple(ss))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@prop("geometry", "iou_symmetric_and_bounded", st.tuples(boxes, boxes))
def _(value):
    a, b = value
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0 + 1e-12


@prop("geometry", "iou_identity_and_separation",
      st.tuples(boxes, st.floats(0.0, 100.0)))
def _(value):
    box, gap = value
    assert abs(iou(box, box) - 1.0) <= 1e-9
    assert iou(box, shifted(box, box.w + gap + 1.0, 0.0)) == 0.0
    assert iou(box, shifted(box, 0.0, box.h + gap + 1.0)) == 0.0


int_boxes = st.builds(BBox, st.integers(-20, 20), st.integers(-20, 20),
                      st.integers(1, 20), st.integers(1, 20))


@prop("geometry", "iou_equals_the_reference_bit_for_bit",
      st.one_of(boxes, int_boxes).flatmap(
          lambda a: st.tuples(st.just(a), st.one_of(partner_box(a), int_boxes))))
def _(value):
    # `iou` reads each field once; the reference reads the derived properties
    a, b = value
    assert iou(a, b).hex() == reference_iou(a, b).hex()
    assert iou(b, a).hex() == reference_iou(b, a).hex()


@prop("geometry", "avg_iou_matches_direct_mean", coterminal_tracklets())
def _(value):
    # bit for bit: the overlap kernel spells `iou` out inline
    a, b = value
    m = min(len(a), len(b))
    total = 0.0
    for k in range(m):
        total += reference_iou(a.boxes[k], b.boxes[k])
    assert tracklet_avg_iou(a, b) == min(total / m, 1.0)


@prop("geometry", "avg_iou_symmetric_bit_for_bit", coterminal_tracklets())
def _(value):
    # the engine reuses the gate's overlap(target, argmax) as the weight
    # overlap(argmax, target), so the two must agree exactly
    a, b = value
    assert tracklet_avg_iou(a, b) == tracklet_avg_iou(b, a)


@prop("geometry", "tracklet_ops_consistent",
      st.tuples(st.integers(-5, 40), box_lists(), boxes, st.integers(1, 6)))
def _(value):
    end, bs, new, keep = value
    t = Tracklet(end, tuple(bs))
    assert len(t) == len(bs)
    assert t.head == bs[0]
    pushed = t.pushed(new, keep)
    assert pushed.end_frame == end + 1
    assert pushed.boxes == ((new,) + t.boxes)[:keep]


@prop("geometry", "self_overlap_clamped_at_one",
      st.tuples(st.integers(-5, 40), box_lists()))
def _(value):
    end, bs = value
    v = tracklet_avg_iou(Tracklet(end, tuple(bs)), Tracklet(end, tuple(bs)))
    assert v <= 1.0
    assert v >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# candidate_select
# ---------------------------------------------------------------------------

@prop("candidate_select", "filter_keeps_exactly_the_qualifying",
      st.tuples(raw_cands(), unit_floats))
def _(value):
    raw, alpha = value
    kept = filter_by_confidence(raw, alpha)
    s_max = max(raw.scores)
    cut = alpha * s_max
    assert kept == [i for i, s in enumerate(raw.scores) if s > cut or s == s_max]
    assert raw.argmax() in kept


@prop("candidate_select", "filter_monotone_in_alpha",
      st.tuples(raw_cands(), unit_floats, unit_floats))
def _(value):
    raw, a1, a2 = value
    lo, hi = min(a1, a2), max(a1, a2)
    loose = filter_by_confidence(raw, lo)
    tight = filter_by_confidence(raw, hi)
    assert loose == sorted(loose) and tight == sorted(tight)
    assert set(tight) <= set(loose)


@prop("candidate_select", "nms_population_and_order",
      st.tuples(raw_cands(), unit_floats, st.floats(1e-3, 10.0)))
def _(value):
    raw, thresh, sigma = value
    out = soft_nms(raw, list(range(len(raw))), thresh, sigma)
    picked = [i for i, _ in out]
    assert len(set(picked)) == len(picked) <= len(raw)
    if out:
        assert out[0] == (raw.argmax(), max(raw.scores))
    assert all(s <= raw.scores[i] for i, s in out)


@prop("candidate_select", "nms_zero_floor_drops_nothing",
      st.tuples(raw_cands(), unit_floats, st.floats(1e-3, 10.0)))
def _(value):
    raw, thresh, sigma = value
    out = soft_nms(raw, list(range(len(raw))), thresh, sigma, score_floor=0.0)
    assert sorted(i for i, _ in out) == list(range(len(raw)))
    # picked in order of current (decayed) score
    assert all(out[k][1] >= out[k + 1][1] for k in range(len(out) - 1))


@prop("candidate_select", "nms_over_kept_indices_matches_a_copied_subset",
      st.tuples(raw_cands(), unit_floats, unit_floats, st.floats(1e-3, 10.0)))
def _(value):
    # suppressing by index gives what suppressing a copy of the kept
    # proposals gives, index for index and bit for bit
    raw, alpha, thresh, sigma = value
    keep = filter_by_confidence(raw, alpha)
    sub = RawCandidates(tuple(raw.boxes[i] for i in keep), tuple(raw.scores[i] for i in keep))
    copied = [(keep[j], s) for j, s in soft_nms(sub, list(range(len(sub))), thresh, sigma)]
    assert soft_nms(raw, keep, thresh, sigma) == copied


@prop("candidate_select", "assemble_marks_and_ignores_the_motion_box",
      st.tuples(raw_cands(), st.one_of(st.none(), boxes)))
def _(value):
    raw, kbox = value
    # every proposal kept, in pick order: by falling score, ties to the earliest
    kept = sorted(enumerate(raw.scores), key=lambda pick: -pick[1])
    cs = assemble(raw, kept, kbox)
    assert cs.boxes[:len(kept)] == tuple(raw.boxes[i] for i, _ in kept)
    assert cs.scores[:len(kept)] == tuple(s for _, s in kept)
    assert cs.boxes[0] == raw.boxes[raw.argmax()]
    if kbox is None:
        assert cs.kalman_index is None
        assert len(cs) == len(raw.boxes)
    else:
        assert cs.kalman_index == len(raw.boxes)
        assert cs.boxes[-1] == kbox
        assert cs.scores[-1] == 0.0


@st.composite
def tied_overlapping_cands(draw, n_max=8):
    """Proposals whose scores come from a pool of at most three, so exact
    ties are common, and whose boxes often overlap an earlier one."""
    n = draw(st.integers(1, n_max))
    pool = draw(st.lists(unit_floats, min_size=1, max_size=3))
    bs = [draw(boxes)]
    for _ in range(n - 1):
        bs.append(draw(st.one_of(boxes, st.sampled_from(bs).flatmap(partner_box))))
    ss = [draw(st.sampled_from(pool)) for _ in range(n)]
    return RawCandidates(tuple(bs), tuple(ss))


@prop("candidate_select", "the_flow_builds_its_set_in_pick_order",
      st.tuples(tied_overlapping_cands(), unit_floats, unit_floats,
                st.floats(1e-3, 10.0), st.one_of(st.none(), boxes)))
def _(value):
    # the port's own argmax is the first pick, the picked scores never
    # rise, and the motion box comes right after the picks
    raw, alpha, thresh, sigma, kbox = value
    kept = soft_nms(raw, filter_by_confidence(raw, alpha), thresh, sigma)
    cs = assemble(raw, kept, kbox)
    assert cs.boxes[0] == raw.boxes[raw.argmax()]
    real = cs.scores[:len(kept)]
    assert all(a >= b for a, b in zip(real, real[1:]))
    if kbox is None:
        assert (cs.kalman_index, len(cs)) == (None, len(kept))
    else:
        assert (cs.kalman_index, len(cs)) == (len(kept), len(kept) + 1)
        assert cs.boxes[len(kept)] == kbox


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------

@prop("motion", "init_spread_formula", boxes)
def _(box):
    s = motion_init(box)
    np.testing.assert_array_equal(s.mean[:4], [box.cx, box.cy, box.w, box.h])
    np.testing.assert_array_equal(s.mean[4:], np.zeros(4))
    std = np.array([box.h / 10.0] * 4 + [box.h / 16.0] * 4)
    cov = motion_covariance(s)
    np.testing.assert_allclose(cov, np.diag(std ** 2), rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(cov) > 0)


@prop("motion", "covariance_psd_under_prediction",
      st.tuples(boxes, st.integers(1, 5)))
def _(value):
    box, n = value
    state = motion_init(box)
    for _ in range(n):
        prev = state
        before = (list(prev.mean), prev.block)
        pred, state = motion_predict(prev)
        assert (list(prev.mean), prev.block) == before  # input untouched
        assert all(type(v) is float for v in state.mean)
        assert all(type(v) is float for v in pred.as_tuple())
        cov = motion_covariance(state)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0
        assert state.mean[2] >= MIN_SIZE and state.mean[3] >= MIN_SIZE
        assert pred == predicted_box(state)


@prop("motion", "update_conditions_toward_the_measurement",
      st.tuples(st.builds(BBox, coords, coords, st.floats(2.0, 200.0),
                          st.floats(2.0, 200.0)),
                st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
                st.floats(0.5, 1.5)))
def _(value):
    box, dx, dy, scale = value
    observed = BBox(box.x + dx, box.y + dy, box.w * scale, box.h * scale)
    _, prior = motion_predict(motion_init(box))
    post = motion_update(prior, observed)
    cov = motion_covariance(post)
    np.testing.assert_array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > -1e-8
    z = np.array([observed.cx, observed.cy, observed.w, observed.h])
    # one cycle from init keeps the measurement block diagonal, so the
    # posterior lands between the prior and the observation per component
    for i in range(4):
        assert abs(z[i] - post.mean[i]) <= abs(z[i] - prior.mean[i]) + 1e-9


@prop("motion", "cv_convergence",
      st.tuples(st.builds(BBox, coords, coords, st.floats(2.0, 150.0),
                          st.floats(2.0, 150.0)),
                st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                st.integers(15, 30)))
def _(value):
    box, vx, vy, n = value
    state = motion_init(box)
    for k in range(1, n + 1):
        _, state = motion_predict(state)
        state = motion_update(state, shifted(box, vx * k, vy * k))
    pred, _ = motion_predict(state)
    true = shifted(box, vx * (n + 1), vy * (n + 1))
    assert math.hypot(pred.cx - true.cx, pred.cy - true.cy) < 0.5


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

@st.composite
def scripted_world(draw):
    t = draw(st.integers(1, 6))
    tau = draw(st.integers(1, 9))
    script = {}
    for f in range(t + 1):
        k = draw(st.integers(1, 3))
        bs = tuple(BBox(20.0 * i + draw(st.floats(0.0, 5.0)), 3.0 * f, 6.0, 6.0)
                   for i in range(k))
        ss = tuple(draw(st.lists(unit_floats, min_size=k, max_size=k)))
        script[f] = RawCandidates(bs, ss)
    n_cands = draw(st.integers(1, 4))
    cands = CandidateSet(tuple(BBox(15.0 * i, 100.0, 8.0, 8.0)
                               for i in range(n_cands)),
                         (0.5,) * n_cands)
    return script, cands, t, tau


@prop("pools", "backtracks_follow_the_scripted_argmax", scripted_world())
def _(value):
    script, cands, t, tau = value
    frames = range(t - 1, t - 1 - min(tau, t), -1)
    tracklets = backtrack_all(cands, ScriptPort(script), frames)
    want = tuple(script[f].boxes[script[f].argmax()] for f in frames)
    assert len(tracklets) == len(cands)
    for tracklet in tracklets:
        assert tracklet.end_frame == t - 1
        assert tracklet.boxes == want


def _with_motion_box(cands: CandidateSet) -> CandidateSet:
    """`cands` with its last box turned into the motion box, where there is
    a real candidate before it."""
    n = len(cands)
    if n < 2:
        return cands
    return CandidateSet(cands.boxes, cands.scores[:-1] + (0.0,), n - 1)


@prop("pools", "top_tracklet_skips_port_calls",
      st.tuples(scripted_world(), st.booleans()))
def _(value):
    (script, cands, t, tau), motion = value
    cands = _with_motion_box(cands) if motion else cands
    sentinel = Tracklet(t - 1, (cands.boxes[0],))
    port = ScriptPort(script)
    frames = range(t - 1, t - 1 - min(tau, t), -1)
    tracklets = build_candidate_pool(cands, port, frames, sentinel)
    assert len(tracklets) == len(cands)
    assert [i for i, tracklet in enumerate(tracklets) if tracklet is sentinel] == [0]
    assert port.propose_calls == min(tau, t) * (len(cands) - 1)


@prop("pools", "rollover_shift_correctness",
      st.tuples(scripted_world(), st.integers(0, 3), st.booleans()))
def _(value):
    (script, cands, t, tau), sel, motion = value
    cands = _with_motion_box(cands) if motion else cands
    kal = cands.kalman_index
    tracklets = backtrack_all(cands, ScriptPort(script), range(t - 1, t - 1 - min(tau, t), -1))
    sel = min(sel, len(cands) - 1)
    rolled = update_neighbor_pool(cands, tracklets, sel, tau)
    want = tuple(((box,) + tracklet.boxes)[:tau]
                 for i, (box, tracklet) in enumerate(zip(cands.boxes, tracklets))
                 if i not in (sel, kal))
    assert tuple(tr.boxes for tr in rolled) == want
    assert all(tr.end_frame == t and len(tr) <= tau for tr in rolled)
    with pytest.raises(ValueError):
        update_neighbor_pool(cands, tracklets, len(cands) + 5, tau)


@prop("pools", "construction_guards", st.integers(1, 10**6))
def _(frame):
    # a neighbor that does not end on the candidates' frame is stale
    box = BBox(0, 0, 1, 1)
    with pytest.raises(ValueError):
        build_weights((Tracklet(frame, (box,)),), (Tracklet(frame + 1, (box,)),),
                      Tracklet(frame, (box,)))


# ---------------------------------------------------------------------------
# evalkit
# ---------------------------------------------------------------------------

_GOOD = BBox(20.0, 20.0, 10.0, 10.0)
_MISS = BBox(300.0, 300.0, 10.0, 10.0)


def _report(pred, gt, fail_iou=0.0) -> EvalReport:
    return EvalReport.compute(pred, box_scene(gt), 1, fail_iou)


@prop("evalkit", "reanchor_bookkeeping",
      st.lists(st.booleans(), min_size=1, max_size=40))
def _(flags):
    n = len(flags)
    pred = [_GOOD if ok else _MISS for ok in flags]
    res = _report(pred, [_GOOD] * n)
    i, fails, tracked = 0, [], 0
    while i < n:
        if flags[i]:
            tracked += 1
            i += 1
        else:
            fails.append(i)
            i += REANCHOR_SKIP
    assert res.n_failures == len(fails)
    assert res.robustness == tracked / n
    assert tracked == n - sum(min(REANCHOR_SKIP, n - f) for f in fails)
    assert res.accuracy == (1.0 if tracked else 0.0)


@prop("evalkit", "threshold_arithmetic",
      st.tuples(st.lists(st.integers(0, 64), min_size=1, max_size=30),
                st.integers(0, 63)))
def _(value):
    ks, cut = value
    gt = [BBox(0.0, 0.0, 64.0, 1.0)] * len(ks)
    pred = [BBox(0.0, 0.0, float(k), 1.0) if k else _MISS for k in ks]
    fail_iou = cut / 64.0
    res = _report(pred, gt, fail_iou)
    i, fails, tracked = 0, 0, []
    while i < len(ks):
        ov = ks[i] / 64.0  # contained boxes: overlap is exactly k/64
        if ov <= fail_iou:
            fails += 1
            i += REANCHOR_SKIP
        else:
            tracked.append(ov)
            i += 1
    assert res.n_failures == fails
    assert res.robustness == len(tracked) / len(ks)
    assert res.accuracy == (sum(tracked) / len(tracked) if tracked else 0.0)


@prop("evalkit", "success_curve_bounds",
      st.lists(st.tuples(boxes, boxes), min_size=1, max_size=30))
def _(pairs):
    res = _report([p for p, _ in pairs], [g for _, g in pairs])
    for v in (res.auc, res.precision, res.norm_precision, res.sr50, res.sr75):
        assert 0.0 <= v <= 1.0
    assert res.sr75 <= res.sr50
    assert res.auc >= 1 / 51
    # 51-point curve vs the exact mean: one threshold cell of slack
    assert abs(res.auc - res.ao) <= 1 / 51 + 1e-9


@prop("evalkit", "interval_means",
      st.lists(st.tuples(boxes, boxes), min_size=1, max_size=60))
def _(pairs):
    got = _report([p for p, _ in pairs], [g for _, g in pairs]).eao
    ious = [iou(p, g) for p, g in pairs]
    want = np.mean([np.mean(ious[:min(L, len(ious))]) for L in EAO_INTERVALS])
    assert got == pytest.approx(float(want), rel=1e-12, abs=1e-15)
    assert 0.0 <= got <= 1.0 + 1e-12


@prop("evalkit", "perfect_tracking_saturates", st.lists(boxes, min_size=1,
                                                        max_size=30))
def _(gt):
    res = _report(gt, gt)
    assert res.n_failures == 0
    assert res.robustness == 1.0
    assert abs(res.accuracy - 1.0) <= 1e-9
    assert res.precision == 1.0
    assert res.norm_precision == 1.0
    assert res.sr50 == 1.0
    assert res.auc >= 50 / 51


@st.composite
def partnered_boxes(draw):
    """Boxes, and for each one a partner that is often identical, nested in
    it or touching one of its edges."""
    first = draw(box_lists())
    return first, [draw(partner_box(a)) for a in first]


@prop("evalkit", "batch_iou_matches_iou_bit_for_bit", partnered_boxes())
def _(value):
    first, second = value
    want = [reference_iou(a, b).hex() for a, b in zip(first, second)]
    a, b = box_array(first), box_array(second)
    assert [v.hex() for v in batch_iou(a, b).tolist()] == want
    # broadcast against a stack of rows, as evaluation overlaps every object
    stacked = batch_iou(a, np.stack([a, b]))
    assert [v.hex() for v in stacked[1].tolist()] == want


@st.composite
def tied_scenes(draw):
    """A scene of 1-4 objects whose boxes come from a pool of at most three,
    so two objects often share a box and tie on every overlap, a target id,
    and a prediction whose boxes hit the pool, touch or nest in it, or lie
    far from everything."""
    length = draw(st.integers(1, 6))
    pool = draw(box_lists(1, 3))
    ids = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True))
    objects = tuple(
        ObjectSpec(i, tuple(draw(st.sampled_from(pool)) for _ in range(length)),
                   (1.0, 0.0, 0.0, 0.0))
        for i in ids)
    scene = Scene(length, 0, objects, static_appearance=(0.0, 0.0, 1.0, 0.0))
    far = BBox(5000.0, 5000.0, 1.0, 1.0)
    pred = [draw(st.one_of(st.just(far), st.sampled_from(pool),
                           st.sampled_from(pool).flatmap(partner_box)))
            for _ in range(length)]
    return scene, draw(st.sampled_from(ids)), pred


@prop("evalkit", "id_switches_follow_the_dominant_object", tied_scenes())
def _(value):
    scene, target, pred = value
    owners = [target] + [scene.dominant_object(box, f) for f, box in enumerate(pred)]
    want = sum(a != b for a, b in zip(owners, owners[1:]))
    assert EvalReport.compute(pred, scene, target).id_switches == want
