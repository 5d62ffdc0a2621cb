"""Synthetic tracking worlds with scripted occlusions.

A :class:`Scene` is a fully deterministic ground-truth world: each object
has, per frame, a true box, a visibility and a drift rate, and a unit
appearance vector that drifts as a spherical random walk at those rates
and is mixed toward the scene's wall vector as far as it is occluded. A
scene is generated from a scenario config and a seed, or built from a MOT
ground-truth file, which is also the one format a scene is written in. A
mock tracker implements the engine's port against a scene, proposing each
object near the prior at its true box, scored as visibility times the
cosine between the template appearance and the object's effective
(occlusion-mixed) appearance, which the scene stores once per distinct row.
"""
from __future__ import annotations

import json
import logging
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import BBox, Tracklet, box_array, iou, min_side
from .tracker_port import RawCandidates, TrackerPort, newest_first, segment_frames

log = logging.getLogger(__name__)

# The mock tracker searches within this many prior-box diagonals; the
# crossing scenario sizes its occlusion to carry the pair beyond it.
SEARCH_RADIUS_SCALE = 2.5

APPEARANCE_DIM = 16  # appearance length of generated and MOT-loaded scenes

SCENARIO_IDS = (1, 2)  # every generated scene's ids: the scripted target's, the other's


class MotFormatError(ValueError):
    """A MOT ground-truth file violated the expected row format."""


# ---------------------------------------------------------------------------
# scene specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectSpec:
    """One world object: identity, appearance, and per frame its true box,
    its visibility and its drift rate. An empty `visibility` means 1.0 at
    every frame, fully in view, and an empty `drift` 0.0. A visibility v
    below 1 mixes the appearance v to 1 - v toward the scene's wall
    vector; the rate at frame f drives the drift step from f to f + 1."""

    id: int
    boxes: tuple[BBox, ...]
    appearance: tuple[float, ...]
    visibility: tuple[float, ...] = ()
    drift: tuple[float, ...] = ()

    def __post_init__(self):
        for v in self.visibility:
            if not 0.0 <= v <= 1.0:  # false for NaN too
                raise ValueError(f"object {self.id}: visibility must lie in [0, 1], got {v!r}")
        for rate in self.drift:
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"object {self.id}: drift must be finite and >= 0, "
                                 f"got {rate!r}")


class _Table(NamedTuple):
    """One object's per-frame tables."""

    boxes: tuple[BBox, ...]  # the spec's own tuple, shared, not copied
    visibility: list[float]
    appearance: list[int]  # effective, drifted then mixed toward the wall:
    # per frame, its row of `Scene._appearances`
    cx: array  # centres, `BBox.cx` and `.cy` bit for bit; an `array('d')`
    cy: array  # takes a quarter of a float list's memory


@dataclass(eq=False)
class Scene:
    """Ground-truth world with precomputed per-frame observables."""

    length: int
    seed: int
    objects: tuple[ObjectSpec, ...]
    static_appearance: tuple[float, ...] | None = None

    _tables: dict = field(init=False, repr=False)  # id -> _Table, in id order
    _appearances: np.ndarray = field(init=False, repr=False)  # (distinct rows, dim)
    _box_array: np.ndarray = field(init=False, repr=False)  # (objects, length, 4)

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("scene needs at least one frame")
        ids = [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValueError("object ids must be unique")
        self.objects = tuple(sorted(self.objects, key=lambda o: o.id))
        for obj in self.objects:
            for name in ("boxes", "visibility", "drift"):  # only boxes may not be empty
                n = len(getattr(obj, name))
                if n != self.length and (n or name == "boxes"):
                    raise ValueError(f"object {obj.id}: {name!r} holds {n} entries, "
                                     f"the scene {self.length} frames")
        self._derive()

    # -- derived world state ------------------------------------------------

    def _derive(self):
        """`_tables` maps each object's id, in id order, to its `_Table`:
        true boxes, the spec's visibility as a list (1.0 at every frame for
        an empty table), effective appearance row indices and box centres.
        A frame's raw appearance `row` at visibility v below 1 is mixed as
        `v * row + (1.0 - v) * wall` and normalised: the one place a scene
        takes the complement. `_appearances` holds each distinct
        effective row once, bit for bit, in first-seen order: a default
        scenario's scene has 11 to 21, for 128 object frames. `_box_array`
        holds the same true boxes as one float array of shape (objects,
        length, 4), rows (x, y, w, h) and objects in id order: evaluation
        overlaps a whole prediction with every object in one call."""
        dim = len(self.objects[0].appearance) if self.objects else APPEARANCE_DIM
        if self.static_appearance is None:
            wall = _random_unit(np.random.default_rng([self.seed, 911]), dim)
            self.static_appearance = tuple(float(v) for v in wall)
        elif self.objects and len(self.static_appearance) != dim:
            raise ValueError(f"static_appearance has dimension {len(self.static_appearance)}, "
                             f"object {self.objects[0].id}'s appearance {dim}")
        wall = np.asarray(self.static_appearance, dtype=float)
        _length(wall, "static_appearance")
        self._tables = {}
        seen: dict[bytes, int] = {}  # each distinct effective row's bytes -> its index
        for obj in self.objects:
            vis = list(obj.visibility) or [1.0] * self.length
            index = []
            walk = self._walk_appearance(obj, dim)  # raw (drifted) appearance
            for f, v in enumerate(vis):
                row = walk[f]
                if v < 1.0:
                    mixed = v * row + (1.0 - v) * wall
                    n = np.linalg.norm(mixed)
                    if n == 0:
                        raise ValueError(f"object {obj.id}: the occlusion at frame {f} "
                                         f"mixes its appearance to zero")
                    row = mixed / n
                index.append(seen.setdefault(row.tobytes(), len(seen)))
            bs = obj.boxes
            self._tables[obj.id] = _Table(bs, vis, index,
                                          array("d", [b.cx for b in bs]),
                                          array("d", [b.cy for b in bs]))
        self._appearances = np.frombuffer(b"".join(seen)).reshape(len(seen), dim)
        self._box_array = box_array(
            [b for table in self._tables.values() for b in table.boxes]
        ).reshape(len(self.objects), self.length, 4)

    def _walk_appearance(self, obj: ObjectSpec, dim: int) -> np.ndarray:
        base = np.asarray(obj.appearance, dtype=float)
        if base.shape != (dim,):
            raise ValueError(f"object {obj.id}: appearance of shape {base.shape}, not ({dim},)")
        base = base / _length(base, f"object {obj.id}: appearance")
        out = np.empty((self.length, dim))
        out[0] = base
        if not any(obj.drift):
            out[1:] = base
            return out
        rng = np.random.default_rng([self.seed, obj.id, 1])
        steps = rng.standard_normal((self.length - 1, dim))
        what = f"object {obj.id}: drifted appearance"
        for f in range(1, self.length):
            out[f] = _unit(out[f - 1] + obj.drift[f - 1] * steps[f - 1], what)
        return out

    # -- queries ------------------------------------------------------------

    def ids(self) -> list[int]:
        return [o.id for o in self.objects]

    def true_box(self, obj_id: int, frame: int) -> BBox:
        return self._tables[obj_id].boxes[frame]

    def visibility(self, obj_id: int, frame: int) -> float:
        return self._tables[obj_id].visibility[frame]

    def effective_appearance(self, obj_id: int, frame: int) -> np.ndarray:
        return self._appearances[self._tables[obj_id].appearance[frame]]

    def dominant_object(self, box: BBox, frame: int) -> int | None:
        """Id of the object whose true box at `frame` overlaps `box` the
        most; a tie goes to the lower id, and None if nothing overlaps."""
        best_id, best_ov = None, 0.0
        for obj_id, table in self._tables.items():
            ov = iou(box, table.boxes[frame])
            if ov > best_ov:
                best_id, best_ov = obj_id, ov
        return best_id


# ---------------------------------------------------------------------------
# appearance helpers
# ---------------------------------------------------------------------------

def _length(v: np.ndarray, what: str) -> float:
    """Length of appearance `v`, checked finite and nonzero: a cosine needs it."""
    n = float(np.linalg.norm(v))  # NaN if an entry is
    if not 0.0 < n < math.inf:
        raise ValueError(f"{what} must be finite and not all zero")
    return n


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    return v / _length(v, what)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _unit(rng.standard_normal(dim), "a random appearance")


def _orthogonal_unit(rng: np.random.Generator, basis: list[np.ndarray]) -> np.ndarray:
    v = rng.standard_normal(len(basis[0]))
    for b in basis:
        v = v - np.dot(v, b) * b
    return _unit(v, "an orthogonal appearance")


def _unit_with_cosine(rng: np.random.Generator, u: np.ndarray, c: float) -> np.ndarray:
    """A unit vector whose cosine against unit vector `u` is exactly c."""
    w = _orthogonal_unit(rng, [u])
    return _unit(c * u + math.sqrt(max(0.0, 1.0 - c * c)) * w, "a look-alike appearance")


# ---------------------------------------------------------------------------
# mock tracker
# ---------------------------------------------------------------------------

class _Cosines(dict):
    """A template: appearance vector `vec`, under key j its cosine against
    `rows[j]`, computed on first use and kept, and `chains`, the boxes of
    each chain walked under it, keyed (first frame, direction, start box's
    x, y, w, h)."""

    __slots__ = ("vec", "rows", "chains")

    def __init__(self, vec: np.ndarray, rows: np.ndarray):
        self.vec, self.rows = vec, rows
        self.chains: dict[tuple, list[BBox]] = {}

    def __missing__(self, j: int) -> float:
        cos = self[j] = float(self.vec.dot(self.rows[j]))
        return cos


class MockTracker(TrackerPort):
    """Deterministic tracker over a :class:`Scene`.

    A template is an appearance vector, resolved once when it is cropped:
    the effective appearance, at the crop's frame, of the object its box
    overlaps the most, or zeros when it overlaps none. The port keeps one
    handle per such vector, a dict of its cosines against the scene's
    interned rows, each filled on first use; a fresh port holds none. A
    cosine is `float(vec.dot(row))` of the same bits as a dot against the
    object's own row at that frame, so the cache changes no score.
    Each object whose center lies within the search radius of the prior is
    proposed at its true box, scored by visibility times the clipped
    cosine between the template and the object's effective appearance.
    When nothing is in range the prior itself is returned at score zero,
    so a proposal always exists.
    Besides `make_template` and `propose`, it overrides the port's one
    optional method, `track_segment`, with a lean chain that the engine's
    backtracks and the argmax baseline both take. `propose` and the chain
    each have their own loop over the scene's per-object tables (the
    chain keeps a running argmax and builds no proposal list); the port
    conformance check in `tests/conformance.py` holds the two equal.
    A port frame reads each object's centre for the range test; only an
    object in range has its score looked up and its true box read.
    A template handle also keeps each chain of two or more frames walked
    under it, keyed by its first frame, start box (by value) and
    direction; a chain that joins a kept one, as consecutive frames'
    backtracks of one object do, takes its boxes (see `track_segment`).
    Like the cosines, the chains live on this port's handles, never on
    the scene.
    `port_frames` counts the backbone passes asked of this port, the
    engine's cost: one per `propose` call, one per `track_segment` frame,
    whether the chain walks that frame or reuses a known box for it.
    """

    def __init__(self, scene: Scene):
        self.scene = scene
        # the scene's tables as plain tuples in a tuple: CPython unpacks an
        # exact tuple, and walks a tuple, faster than a NamedTuple in a dict
        self._tables = tuple(map(tuple, scene._tables.values()))
        self._templates: dict[int | None, _Cosines] = {}  # row index, None for zeros
        self.port_frames = 0

    def _check_frame(self, frame: int) -> None:
        if not (0 <= frame < self.scene.length):
            raise ValueError(f"frame {frame} outside scene [0, {self.scene.length})")

    def make_template(self, frame: int, box: BBox) -> _Cosines:
        """What the crop at `box` in `frame` looks like: the effective
        appearance of the object overlapping it the most, else zeros."""
        self._check_frame(frame)
        scene = self.scene
        best_id = scene.dominant_object(box, frame)
        j = None if best_id is None else scene._tables[best_id].appearance[frame]
        template = self._templates.get(j)
        if template is None:
            vec = (np.zeros(len(scene.static_appearance)) if j is None
                   else scene._appearances[j])
            template = self._templates[j] = _Cosines(vec, scene._appearances)
        return template

    def propose(self, template: _Cosines, frame: int, prior: BBox) -> RawCandidates:
        self._check_frame(frame)
        self.port_frames += 1
        # the prior's centre exactly as `BBox.cx` and `.cy`
        pw, ph = prior.w, prior.h
        pcx, pcy = prior.x + pw / 2.0, prior.y + ph / 2.0
        radius = SEARCH_RADIUS_SCALE * math.hypot(pw, ph)
        boxes: list[BBox] = []
        scores: list[float] = []
        for obj_boxes, vis, app, cxs, cys in self._tables:
            if math.hypot(pcx - cxs[frame], pcy - cys[frame]) > radius:
                continue
            s = vis[frame] * template[app[frame]]
            boxes.append(obj_boxes[frame])
            scores.append(0.0 if s < 0.0 else 1.0 if s > 1.0 else s)
        if not boxes:
            return RawCandidates((prior,), (0.0,))
        return RawCandidates(tuple(boxes), tuple(scores))

    def track_segment(self, template: _Cosines, start: BBox,
                      frames: Sequence[int]) -> Tracklet:
        """The base class's chain, lean: the frames are checked once, and
        boxes already walked under `template` are taken, not walked again.
        The first step is walked; the chain kept under (second frame, that
        step's box, direction) gives what it holds of the rest, and what
        it lacks is walked on from the last box. The chain is then kept
        under its own (first frame, start box, direction). By the port's
        determinism a chain is a function of that key, the direction
        fixing every frame after the first, so a kept chain holds exactly
        the boxes a walk would find. A one-frame chain has nothing to take
        and has no direction, so it is walked and not kept."""
        frames = segment_frames(frames)
        first, n = frames[0], len(frames)
        self._check_frame(first)
        self._check_frame(frames[-1])
        self.port_frames += n
        chain = self._walk(template, start, frames[:1])
        if n > 1:
            step = frames[1] - first
            # a box enters a key as its four floats: a tuple of floats
            # hashes and compares in C, a `BBox` through Python calls
            b = chain[0]
            chain += template.chains.get((frames[1], step, b.x, b.y, b.w, b.h), ())[:n - 1]
            if len(chain) < n:
                chain += self._walk(template, chain[-1], frames[len(chain):])
            template.chains[first, step, start.x, start.y, start.w, start.h] = chain
        return newest_first(frames, chain)

    def _walk(self, template: _Cosines, prior: BBox, frames: Sequence[int]) -> list[BBox]:
        """The chain's box at each of `frames`, the first step searching
        around `prior`: a running argmax over the proposals as `propose`
        orders and scores them, ties going to the first."""
        tables = self._tables
        hypot = math.hypot
        chain = []
        for f in frames:
            pw, ph = prior.w, prior.h
            pcx, pcy = prior.x + pw / 2.0, prior.y + ph / 2.0
            radius = SEARCH_RADIUS_SCALE * hypot(pw, ph)
            best, top = prior, -math.inf
            for obj_boxes, vis, app, cxs, cys in tables:
                if hypot(pcx - cxs[f], pcy - cys[f]) > radius:
                    continue
                s = vis[f] * template[app[f]]
                score = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
                if score > top:
                    best, top = obj_boxes[f], score
            prior = best
            chain.append(best)
        return chain


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Parameter ranges for scripted scenes; values are sampled per seed.

    `similarity` is the distractor-vs-target appearance cosine and
    `severity` the occlusion strength. The defaults keep every draw inside
    the band where an obscured target still outscores the distractor under
    its own current appearance (so backtracking holds on) yet loses to it
    under the stale start-frame template (so a plain argmax tracker takes
    the bait): for severity s the distractor cosine must stay between
    (1-s)^2/m and m, with m = hypot(1-s, s), with enough slack on the
    upper side to survive one taper step of template mismatch. Severities
    are sampled on a 1/256 grid, which keeps `1 - v` exact, so the
    appearance mix keeps its bits.
    """

    kind: str
    length: int = 64
    bounds: tuple[float, float] = (512.0, 512.0)
    appearance_dim: int = APPEARANCE_DIM
    box_size: float = 40.0
    similarity: tuple[float, float] = (0.71, 0.73)
    severity: tuple[float, float] = (0.26171875, 0.296875)
    speed: tuple[float, float] = (3.5, 4.5)
    lane_gap: tuple[float, float] = (55.0, 75.0)
    drift: float = 0.0

    def __post_init__(self):
        _require("kind", self.kind, self.kind in SCENARIOS, f"one of {SCENARIOS}")
        min_length = _SCENARIO_TABLE[self.kind][1]
        _require("length", self.length, type(self.length) is int and self.length >= min_length,
                 f"an integer >= {min_length}")
        # the wall vector must be orthogonal to both the target and the
        # distractor, which two dimensions leave no room for
        _require("appearance_dim", self.appearance_dim,
                 type(self.appearance_dim) is int and self.appearance_dim >= 3,
                 "an integer >= 3")
        _require("box_size", self.box_size, _finite(self.box_size) and self.box_size > 0,
                 "finite and > 0")
        _require("drift", self.drift, _finite(self.drift) and self.drift >= 0,
                 "finite and >= 0")
        for name in ("bounds", "similarity", "severity", "speed", "lane_gap"):
            pair = getattr(self, name)
            _require(name, pair, type(pair) is tuple and len(pair) == 2
                     and all(map(_finite, pair)), "a pair of finite numbers")
        for name in ("similarity", "severity", "speed", "lane_gap"):
            lo, hi = getattr(self, name)
            _require(name, (lo, hi), lo <= hi, "an ordered range")
        _require("bounds", self.bounds, min(self.bounds) > 0, "> 0")
        _require("similarity", self.similarity,
                 -1.0 <= self.similarity[0] and self.similarity[1] <= 1.0, "within [-1, 1]")
        lo_t, hi_t = _severity_grid(*self.severity)
        _require("severity", self.severity, 0.0 < self.severity[0] and self.severity[1] <= 1.0
                 and lo_t <= hi_t, "within (0, 1] and hold a multiple of 1/256")
        _require("speed", self.speed, self.speed[0] > 0, "> 0")
        # every scenario's boxes lie within `far` of the origin: the bounds,
        # the largest speed over the length, the widest lane gap, a box
        # side, the 40 px start and the lanes up to 90 px below mid-height
        far = (max(self.bounds) + self.speed[1] * self.length
               + max(map(abs, self.lane_gap)) + self.box_size + 130.0)
        try:
            BBox(far, far, self.box_size, self.box_size)
            if self.box_size < min_side(far):  # another corner may round more than `far`
                raise ValueError(f"a side below {min_side(far)!r} need not measure itself")
        except ValueError as exc:
            raise ValueError(f"box_size, bounds, speed and lane_gap must make valid boxes, got "
                             f"a side of {self.box_size!r} at {far!r}: {exc}") from None

    @classmethod
    def from_file(cls, path: FsPath | str, kind: str) -> "ScenarioConfig":
        """The `kind` config a JSON object file describes; the file may leave
        its `kind` out, but may not name another one."""
        fields = {"kind": kind, **json.loads(FsPath(path).read_text())}
        if fields["kind"] != kind:
            raise ValueError(f"the file's kind {fields['kind']!r} differs from {kind!r}")
        # every field is a scalar or a flat pair, which JSON writes as a list
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


def _finite(value) -> bool:
    """A finite int or float, and not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _require(name: str, value, ok: bool, rule: str) -> None:
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _severity_grid(lo: float, hi: float) -> tuple[int, int]:
    """The first and last multiple of 1/256 in [lo, hi], in 256ths."""
    return math.ceil(lo * 256), math.floor(hi * 256)


def _sample_severity(rng: np.random.Generator, lo: float, hi: float) -> float:
    # 1/256 grid: the visibility 1 - s, and its own complement, are exact
    lo_t, hi_t = _severity_grid(lo, hi)
    return int(rng.integers(lo_t, hi_t + 1)) / 256.0

TAPER_STEP = 8.0 / 256


def _tapered_occlusion(length: int, start: int, end: int, sev: float) -> tuple[float, ...]:
    """The visibility, 1 - severity, at each of `length` frames of an
    occlusion at full severity `sev` over [start, end] that then fades out
    one severity step of `TAPER_STEP` per frame; frames past the last are
    cut off.

    A hard trailing edge would leave a freshly-visible target whose recent
    past is still fully obscured; nothing cropped at the clear frame can
    follow the target back through that stretch, because the look-alike
    scores higher there by the very margin that makes the scene a trap.
    Fading one step per frame keeps each frame's immediate past matchable
    from that frame's own appearance. Steps stay on the dyadic grid, so
    each visibility's complement is exact."""
    if not 0 <= start < length or end < start:
        raise ValueError(f"occlusion [{start}, {end}] must start inside frames 0..{length - 1}"
                         " and end no earlier than it starts")
    visibility = [1.0] * length
    level = sev
    for f in range(start, length):
        if level <= 1e-12:
            break
        visibility[f] = 1.0 - level
        if f >= end:
            level -= TAPER_STEP
    return tuple(visibility)


def _lane(cfg: ScenarioConfig, x0: float, x1: float, cy: float) -> tuple[BBox, ...]:
    """A straight lane at height `cy`, centred on `x0` at frame 0 and on
    `x1` at the last."""
    size, n = cfg.box_size, cfg.length - 1
    return tuple(BBox(x0 + f / n * (x1 - x0) - size / 2.0, cy - size / 2.0, size, size)
                 for f in range(cfg.length))


def _pair_scene(cfg: ScenarioConfig, seed: int, rng: np.random.Generator, similarity: float,
                target_boxes: tuple[BBox, ...], other_boxes: tuple[BBox, ...],
                **script) -> Scene:
    """The scene of the target, which takes `script` (its `visibility` or
    its `drift`), and one other object, ids `SCENARIO_IDS`; each drifts at
    `cfg.drift` unless its script says otherwise. Their appearances are
    drawn last from `rng`, at cosine `similarity`, plus a wall vector
    orthogonal to both so occlusion adds no bias."""
    u = _random_unit(rng, cfg.appearance_dim)
    v = _unit_with_cosine(rng, u, similarity)
    residual = v - np.dot(v, u) * u
    basis = [u] if np.linalg.norm(residual) < 1e-12 else [u, _unit(residual, "a residual")]
    wall = _orthogonal_unit(rng, basis)
    steady = (cfg.drift,) * cfg.length if cfg.drift else ()
    target = ObjectSpec(SCENARIO_IDS[0], target_boxes, tuple(map(float, u)),
                        **{"drift": steady, **script})
    other = ObjectSpec(SCENARIO_IDS[1], other_boxes, tuple(map(float, v)), drift=steady)
    return Scene(cfg.length, seed, (target, other), static_appearance=tuple(map(float, wall)))


def _gen_crossing(cfg: ScenarioConfig, seed: int) -> Scene:
    """Two look-alikes in opposing lanes crossing mid-sequence; the target
    is obscured around the cross long enough for an argmax tracker to be
    carried out of its own search range. The lanes sit three quarters of a
    box apart vertically, which keeps the pair's overlap low enough that
    suppression never collapses them into a single detection."""
    rng = np.random.default_rng([seed, 101])
    v = float(rng.uniform(*cfg.speed))
    sim = float(rng.uniform(*cfg.similarity))
    sev = _sample_severity(rng, *cfg.severity)
    t_meet = int(cfg.length * 0.42)
    cy = cfg.bounds[1] / 2.0
    mid = cfg.bounds[0] / 2.0
    radius = SEARCH_RADIUS_SCALE * math.hypot(cfg.box_size, cfg.box_size)
    dy = 0.75 * cfg.box_size
    # full-strength occlusion holds until the pair has separated beyond the
    # search radius; the fade tail comes on top of that
    w_pre = int(rng.integers(8, 13))
    w_post = int(math.ceil((radius + 5.0) / (2.0 * v))) + 1
    start, end = t_meet - w_pre, min(t_meet + w_post, cfg.length - 12)
    before, after = v * t_meet, v * (cfg.length - 1 - t_meet)  # distances to and from the meeting
    target = _lane(cfg, mid - before, mid + after, cy - dy / 2.0)
    distractor = _lane(cfg, mid + before, mid - after, cy + dy / 2.0)
    return _pair_scene(cfg, seed, rng, sim, target, distractor,
                       visibility=_tapered_occlusion(cfg.length, start, end, sev))


def _gen_convoy(cfg: ScenarioConfig, seed: int) -> Scene:
    """Two look-alikes on parallel lanes; the target lane is obscured for a
    stretch while the companion stays in plain view."""
    rng = np.random.default_rng([seed, 202])
    v = float(rng.uniform(*cfg.speed))
    sim = float(rng.uniform(*cfg.similarity))
    sev = _sample_severity(rng, *cfg.severity)
    gap = float(rng.uniform(*cfg.lane_gap))
    start = int(rng.integers(14, 19))
    end = start + int(rng.integers(12, 17))
    cy = cfg.bounds[1] / 2.0
    x1 = 40.0 + v * (cfg.length - 1)
    return _pair_scene(cfg, seed, rng, sim, _lane(cfg, 40.0, x1, cy - gap / 2.0),
                       _lane(cfg, 40.0, x1, cy + gap / 2.0),
                       visibility=_tapered_occlusion(cfg.length, start, end, sev))


def _gen_deform(cfg: ScenarioConfig, seed: int) -> Scene:
    """A single weaving target whose appearance drifts sharply for a spell,
    and a mildly similar bystander on a straight lane 90 px below it, from
    x 40 at the target's speed for the whole scene."""
    rng = np.random.default_rng([seed, 303])
    v = float(rng.uniform(*cfg.speed))
    spike_start = int(rng.integers(20, 27))
    spike_end = spike_start + int(rng.integers(8, 13))
    drift = tuple(max(cfg.drift, 0.12) if spike_start <= f <= spike_end else cfg.drift
                  for f in range(cfg.length))
    cy = cfg.bounds[1] / 2.0
    size, half = cfg.box_size, cfg.box_size / 2.0
    # the weave: at the target's speed from x 40, up to 30 px either side of
    # mid-height, one period every 40 frames
    weave = tuple(BBox(40.0 + v * f - half, cy + 30.0 * math.sin(2.0 * math.pi * f / 40.0) - half,
                       size, size) for f in range(cfg.length))
    return _pair_scene(cfg, seed, rng, 0.5, weave,
                       _lane(cfg, 40.0, 40.0 + v * (cfg.length - 1), cy + 90.0),
                       drift=drift)


# kind -> (generator, shortest length): the first length at which every
# seed's scripted event happens inside the scene. A crossing's occlusion
# starts at int(0.42 * length) minus up to 12 frames, frame 0 or later only
# from 29 on; a convoy's starts by frame 18; a deform's drift spike starts
# by frame 26 and first changes the appearance one frame later.
_SCENARIO_TABLE = {"crossing": (_gen_crossing, 29), "convoy": (_gen_convoy, 19),
                   "deform": (_gen_deform, 28)}
SCENARIOS = tuple(_SCENARIO_TABLE)


def generate_scene(cfg: ScenarioConfig, seed: int) -> Scene:
    """Deterministic scripted scene for (config, seed)."""
    return _SCENARIO_TABLE[cfg.kind][0](cfg, seed)


# ---------------------------------------------------------------------------
# MOT ground-truth text format
# ---------------------------------------------------------------------------

def save_mot(scene: Scene, path: FsPath | str) -> None:
    """Write per-frame ground truth as MOT rows.

    Columns: frame (1-based), id, x, y, w, h, conf, class, visibility.
    Floats are written with repr so a read-back parses to identical values.
    """
    lines = []
    for f in range(scene.length):
        for obj in scene.objects:
            b = scene.true_box(obj.id, f)
            vis = scene.visibility(obj.id, f)
            lines.append(f"{f + 1},{obj.id},{b.x!r},{b.y!r},{b.w!r},{b.h!r},1,1,{vis!r}")
    FsPath(path).write_text("\n".join(lines) + "\n")


# per id, in id order: (id, its true box and its visibility at each frame)
MotTracks = tuple[tuple[int, tuple[BBox, ...], tuple[float, ...]], ...]


def parse_mot(path: FsPath | str) -> MotTracks:
    """The tracks of a MOT ground-truth file, one per id, in id order.

    Each frame keeps the visibility its row gives. An id's track is filled
    in one pass over its annotated frames: before the first it holds the
    first row, between two it interpolates box and visibility linearly,
    with one warning per gap, and after the last it holds the last row.
    Malformed rows fail with the offending line number, and so does a
    height whose square overflows (the motion filter squares it); a gap
    whose interpolated box is not a valid `BBox` fails naming the id and
    the lines on either side. A file that is not UTF-8 text (a leading
    byte order mark is skipped), or that spans fewer than the two frames
    a run steps from, fails naming the file.
    """
    per_id: dict[int, dict[int, tuple[BBox, float]]] = {}
    linenos: dict[tuple[int, int], int] = {}  # (id, 0-based frame) -> its line
    max_frame = 0
    try:
        text = FsPath(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MotFormatError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise MotFormatError(f"{path}: line {lineno}: expected 9 comma-separated "
                                 f"fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            obj_id = int(parts[1])
            box = BBox(*(float(p) for p in parts[2:6]))
            float(parts[6]), float(parts[7])  # conf and class: checked, not kept
            vis = float(parts[8])
        except ValueError as exc:
            raise MotFormatError(f"{path}: line {lineno}: {exc}") from None
        if frame < 1:
            raise MotFormatError(f"{path}: line {lineno}: frame must be >= 1, got {frame}")
        if not (0.0 <= vis <= 1.0):
            raise MotFormatError(f"{path}: line {lineno}: visibility {vis} "
                                 f"outside [0, 1]")
        if not box.h * box.h < math.inf:
            raise MotFormatError(f"{path}: line {lineno}: height {box.h} too large: "
                                 f"the motion filter squares it")
        entry = per_id.setdefault(obj_id, {})
        if frame - 1 in entry:
            raise MotFormatError(f"{path}: line {lineno}: duplicate row for "
                                 f"id {obj_id} at frame {frame}")
        entry[frame - 1] = (box, vis)
        linenos[obj_id, frame - 1] = lineno
        max_frame = max(max_frame, frame)
    if not per_id:
        raise MotFormatError(f"{path}: no data rows")
    if max_frame < 2:
        raise MotFormatError(f"{path}: spans frame 1 only; a run needs at least two frames")

    tracks = []
    for obj_id in sorted(per_id):
        rows = per_id[obj_id]
        frames = sorted(rows)
        filled = [rows[frames[0]]] * frames[0]  # (box, visibility) per frame
        for a, b in zip(frames, frames[1:]):
            filled.append(rows[a])
            if b - a > 1:
                log.warning("%s: id %d missing frames %d..%d, interpolating",
                            path, obj_id, a + 2, b)  # report in 1-based file frames
            (ba, va), (bb, vb) = rows[a], rows[b]
            try:
                for f in range(a + 1, b):
                    t = (f - a) / (b - a)
                    filled.append((BBox(ba.x + t * (bb.x - ba.x), ba.y + t * (bb.y - ba.y),
                                        ba.w + t * (bb.w - ba.w), ba.h + t * (bb.h - ba.h)),
                                   va + t * (vb - va)))
            except ValueError as exc:
                raise MotFormatError(
                    f"{path}: id {obj_id}: interpolating between lines "
                    f"{linenos[obj_id, a]} and {linenos[obj_id, b]}: {exc}") from None
        filled += [rows[frames[-1]]] * (max_frame - frames[-1])
        boxes, visibility = zip(*filled)
        tracks.append((obj_id, boxes, visibility))
    return tuple(tracks)


def mot_scene(tracks: MotTracks, seed: int) -> Scene:
    """The scene of parsed MOT `tracks`; appearance vectors are drawn per id
    from `seed`, which nothing else depends on."""
    objects = tuple(
        ObjectSpec(obj_id, boxes, tuple(float(v) for v in _random_unit(
            np.random.default_rng([seed, obj_id]), APPEARANCE_DIM)), visibility=visibility)
        for obj_id, boxes, visibility in tracks)
    return Scene(len(tracks[0][1]), seed, objects)
