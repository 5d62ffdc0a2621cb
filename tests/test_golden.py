"""Decisions stay exactly as they are: the golden table regenerates bit
for bit, and its digests are those of the files `retrack track` writes."""
import hashlib

import golden
from retrack.cli import main


def _table() -> dict[tuple[str, str, str], str]:
    lines = golden.TABLE.read_text().splitlines()
    assert lines[0] == golden.HEADER
    return {tuple(line.split("\t")[:3]): line for line in lines[1:]}


def test_golden_table_regenerates_unchanged():
    want = _table()
    got = {tuple(line.split("\t")[:3]): line for line in golden.rows()}
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} golden rows changed, first {changed[:5]}"


def test_table_covers_every_gate():
    gates = set()
    for line in _table().values():
        gates.update(part.split("=")[0] for part in line.split("\t")[4].split(","))
    assert gates == {"single_candidate", "history_overlap", "fired"}


def test_digest_is_that_of_the_track_command(tmp_path):
    assert main(["track", "--scenario", "crossing", "--seeds", "0",
                 "--out", str(tmp_path)]) == 0
    text = b"".join((tmp_path / f"crossing_0000{suffix}").read_bytes()
                    for suffix in ("_baseline.csv", "_engine.csv", "_engine_log.jsonl"))
    row = _table()[("crossing", "0", "default")]
    assert row.split("\t")[3] == hashlib.sha256(text).hexdigest()


def _eval_table() -> dict[tuple[str, str, str], str]:
    lines = golden.EVAL_TABLE.read_text().splitlines()
    assert lines[0] == golden.EVAL_HEADER
    return {tuple(line.split("\t")[:3]): line for line in lines[1:]}


def test_evaluation_table_regenerates_unchanged():
    want = _eval_table()
    got = {tuple(line.split("\t")[:3]): line for line in golden.eval_rows()}
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} evaluation rows changed, first {changed[:5]}"


def test_evaluation_digest_is_that_of_the_evaluate_command(tmp_path):
    assert main(["evaluate", "--scenario", "deform", "--seeds", "3",
                 "--fail-iou", "0.3", "--out", str(tmp_path)]) == 0
    row = _eval_table()[("deform", "3", "0.3")]
    text = (tmp_path / "comparison.csv").read_bytes()
    assert row.split("\t")[3] == hashlib.sha256(text).hexdigest()


def test_hard_evaluation_digest_is_that_of_the_evaluate_command(tmp_path):
    assert main(["evaluate", "--scenario", "convoy", "--config", str(golden.HARD),
                 "--seeds", "2", "--out", str(tmp_path)]) == 0
    row = _eval_table()[("hard_convoy", "2", "0.0")]
    text = (tmp_path / "comparison.csv").read_bytes()
    assert row.split("\t")[3] == hashlib.sha256(text).hexdigest()
