"""Command-line behavior: exit codes, file outputs, determinism."""
import json
import math
import sys
from pathlib import Path

import click
import pytest

from conftest import zero_iou_scene
from retrack.cli import ConfigError, _aggregate, _parse_seeds, main
from retrack.simworld import ScenarioConfig, generate_scene, save_mot


def _read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestSeedParsing:
    def test_forms(self):
        assert _parse_seeds("0:3") == [0, 1, 2]
        assert _parse_seeds("3,7,19") == [3, 7, 19]
        assert _parse_seeds("5") == [5]
        assert _parse_seeds(" 1:3 ") == [1, 2]

    def test_rejects_garbage_and_empty(self):
        with pytest.raises(ConfigError):
            _parse_seeds("abc")
        with pytest.raises(ConfigError):
            _parse_seeds("5:5")

    @pytest.mark.parametrize("text, message", [
        ("-1", "seed -1 is negative"), ("-3:2", "seed -3 is negative"),
        ("4,-2", "seed -2 is negative"), ("1,1", "seed 1 is repeated"),
        ("3,7,3", "seed 3 is repeated"),
    ])
    def test_rejects_negative_and_repeated_seeds(self, text, message):
        with pytest.raises(ConfigError, match=message):
            _parse_seeds(text)


class TestAggregate:
    def test_means_and_deltas(self):
        rows = [
            {"baseline": {"auc": 0.25}, "engine": {"auc": 0.75}},
            {"baseline": {"auc": 0.75}, "engine": {"auc": 0.75}},
        ]
        agg = _aggregate(rows)
        assert agg["baseline"]["auc"] == 0.5
        assert agg["engine"]["auc"] == 0.75
        assert agg["delta"]["auc"] == 0.25

    def test_identical_systems_have_zero_delta(self):
        rows = [{"baseline": {"robustness": 0.625}, "engine": {"robustness": 0.625}}]
        assert _aggregate(rows)["delta"]["robustness"] == 0.0


class TestConfigFile:
    @staticmethod
    def _track(tmp_path, config, name="runs"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / name
        code = main(["track", "--scenario", "convoy", "--seeds", "0", "--config", str(cfg),
                     "--out", str(out)])
        return code, out

    def test_config_file_overrides_defaults(self, tmp_path):
        code, out = self._track(tmp_path, '{"kind": "convoy", "length": 32}')
        assert code == 0
        assert len((out / "convoy_0000_engine.csv").read_text().splitlines()) == 2 + 32

    def test_config_file_may_leave_kind_out(self, tmp_path):
        assert self._track(tmp_path, '{"length": 32}', "without")[0] == 0
        assert self._track(tmp_path, '{"kind": "convoy", "length": 32}', "with")[0] == 0
        assert _read_dir(tmp_path / "without") == _read_dir(tmp_path / "with")

    def test_config_file_kind_must_match_the_scenario(self, tmp_path, capsys):
        code, out = self._track(tmp_path, '{"kind": "crossing", "length": 32}')
        assert code == 1
        err = capsys.readouterr().err
        assert "'crossing'" in err and "'convoy'" in err
        assert not out.exists()

    # a box side whose square underflows or overflows, or a speed that carries
    # the boxes past the largest float: no `BBox` can hold it; a side so small
    # that some box within the scene's reach need not measure itself
    @pytest.mark.parametrize("text", ['{"bogus": 1}', '[32]', '{"box_size": 1e-200}',
                                      '{"box_size": 1e200}', '{"speed": [1e307, 1e307]}',
                                      '{"box_size": 1.1186440677966102e-08}'])
    def test_bad_config_file(self, tmp_path, text):
        code, out = self._track(tmp_path, text)
        assert code == 1
        assert not out.exists()


class TestTrack:
    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        args = ["track", "--scenario", "convoy", "--seeds", "0:2"]
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(one)]) == 0
        assert main(args + ["--out", str(two)]) == 0
        files = _read_dir(one)
        assert set(files) == {
            "convoy_0000_baseline.csv", "convoy_0000_engine.csv",
            "convoy_0000_engine_log.jsonl",
            "convoy_0001_baseline.csv", "convoy_0001_engine.csv",
            "convoy_0001_engine_log.jsonl",
        }
        assert files == _read_dir(two)

    def test_parallel_jobs_match_serial(self, tmp_path):
        base = ["track", "--scenario", "convoy", "--seeds", "0:2"]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert _read_dir(serial) == _read_dir(parallel)

    def test_workers_capped_at_the_run_count(self, tmp_path, monkeypatch):
        made = []

        class InProcessPool:
            """Records `max_workers` and maps in this process, so no
            worker process is started."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("retrack.cli.ProcessPoolExecutor", InProcessPool)
        out = tmp_path / "runs"
        assert main(["track", "--scenario", "convoy", "--seeds", "0:2",
                     "--jobs", "64", "--out", str(out)]) == 0
        assert made == [2]
        assert len(list(out.iterdir())) == 6

    def test_csv_headers_embed_the_resolved_config(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["track", "--scenario", "convoy", "--seeds", "0",
                     "--tau", "5", "--out", str(out)]) == 0
        head = (out / "convoy_0000_engine.csv").read_text().splitlines()
        assert head[0].startswith("# retrack-track-v1 config=")
        config = json.loads(head[0].split("config=", 1)[1])
        assert config["engine"]["tau"] == 5
        assert config["seed"] == 0
        assert config["source"] == "convoy"
        assert head[1] == "frame,x,y,w,h"
        assert len(head) == 2 + 64  # one data row per frame

    def test_environment_sets_no_flag(self, tmp_path, monkeypatch):
        """A run is fixed by its flags: variables named like a flag are ignored."""
        monkeypatch.setenv("RETRACK_TRACK_TAU", "5")
        monkeypatch.setenv("RETRACK_TRACK_NO_KALMAN", "1")
        out = tmp_path / "runs"
        assert main(["track", "--scenario", "convoy", "--seeds", "0",
                     "--out", str(out)]) == 0
        head = (out / "convoy_0000_engine.csv").read_text().splitlines()[0]
        engine = json.loads(head.split("config=", 1)[1])["engine"]
        assert engine["tau"] == 9 and engine["use_kalman"] is True

    def test_baseline_only_skips_engine_outputs(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["track", "--scenario", "convoy", "--seeds", "0",
                     "--baseline-only", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["convoy_0000_baseline.csv"]

    def test_decision_log_shows_the_gate_firing(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["track", "--scenario", "crossing", "--seeds", "7",
                     "--out", str(out)]) == 0
        lines = (out / "crossing_0007_engine_log.jsonl").read_text().splitlines()
        assert "config" in json.loads(lines[0])
        records = [json.loads(l) for l in lines[1:]]
        assert any(r["gate"] == "fired" for r in records)
        assert all(r["weights"] is None for r in records if r["gate"] != "fired")

    def test_mot_ingestion(self, tmp_path):
        gt = tmp_path / "gt.txt"
        save_mot(generate_scene(ScenarioConfig("convoy"), 0), gt)
        out = tmp_path / "runs"
        assert main(["track", "--mot", str(gt), "--seeds", "0",
                     "--out", str(out)]) == 0
        assert (out / "gt_0000_engine.csv").exists()

    def test_mot_file_is_read_once(self, tmp_path, monkeypatch):
        """One parse serves the target check and every seed's scene."""
        gt = tmp_path / "gt.txt"
        save_mot(generate_scene(ScenarioConfig("convoy"), 0), gt)
        opened = []
        real_open = Path.open

        def counting_open(path, *args, **kwargs):
            opened.extend([path] if path == gt else [])
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        assert main(["track", "--mot", str(gt), "--seeds", "0:3", "--jobs", "1",
                     "--out", str(tmp_path / "runs")]) == 0
        assert len(opened) == 1

    def test_each_seed_generates_its_scene_once(self, tmp_path, monkeypatch):
        """`--target-id` is checked against the scenario ids, with no scene
        built for it."""
        seeds = []

        def counting_generate(cfg, seed):
            seeds.append(seed)
            return generate_scene(cfg, seed)

        monkeypatch.setattr("retrack.cli.generate_scene", counting_generate)
        assert main(["track", "--scenario", "convoy", "--seeds", "0:3", "--target-id", "2",
                     "--jobs", "1", "--out", str(tmp_path / "runs")]) == 0
        assert seeds == [0, 1, 2]

    def test_motion_box_rows_are_plain_floats(self, tmp_path):
        # the blackout scene selects the motion-predicted box on some frames
        mot = tmp_path / "z.txt"
        save_mot(zero_iou_scene(), mot)
        out = tmp_path / "runs"
        assert main(["track", "--mot", str(mot), "--seeds", "0", "--target-id", "2",
                     "--out", str(out)]) == 0
        records = [json.loads(l) for l in
                   (out / "z_0000_engine_log.jsonl").read_text().splitlines()[1:]]
        assert any(r["source"] == "kalman_fallback" for r in records)
        text = (out / "z_0000_engine.csv").read_text()
        assert "np.float64" not in text
        for row in text.splitlines()[2:]:
            frame, *coords = row.split(",")
            int(frame)
            assert len(coords) == 4
            for v in coords:
                float(v)


class TestEvaluate:
    def test_report_and_comparison(self, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["evaluate", "--scenario", "crossing", "--seeds", "0:2",
                     "--out", str(out)]) == 0
        echoed = capsys.readouterr().out
        assert "baseline robustness" in echoed
        assert "engine robustness" in echoed
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"config", "aggregate", "per_seed"}
        assert len(report["per_seed"]) == 2
        agg = report["aggregate"]
        assert agg["engine"]["robustness"] > agg["baseline"]["robustness"]
        header = (out / "comparison.csv").read_text().splitlines()[0].split(",")
        assert header[:2] == ["name", "seed"]
        assert "baseline_auc" in header and "delta_robustness" in header

    def test_identical_predictions_have_all_zero_deltas(self, tmp_path):
        # unchallenged drift scenes: the gate never fires, the engine output
        # is the baseline output, every delta collapses to exactly zero
        out = tmp_path / "eval"
        assert main(["evaluate", "--scenario", "deform", "--seeds", "0:2",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(v == 0.0 for v in report["aggregate"]["delta"].values())
        lines = (out / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        delta_cols = [i for i, h in enumerate(header) if h.startswith("delta_")]
        for line in lines[1:]:
            cells = line.split(",")
            assert all(cells[i] in ("0.0", "0") for i in delta_cols)

    def test_tau_ablation_csv(self, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--scenario", "convoy", "--seeds", "0:2",
                     "--ablate", "tau=1,3", "--out", str(out)]) == 0
        lines = (out / "ablation_tau.csv").read_text().splitlines()
        assert lines[0] == "tau,auc,robustness,port_frames_per_frame"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "3"]

    def test_tau_sweep_cost_is_exact(self, tmp_path):
        """Backbone passes per stepped frame on convoy 100-109, counted
        before the column existed by a port subclass counting one pass per
        `propose` call and one per chain frame."""
        out = tmp_path / "eval"
        assert main(["evaluate", "--scenario", "convoy", "--seeds", "100:110",
                     "--ablate", "tau=1,3,9,27", "--out", str(out)]) == 0
        lines = (out / "ablation_tau.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == [
            "2.4984126984126984", "5.447619047619048", "14.714285714285714",
            "46.16825396825397"]

    def test_kalman_ablation_csv(self, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--scenario", "convoy", "--seeds", "0",
                     "--ablate", "kalman", "--out", str(out)]) == 0
        lines = (out / "ablation_kalman.csv").read_text().splitlines()
        assert lines[0] == "kalman,auc,robustness,port_frames_per_frame"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "0"]

    # look-alike neighbors and heavy occlusion: backtrack depth changes the
    # engine's result on these two convoy seeds
    HARD = Path(__file__).parent / "hard_scenario.json"
    HARD_CONVOY = ["evaluate", "--scenario", "convoy", "--config", str(HARD), "--seeds", "0:2"]

    def test_sweep_values_are_those_of_standalone_runs(self, tmp_path):
        # tau=9 is the main config: its sweep row reuses the main run
        base = self.HARD_CONVOY
        assert main(base + ["--ablate", "tau=1,9", "--out", str(tmp_path / "sweep")]) == 0
        lines = (tmp_path / "sweep" / "ablation_tau.csv").read_text().splitlines()
        swept = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in swept] == ["1", "9"]
        assert swept[0][1:] != swept[1][1:]
        steps_per_seed = ScenarioConfig.from_file(self.HARD, "convoy").length - 1
        for tau, auc, rob, cost in swept:
            out = tmp_path / f"tau{tau}"
            assert main(base + ["--tau", tau, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            engine = report["aggregate"]["engine"]
            assert (float(auc), float(rob)) == (engine["auc"], engine["robustness"])
            port_frames = [row["port_frames"] for row in report["per_seed"]]
            assert float(cost) == sum(port_frames) / (len(port_frames) * steps_per_seed)

    def test_sweep_is_the_same_under_parallel_jobs(self, tmp_path):
        def sweep(jobs):
            out = tmp_path / f"jobs{jobs}"
            assert main(self.HARD_CONVOY + [
                "--ablate", "tau=1,3,9", "--jobs", str(jobs), "--out", str(out)]) == 0
            return _read_dir(out)

        assert sweep(1) == sweep(2)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert main(["track", "--scenario", "deform", "--seeds", "0",
                     "--out", str(tmp_path / "s")]) == 0

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        listing = capsys.readouterr().out.split("Commands:")[1].strip().splitlines()
        assert [line.split()[0] for line in listing] == ["evaluate", "track"]

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_click_exception_inside_a_command_exits_one(self, tmp_path, capsys,
                                                        monkeypatch):
        def fail(text):
            raise click.ClickException("no seeds today")

        monkeypatch.setattr("retrack.cli._parse_seeds", fail)
        assert main(["track", "--scenario", "convoy", "--out", str(tmp_path / "x")]) == 1
        assert "error: no seeds today" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_scenario_lists_choices(self, tmp_path, capsys):
        code = main(["track", "--scenario", "drift", "--seeds", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "crossing" in err and "convoy" in err and "deform" in err

    @pytest.mark.parametrize("args", [
        ["track", "--scenario", "convoy", "--seeds", "abc"],
        ["track", "--scenario", "convoy", "--seeds", "0", "--tau", "0"],
        ["track", "--scenario", "convoy", "--seeds", "-1"],
        ["track", "--seeds", "0"],
        ["evaluate", "--scenario", "convoy", "--seeds", "0", "--ablate", "beta=2"],
        ["evaluate", "--scenario", "convoy", "--seeds", "0", "--target-id", "99"],
        ["track", "--scenario", "convoy", "--seeds", "-3:2"],
        ["evaluate", "--scenario", "convoy", "--seeds", "1,1"],
        ["evaluate", "--scenario", "convoy", "--seeds", "0", "--ablate", "tau=0"],
        ["track", "--scenario", "convoy", "--seeds", "0", "--jobs", "0"],
        ["evaluate", "--scenario", "convoy", "--seeds", "0", "--jobs", "-3"],
        ["evaluate", "--scenario", "crossing", "--seeds", "0", "--fail-iou", "nan"],
        ["evaluate", "--scenario", "crossing", "--seeds", "0", "--fail-iou", "-1"],
        ["evaluate", "--scenario", "crossing", "--seeds", "0", "--fail-iou", "1"],
        ["evaluate", "--scenario", "crossing", "--seeds", "0", "--fail-iou", "1.5"],
    ])
    def test_config_and_usage_errors_exit_one(self, tmp_path, args):
        assert main(args + ["--out", str(tmp_path / "x")]) == 1
        # nothing that looks like a finished report is left behind
        assert not (tmp_path / "x" / "report.json").exists()
        assert not (tmp_path / "x" / "comparison.csv").exists()

    @pytest.mark.parametrize("command", ["track", "evaluate"])
    def test_config_with_mot_fails_before_any_output(self, tmp_path, capsys, command):
        """A scenario config has nothing to configure in a MOT file."""
        gt = tmp_path / "gt.txt"
        save_mot(generate_scene(ScenarioConfig("convoy"), 0), gt)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"length": 999, "bogus": 1}')
        out = tmp_path / "x"
        assert main([command, "--mot", str(gt), "--config", str(cfg), "--seeds", "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and "--mot" in err
        assert not out.exists()

    def test_one_frame_mot_fails_before_any_output(self, tmp_path, capsys):
        """A run steps from its first frame on; a file that annotates frame
        1 only leaves it nothing to step, nor the tau sweep a frame to cost."""
        gt = tmp_path / "one.txt"
        gt.write_text("1,1,0,0,10,10,1,1,1\n1,2,50,50,10,10,1,1,1\n")
        out = tmp_path / "x"
        assert main(["evaluate", "--mot", str(gt), "--seeds", "0:2", "--ablate", "tau=1,3",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{gt}: spans frame 1 only" in err
        assert not out.exists()

    def test_non_utf8_mot_names_the_file(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_bytes(b"\xff\xfe" + "1,1,0,0,10,10,1,1,1\n".encode("utf-16-le"))
        out = tmp_path / "x"
        assert main(["track", "--mot", str(gt), "--seeds", "0", "--out", str(out)]) == 2
        assert f"{gt}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_mot_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        gt = tmp_path / "gt.txt"
        save_mot(generate_scene(ScenarioConfig("convoy"), 0), gt)
        plain = gt.read_bytes()
        for name, text in (("plain", plain), ("marked", b"\xef\xbb\xbf" + plain)):
            gt.write_bytes(text)
            assert main(["track", "--mot", str(gt), "--seeds", "0",
                         "--out", str(tmp_path / name)]) == 0
        assert _read_dir(tmp_path / "marked") == _read_dir(tmp_path / "plain")

    @pytest.mark.parametrize("value", ["nan", "-1", "1", "1.5"])
    def test_fail_iou_outside_the_unit_interval_fails_before_any_output(
            self, tmp_path, capsys, value):
        out = tmp_path / "x"
        assert main(["evaluate", "--scenario", "crossing", "--seeds", "0",
                     "--fail-iou", value, "--out", str(out)]) == 1
        assert f"fail_iou must be in [0, 1), got {float(value)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, seeds, message", [
        ('{"speed": "fast"}', "0", "speed must be"),
        ('{"bounds": [512]}', "0", "bounds must be"),
        ('{"length": 64.5}', "0", "length must be"),
        ('{"speed": [0, 0]}', "0", "speed must be"),
        ('{"similarity": [0.9, 0.1]}', "0", "similarity must be"),
        ('{"severity": [0.5001, 0.502]}', "0", "severity must be"),
        ('{"length": 3}', "0", "length must be"),
        ('{"similarity": [1.5, 1.6]}', "0", "similarity must be"),
        ('{"drift": NaN}', "0", "drift must be"),
        ("{}", "-1", "seed -1 is negative"),
        ("{}", "1,1", "seed 1 is repeated"),
    ])
    def test_bad_input_fails_before_any_output(self, tmp_path, capsys, config, seeds,
                                               message):
        """Unchecked, each would end in a traceback, fail mid-run, run on a
        silently clamped value, or run a seed twice."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "x"
        assert main(["evaluate", "--scenario", "crossing", "--config", str(cfg),
                     "--seeds", seeds, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "evaluate"])
    @pytest.mark.parametrize("scenario, length", [("convoy", 18), ("deform", 27)])
    def test_scene_too_short_for_its_event_fails_before_any_output(
            self, tmp_path, capsys, command, scenario, length):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"length": {length}}}')
        out = tmp_path / "x"
        assert main([command, "--scenario", scenario, "--config", str(cfg),
                     "--seeds", "0", "--out", str(out)]) == 1
        assert f"length must be an integer >= {length + 1}, got {length}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("tau=3,3", "tau 3 is repeated"), ("tau=1,9,1", "tau 1 is repeated"),
        ("tau=1,,3", "''"), ("tau=", "''"), ("tau=1,x", "'x'"),
    ])
    def test_ablation_entries_fail_before_any_output(self, tmp_path, capsys, spec, message):
        """A repeated tau would write two identical rows, an empty entry
        would be dropped without a word."""
        out = tmp_path / "x"
        assert main(["evaluate", "--scenario", "convoy", "--seeds", "0", "--ablate", spec,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert repr(spec) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "evaluate"])
    @pytest.mark.parametrize("source", ["scenario", "mot"])
    def test_unknown_target_fails_before_any_output(self, tmp_path, capsys, command, source):
        if source == "mot":
            gt = tmp_path / "gt.txt"
            save_mot(generate_scene(ScenarioConfig("convoy"), 0), gt)
            args = ["--mot", str(gt), "--seeds", "0"]
        else:
            args = ["--scenario", "crossing", "--seeds", "0:2"]
        out = tmp_path / "x"
        assert main([command, *args, "--target-id", "7", "--out", str(out)]) == 1
        assert "target id 7 not present in scene (have [1, 2])" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "evaluate"])
    @pytest.mark.parametrize("flag", ["--alpha", "--nms-iou", "--nms-sigma", "--gate-iou"])
    def test_fixed_thresholds_have_no_flag(self, tmp_path, capsys, command, flag):
        assert main([command, "--scenario", "convoy", "--seeds", "0", flag, "0.5",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "No such option" in err and flag in err
        assert not (tmp_path / "x").exists()

    def test_missing_out_dir_is_a_usage_error(self):
        assert main(["track", "--scenario", "convoy", "--seeds", "0"]) == 1

    def test_missing_mot_file_is_a_usage_error(self, tmp_path):
        assert main(["track", "--mot", str(tmp_path / "nope.txt"), "--seeds", "0",
                     "--out", str(tmp_path / "x")]) == 1

    def test_both_sources_rejected(self, tmp_path):
        gt = tmp_path / "gt.txt"
        save_mot(generate_scene(ScenarioConfig("convoy"), 0), gt)
        assert main(["track", "--scenario", "convoy", "--mot", str(gt),
                     "--seeds", "0", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("command", ["track", "evaluate"])
    def test_malformed_mot_fails_before_any_output(self, tmp_path, capsys, command):
        """The file is parsed before `--out` is made, with or without
        `--target-id`, so a bad row leaves no empty directory behind. A box
        whose area underflows to 0 or overflows to inf is such a row, and so
        is one whose far corner overflows, one whose area `iou` cannot add
        to itself, one whose height the motion filter cannot square, and
        one whose far corner rounds onto its near one."""
        gt = tmp_path / "gt.txt"
        out = tmp_path / "x"
        for text in ["1,1,0,0,10,10,1,abc,1\n"] + [
                "".join(f"{f},1,{x},0,{w},{h},1,1,1\n" for f in (1, 2, 3))
                for x, w, h in (("0", "1e-200", "1e-200"), ("0", "1e200", "1e200"),
                                ("1e308", "1e308", "1"), ("0", "1e154", "1e154"),
                                ("0", "1e-100", "1e160"), ("-1e308", "10", "10"))]:
            gt.write_text(text)
            assert main([command, "--mot", str(gt), "--seeds", "0", "--out", str(out)]) == 2
            assert "line 1" in capsys.readouterr().err
            assert not out.exists()

    def test_the_tallest_accepted_height_runs(self, tmp_path):
        """200 frames at the largest height whose square is finite pass the
        motion filter; the next float up is refused on its line."""
        h = math.sqrt(sys.float_info.max)
        taller = math.nextafter(h, math.inf)
        assert h * h < math.inf and taller * taller == math.inf
        gt = tmp_path / "gt.txt"
        gt.write_text("".join(f"{f},1,{10.0 * f},0,10,{h!r},1,1,1\n"
                              f"{f},2,{2000.0 - 10.0 * f},0,10,{h!r},1,1,1\n"
                              for f in range(1, 201)))
        assert main(["track", "--mot", str(gt), "--seeds", "0",
                     "--out", str(tmp_path / "x")]) == 0
        rows = (tmp_path / "x" / "gt_0000_engine.csv").read_text().splitlines()[2:]
        assert len(rows) == 200
        gt.write_text(f"1,1,0,0,10,{h!r},1,1,1\n2,1,0,0,10,{taller!r},1,1,1\n")
        assert main(["track", "--mot", str(gt), "--seeds", "0",
                     "--out", str(tmp_path / "y")]) == 2
        assert not (tmp_path / "y").exists()

    def test_malformed_mot_content_is_a_data_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,1\n")
        code = main(["track", "--mot", str(gt), "--seeds", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err
