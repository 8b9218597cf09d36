"""End-to-end driver tests: at-most-once execution, artifacts, fan-out."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

from repro.__main__ import main
from repro.exp import registry, runcache, runner
from repro.exp.artifacts import VOLATILE_KEYS, validate_artifact
from repro.exp.runcache import ProgramKey, RunCache
from repro.exp.runner import run_experiments
from repro.exp.spec import EvalOptions

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


def _run_in_process(monkeypatch, capsys, pid_file, *args):
    """``python -m repro *args`` in this process, with two CPUs visible.

    ``os.cpu_count`` reads 2, so ``--jobs 2`` takes the worker pool even
    on a 1-CPU host, and every section appends the pid of the process
    that ran it to ``pid_file`` (the workers are forked from this
    process and inherit the recording wrapper).  Returns the captured
    stdout and the recorded pids.
    """
    run_one = runner.run_one

    def recording_run_one(spec, params):
        with open(pid_file, "a") as out:
            out.write(f"{os.getpid()}\n")
        return run_one(spec, params)

    with monkeypatch.context() as patch:
        patch.setattr(runner.os, "cpu_count", lambda: 2)
        patch.setattr(runner, "run_one", recording_run_one)
        patch.setattr(runcache, "_CACHE", RunCache())
        assert main(list(args)) == 0
    pids = Path(pid_file).read_text().split() if Path(pid_file).exists() else []
    return capsys.readouterr().out, set(pids)


def _assert_ran_in_workers(serial_pids, parallel_pids):
    """Serial sections ran here; ``--jobs 2`` sections ran only in workers."""
    assert serial_pids == {str(os.getpid())}
    assert parallel_pids, (
        "no worker recorded a pid: workers started with the "
        f"{multiprocessing.get_start_method()!r} method do not inherit "
        "the recording wrapper"
    )
    assert str(os.getpid()) not in parallel_pids


class TestProgramsExecuteAtMostOnce:
    def test_figure12_latency_ablation_share_runs(self, monkeypatch):
        """The pre-framework driver executed matmul three times across the
        figure12/latency/ablation sections; the run cache collapses that
        to one execution per (program, size, nodes)."""
        registry.load_all()
        fresh = RunCache()
        monkeypatch.setattr(runcache, "_CACHE", fresh)
        specs = [registry.get(name) for name in ("figure12", "latency", "ablation")]
        run_experiments(specs, EvalOptions())
        log = fresh.execution_log
        assert len(log) == len(set(log)), f"a program ran twice: {log}"
        # figure12 runs matmul@default + gamteb@default; latency and
        # ablation share one matmul@24.
        assert sorted(set(log), key=str) == sorted(
            {
                ProgramKey("matmul", 40, 16),
                ProgramKey("gamteb", 64, 16),
                ProgramKey("matmul", 24, 16),
            },
            key=str,
        )


class TestCliSmoke:
    def test_only_survey_with_json_dir(self, tmp_path):
        json_dir = tmp_path / "artifacts"
        result = _run_cli("--only", "survey", "--json-dir", str(json_dir), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "# Section 1 survey (extension)" in result.stdout
        assert "[artifact]" in result.stdout
        # Only the selected section ran.
        assert "# Table 1" not in result.stdout

        artifact = json.loads((json_dir / "survey.json").read_text())
        validate_artifact(artifact)
        assert artifact["experiment"] == "survey"
        assert artifact["data"]["rows"], "survey artifact carries no rows"

    def test_no_json_writes_nothing(self, tmp_path):
        result = _run_cli("--only", "survey", "--no-json", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "[artifact]" not in result.stdout
        assert not (tmp_path / "results").exists()

    def test_skip_excludes_a_section(self, tmp_path):
        result = _run_cli(
            "--only", "survey", "throughput",
            "--skip", "survey",
            "--no-json",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "survey" not in result.stdout
        assert "# Steady-state service-loop throughput" in result.stdout

    def test_bad_jobs_rejected(self, tmp_path):
        result = _run_cli("--jobs", "0", cwd=tmp_path)
        assert result.returncode != 0

    def test_trace_writes_chrome_trace_and_metrics(self, tmp_path):
        json_dir = tmp_path / "artifacts"
        result = _run_cli(
            "--only", "flowcontrol", "--trace", "--json-dir", str(json_dir),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        artifact = json.loads((json_dir / "flowcontrol.json").read_text())
        validate_artifact(artifact)
        assert artifact["data"]["serviced"] == artifact["data"]["offered"]

        trace = json.loads(
            (json_dir / "traces" / "flowcontrol_trace.json").read_text()
        )
        assert trace["traceEvents"], "chrome trace holds no events"
        metrics = json.loads(
            (json_dir / "traces" / "flowcontrol_metrics.json").read_text()
        )
        assert metrics["series"]["in_flight"]["values"]
        assert metrics["crossings"], "no threshold crossings recorded"

    def test_untraced_flowcontrol_writes_no_trace_files(self, tmp_path):
        json_dir = tmp_path / "artifacts"
        result = _run_cli(
            "--only", "flowcontrol", "--json-dir", str(json_dir), cwd=tmp_path
        )
        assert result.returncode == 0, result.stderr
        assert (json_dir / "flowcontrol.json").exists()
        assert not (json_dir / "traces").exists()


class TestParallelEquivalence:
    def test_jobs_output_matches_serial(self, tmp_path, monkeypatch, capsys):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        sections = ("--only", "table1", "throughput", "survey")

        serial, serial_pids = _run_in_process(
            monkeypatch, capsys, tmp_path / "serial.pids",
            *sections, "--json-dir", str(serial_dir),
        )
        parallel, parallel_pids = _run_in_process(
            monkeypatch, capsys, tmp_path / "parallel.pids",
            *sections, "--jobs", "2", "--json-dir", str(parallel_dir),
        )
        _assert_ran_in_workers(serial_pids, parallel_pids)

        def strip_artifact_lines(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("[artifact]")
            ]

        assert strip_artifact_lines(serial) == strip_artifact_lines(parallel)

        for path in sorted(serial_dir.glob("*.json")):
            a = json.loads(path.read_text())
            b = json.loads((parallel_dir / path.name).read_text())
            for key in VOLATILE_KEYS:
                a.pop(key), b.pop(key)
            assert a == b, f"{path.name} differs between serial and --jobs"


class TestProfileReport:
    SECTIONS = ("table1", "roundtrip", "figure12")

    @staticmethod
    def _report_rows(stdout):
        """The row names of the ``--profile`` report at the end of a run."""
        heading = "profile: host seconds per section and executed TAM program"
        assert heading in stdout, "no --profile report printed"
        report = stdout.split(heading, 1)[1]
        return {
            line.split()[0]
            for line in report.splitlines()
            if line.startswith(("section.", "program."))
        }

    def test_report_rows_match_across_jobs(self, tmp_path, monkeypatch, capsys):
        """Every selected section and every executed program gets a row,
        whether the work ran in this process or in ``--jobs`` workers."""
        registry.load_all()
        expected = {f"section.{name}" for name in self.SECTIONS}
        for name in self.SECTIONS:
            spec = registry.get(name)
            expected |= {
                f"program.{key.program}-n{key.size}-p{key.nodes}"
                for key in spec.required_programs(spec.params(EvalOptions()))
            }
        assert any(row.startswith("program.") for row in expected)
        reports, pids = [], []
        for jobs in ("1", "2"):
            stdout, ran_in = _run_in_process(
                monkeypatch, capsys, tmp_path / f"jobs{jobs}.pids",
                "--profile", "--jobs", jobs, "--only", *self.SECTIONS, "--no-json",
            )
            reports.append(self._report_rows(stdout))
            pids.append(ran_in)
        _assert_ran_in_workers(*pids)
        assert reports[0] == reports[1] == expected
