"""CLI commands: parse, run, and print sane tables."""

import pytest

from repro.cli import build_parser, main


def test_figure1_prints_curve(capsys):
    assert main(["figure1", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "0.3333" in out  # β̃(0) = 1/3


def test_run_reports_safety(capsys):
    assert main(["run", "--n", "6", "--rounds", "12", "--protocol", "mmr"]) == 0
    out = capsys.readouterr().out
    assert "Run summary" in out
    assert "safety" in out and "yes" in out


def test_attack_compares_protocols(capsys):
    assert main(["attack", "--n", "20", "--pi", "1", "--eta", "2"]) == 0
    out = capsys.readouterr().out
    assert "Scripted attack 'split-vote'" in out and "verdict" in out
    assert "mmr (η=0)" in out and "resilient (η=2)" in out
    # The baseline forks outside the theorem (π > 0 = η); the modified protocol does not fork.
    mmr_line = next(line for line in out.splitlines() if line.startswith("mmr"))
    resilient_line = next(line for line in out.splitlines() if line.startswith("resilient"))
    assert "no" in mmr_line.split() and "outside-theorem(pi, 10)" in mmr_line
    assert "no" not in resilient_line.split() and " ok " in resilient_line


def test_attack_script_runs_on_the_simulator(capsys):
    assert main(["attack", "--script", "partition-heal", "--n", "8", "--eta", "6"]) == 0
    out = capsys.readouterr().out
    assert "Scripted attack 'partition-heal'" in out
    resilient_line = next(line for line in out.splitlines() if line.startswith("resilient"))
    assert "no" not in resilient_line.split()


def test_attack_rejects_unknown_script():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["attack", "--script", "no-such-attack"])


@pytest.mark.parametrize("flags", [["--backend", "deployment"], ["--processes", "2"]])
def test_attack_rejects_substrate_flags_the_split_vote_replay_would_ignore(flags, capsys):
    """No fabric realises the default script's per-receiver delivery, and
    --processes means nothing to the simulator: refusing — in the
    backend's own words, the CLI knows no script by name — beats
    printing a table as if the deployment had run."""
    with pytest.raises(SystemExit) as exit_info:
        main(["attack", *flags])
    reason = "split_vote needs per-receiver-delivery" if "--backend" in flags else "--processes"
    assert reason in str(exit_info.value.code)
    assert "protocol" not in capsys.readouterr().out  # no table


def test_attack_pi_reaches_the_scripts_built_around_one_period(capsys):
    # π > η: the resilient protocol forks, outside the theorem, which is no bug.
    assert main(["attack", "--pi", "4", "--eta", "2"]) == 0
    resilient_line = next(
        line for line in capsys.readouterr().out.splitlines() if line.startswith("resilient")
    )
    assert "outside-theorem(pi" in resilient_line and "no" in resilient_line.split()
    assert main(["attack", "--script", "blackout", "--pi", "2", "--n", "8", "--eta", "4"]) == 0
    assert "(17+4 rounds" in capsys.readouterr().out  # 6 + π + 9 scripted rounds, then 4
    with pytest.raises(SystemExit, match="has no --pi"):
        main(["attack", "--script", "crash", "--pi", "2"])


JUDGED_COMMANDS = [
    ["run", "--n", "6", "--rounds", "8"],
    ["attack", "--n", "8", "--pi", "1"],
    ["outage", "--n", "20", "--duration", "8"],
    ["soak", "--duration", "1", "--n", "4"],
]


@pytest.mark.parametrize("argv", JUDGED_COMMANDS)
def test_an_unsafe_verdict_fails_the_command(argv, capsys, monkeypatch):
    """Exit 1 when ``judge`` says ``unsafe``: the command keeps no policy of its own."""
    import repro.cli
    from repro.analysis.verdict import Verdict

    monkeypatch.setattr(repro.cli, "judge", lambda trace: Verdict("unsafe", "def5", 7, True))
    assert main(argv) == 1
    assert "unsafe(def5, 7)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", JUDGED_COMMANDS)
def test_a_stalled_verdict_fails_the_command(argv, capsys, monkeypatch):
    """Exit 1 when ``judge`` says ``stalled`` too, on a safe run."""
    import repro.cli
    from repro.analysis.verdict import Verdict

    monkeypatch.setattr(repro.cli, "judge", lambda trace: Verdict("ok", stalled=9))
    assert main(argv) == 1
    assert "ok stalled(9)" in capsys.readouterr().out


def test_soak_reports_worker_death_cleanly(capsys, monkeypatch):
    """The kill-a-worker contract at the CLI layer: a dead worker is a
    one-line failure and exit code 1, not a traceback (the backend-level
    kill itself is pinned in tests/runtime/test_worker.py)."""
    from repro.engine.deploy_backend import DeploymentBackend

    async def doomed(self, spec, collector=None):
        raise RuntimeError("worker 1 exited with code -9")

    monkeypatch.setattr(DeploymentBackend, "execute_async", doomed)
    assert main(["soak", "--duration", "1", "--n", "4", "--processes", "2"]) == 1
    out = capsys.readouterr().out
    assert "soak: FAILED" in out and "worker 1 exited" in out


def test_run_with_timeline_and_save(capsys, tmp_path):
    target = tmp_path / "run.json"
    assert main(
        ["run", "--n", "5", "--rounds", "10", "--timeline", "--save", str(target)]
    ) == 0
    out = capsys.readouterr().out
    assert "|O_r|" in out  # the strip chart header
    assert target.exists()
    from repro.analysis import check_safety, load_trace

    assert check_safety(load_trace(target)).ok


def test_outage_runs(capsys):
    assert main(["outage", "--n", "20", "--duration", "8"]) == 0
    out = capsys.readouterr().out
    assert "outage" in out.lower()


def test_tune_eta_table(capsys):
    assert main(["tune-eta", "--churn-per-round", "0.02", "--n", "48"]) == 0
    out = capsys.readouterr().out
    assert "η menu" in out
    assert "15" in out  # π for η = 16


def test_deploy_smoke(capsys):
    argv = ["run", "--backend", "deployment", "--n", "4", "--rounds", "8", "--delta-ms", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "deployment (δ=10 ms)" in out
    for row in ("wall-clock (s)", "messages sent", "decisions", "safety"):
        assert row in out


@pytest.mark.parametrize("processes", [1, 2])
def test_soak_runs_as_a_service_and_dumps_metrics(capsys, tmp_path, processes):
    import json

    dump = tmp_path / "soak.json"
    assert (
        main(
            [
                "soak",
                "--duration", "1",
                "--n", "4",
                "--processes", str(processes),
                "--delta-ms", "15",
                "--rate", "4",
                "--churn", "0",
                "--dump", str(dump),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Soak summary" in out
    assert "metrics at http://" in out
    payload = json.loads(dump.read_text())
    assert payload["summary"]["decisions"] > 0
    assert payload["summary"]["safe"] is True
    assert payload["summary"]["verdict"] == "ok"
    assert payload["summary"]["shed_protocol_messages"] == 0
    # Every pool is bounded at MEMPOOL_CAPACITY; this load never fills one.
    assert payload["summary"]["admitted_transactions"] > 0
    assert payload["summary"]["shed_transactions"] == 0
    # Every shard timed both phases of every round, and no phase slipped
    # a whole round (Δ = 3δ = 45 ms): a δ bound would flake on real
    # scheduling noise, which reaches past 15 ms on a loaded host.
    summary = payload["summary"]
    lateness = payload["metrics"]["histograms"]["phase_lateness_s"]
    assert lateness["count"] == 2 * summary["rounds"] * processes
    assert summary["phase_lateness_max_ms"] == lateness["max"] * 1e3
    assert summary["phase_lateness_max_ms"] < 45
    # The dump's metrics section came over a real HTTP scrape.
    assert payload["metrics"]["counters"]["decisions"] == payload["summary"]["decisions"]


def test_sweep_runs_named_grid_and_saves_rows(capsys, tmp_path):
    import json

    target = tmp_path / "rows.json"
    assert main(["sweep", "pi-eta", "--n", "6", "--workers", "0", "--save", str(target)]) == 0
    out = capsys.readouterr().out
    assert "Theorem 2 boundary sweep" in out and "(n=6)" in out
    payload = json.loads(target.read_text())
    assert payload["grid"] == "pi-eta"
    assert len(payload["rows"]) == 18  # η ∈ {2,4,6}, π ∈ 1..η+2
    assert all(
        row["verdict"] == "ok" and row["safe"] for row in payload["rows"] if row["pi"] < row["eta"]
    )


@pytest.mark.parametrize("grid, n", [("sleepiness", None), ("figure1", 20)])
def test_saved_sweep_rows_decode_to_the_reducers_rows(capsys, tmp_path, grid, n):
    import json

    from repro.analysis.batch import GRIDS
    from repro.engine.spec import from_json_form
    from repro.engine.sweep import sweep_rows

    target = tmp_path / "rows.json"
    sized = ["--n", str(n)] if n else []
    assert main(["sweep", grid, *sized, "--workers", "0", "--save", str(target)]) == 0
    job = GRIDS[grid]
    expected = sweep_rows(job.build(**({"n": n} if n else {})), job.reducer, max_workers=0)
    saved = from_json_form(json.loads(target.read_text()))
    assert saved == {"grid": grid, "rows": expected}
    # Sets stay sets and fractions stay fractions, not lists.
    assert [type(v) for row in saved["rows"] for v in row.values()] == [
        type(v) for row in expected for v in row.values()
    ]


def test_sweep_journal_roundtrip_and_resume(capsys, tmp_path):
    """A journaled deploy-smoke sweep resumes to a byte-identical table
    without re-running any cell (the journal holds every row)."""
    journal = tmp_path / "deploy.jsonl"
    assert main(["sweep", "deploy-smoke", "--journal", str(journal)]) == 0
    first = capsys.readouterr().out
    assert "deployment-substrate sweep smoke" in first
    lines = journal.read_text().splitlines()
    assert len(lines) == 3 and "manifest" in lines[0]  # header + one row per cell

    assert main(["sweep", "deploy-smoke", "--journal", str(journal), "--resume"]) == 0
    assert capsys.readouterr().out == first
    assert len(journal.read_text().splitlines()) == 3  # nothing re-journaled


def test_sweep_resume_requires_journal():
    with pytest.raises(SystemExit, match="journal"):
        main(["sweep", "pi-eta", "--resume"])


def test_sweep_rejects_size_override_where_inapplicable():
    with pytest.raises(SystemExit):
        main(["sweep", "sleepiness", "--n", "6"])


def test_sweep_unknown_grid_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "no-such-grid"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _documented_commands():
    """Every ``python -m repro …`` command in a fenced block of the docs."""
    import re
    import shlex
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    for doc in ("README.md", ".claude/skills/verify/SKILL.md"):
        text = (root / doc).read_text().replace("\\\n", " ")
        for block in re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.DOTALL):
            for line in block.splitlines():
                if "python -m repro" not in line:
                    continue
                tokens = shlex.split(line, comments=True)
                if tokens[:1] == ["PYTHONPATH=src"]:
                    tokens = tokens[1:]
                if tokens[:3] == ["python", "-m", "repro"]:
                    yield pytest.param(tokens[3:], id=f"{doc}: {' '.join(tokens[3:])}")


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_commands_parse(argv):
    """Docs drift guard: an example naming a removed subcommand or flag
    fails here (argparse exits) instead of in a reader's terminal."""
    build_parser().parse_args(argv)


def test_module_entry_point():
    import subprocess
    import sys

    from tests.conftest import subprocess_env

    result = subprocess.run(
        [sys.executable, "-m", "repro", "figure1", "--points", "3"],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert result.returncode == 0
    assert "Figure 1" in result.stdout
