"""The one path ``repro run`` and ``repro report`` share through the records.

Each experiment module holds one :class:`~repro.experiments.common.Experiment`
record; both commands go name -> record -> sweep -> Runner -> frame -> table.
These tests drive every experiment through the CLI on narrowed ``--quick``
grids that share one result cache, so ``report`` renders from what ``run``
simulated.
"""

import json

import pytest

from repro.experiments import experiment, experiment_names
from repro.runner.cli import main

#: Axis flags that narrow each ``--quick`` grid to a few grid points.
NARROW = {
    "fig7": ["--configs", "WiSync,Baseline+"],
    "fig8": ["--configs", "WiSync,WiSyncNoT"],
    "fig9": ["--configs", "WiSync", "--crit", "16"],
    "fig10": ["--apps", "fft", "--configs", "WiSync"],
    "fig11": ["--apps", "fft", "--variants", "Default,SlowNet"],
    "table4": [],
    "table5": ["--apps", "fft"],
    "scenarios": ["--scenarios", "pc_ring"],
}

#: One empty list axis per experiment with a grid, on either command.
EMPTY_AXES = [
    ("run", "fig7", "configs"),
    ("run", "fig7", "cores"),
    ("run", "fig8", "cores"),
    ("report", "fig9", "crit"),
    ("run", "fig10", "cores"),
    ("run", "fig10", "apps"),
    ("report", "fig11", "variants"),
    ("report", "table5", "cores"),
    ("run", "scenarios", "configs"),
    ("report", "scenarios", "backoffs"),
]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


def test_every_experiment_has_a_record_and_narrowed_grid():
    assert sorted(NARROW) == experiment_names()
    for name in experiment_names():
        assert experiment(name).name == name


@pytest.mark.parametrize("name", sorted(NARROW))
def test_run_and_report_print_the_same_table(name, cache, tmp_path, capsys):
    flags = ["--quick", "--cache", cache, *NARROW[name]]
    out = tmp_path / "run.json"
    assert main(["run", name, "--no-manifest", "--json", str(out), *flags]) == 0
    ran = capsys.readouterr().out
    assert main(["report", name, *flags]) == 0
    captured = capsys.readouterr()
    reported = captured.out
    assert f"{name}: 0 simulated" in captured.err
    assert json.loads(out.read_text())
    if name == "scenarios":
        # The one place the two verbs differ: run totals, report normalizes.
        assert ran.splitlines()[0] == "Contention scenarios: total cycles"
        assert reported.splitlines()[0] == (
            "Contention scenarios: cycles per completed operation"
        )
        assert len(ran.splitlines()) == len(reported.splitlines())
    else:
        assert ran == reported


@pytest.mark.parametrize("command,name,axis", EMPTY_AXES)
def test_empty_sweep_axis_exits_2_with_one_message(
    command, name, axis, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    extra = ["--no-manifest"] if command == "run" else []
    assert main([command, name, f"--{axis}", ",", *extra]) == 2
    assert capsys.readouterr().err.strip().endswith(
        f"error: sweep axis {axis!r} must not be empty"
    )


def test_single_core_experiment_uses_the_first_count():
    notes = []
    kwargs = experiment("fig10").sweep_kwargs({"cores": [32, 64]}, note=notes.append)
    assert kwargs == {"num_cores": 32}
    assert notes == ["this experiment runs at one core count; using 32"]


def test_fixed_configs_experiment_notes_the_ignored_flag():
    notes = []
    kwargs = experiment("table5").sweep_kwargs({"configs": ["Baseline"]}, note=notes.append)
    assert kwargs == {}
    assert notes == ["--configs is ignored; table5 always measures WiSyncNoT and WiSync"]
