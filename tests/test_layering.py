"""Which layers each entry point loads, and the lazy package namespaces.

The package ``__init__`` modules import nothing eagerly (see
:mod:`repro._lazy`), so a process loads only the layers its execution path
runs.  The first half pins that per entry point: each check starts a fresh
interpreter under ``python -X importtime``, which reports every module the
process imports on stderr, as it imports it -- so the long-running daemon
and worker can be read while they run.  The second half pins the public
API: every exported name still resolves, on first use, to the object its
defining module holds.
"""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
import urllib.request
from importlib import import_module
from pathlib import Path
from typing import List, Set

import pytest

import repro
from repro.lint.engine import SIM_CORE_PACKAGES
from repro.runner.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Seconds any one child may take to become ready or to finish.
TIMEOUT_S = 60.0

#: Simulator packages, the lint's sim-core scope; ``repro.sim`` and
#: ``repro.machine`` also hold the stats and result records every front end
#: reads, so only their simulator modules are listed.
SIMULATOR_PACKAGES = SIM_CORE_PACKAGES - {"sim", "machine"}
SIMULATOR_MODULES = ("repro.machine.manycore", "repro.sim.engine")

#: Layers an idle ``repro worker`` has no use for until its first task.
NON_WORKER_PACKAGES = ("analysis", "experiments", "service")


def loaded(stderr: str) -> Set[str]:
    """Every module a ``-X importtime`` run reported importing."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def under(modules: Set[str], packages) -> List[str]:
    """The ``repro.<package>`` modules (and packages) among ``modules``."""
    return sorted(
        name for name in modules
        if name.startswith("repro.") and name.split(".")[1] in packages
    )


def simulator(modules: Set[str]) -> List[str]:
    found = under(modules, SIMULATOR_PACKAGES)
    return found + sorted(set(SIMULATOR_MODULES) & modules)


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-X", "importtime", "-m", "repro", *args]


def child_env():
    # No REPRO_* knobs: a service token or a worker fault in the caller's
    # environment would change what the children do.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run(argv: List[str], cwd: Path) -> subprocess.CompletedProcess:
    done = subprocess.run(
        argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done


class TestEntryPointLayers:
    def test_bare_import_loads_no_subpackage(self, tmp_path):
        done = run([sys.executable, "-X", "importtime", "-c", "import repro"], tmp_path)
        modules = loaded(done.stderr)
        assert "repro" in modules
        subpackages = sorted(
            name for name in modules
            if name.startswith("repro.")
            and (SRC / "repro" / name.split(".")[1] / "__init__.py").is_file()
        )
        assert subpackages == []

    def test_warm_cache_run_loads_no_simulator(self, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["run", "fig7", "--quick", "--cache", cache, "--no-manifest", "--quiet"]) == 0
        done = run(repro_argv("run", "fig7", "--quick", "--cache", cache), tmp_path)
        assert "fig7: 0 simulated, 8 cached" in done.stderr
        assert simulator(loaded(done.stderr)) == []

    def test_serial_run_loads_no_process_pool(self, tmp_path):
        # Only ``--parallel`` uses concurrent.futures (and the logging it
        # imports), so a serial run's cold start skips it.
        done = run(repro_argv("run", "fig7", "--quick"), tmp_path)
        assert "fig7: 8 simulated, 0 cached" in done.stderr
        assert "concurrent.futures" not in loaded(done.stderr)

    def test_distributed_host_loads_no_simulator(self, tmp_path):
        # The host's local worker is a plain ``python -m repro worker``
        # child: it inherits stderr but not ``-X importtime``.
        done = run(repro_argv("run", "fig7", "--quick", "--distributed", "1"), tmp_path)
        assert "fig7: 8 simulated, 0 cached" in done.stderr
        assert simulator(loaded(done.stderr)) == []


class Service:
    """A ``repro serve`` daemon plus one ``repro worker``, both under importtime."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.procs: List[subprocess.Popen] = []
        self.daemon_log = workdir / "daemon.log"
        self.worker_log = workdir / "worker.log"
        self.daemon = self.spawn(repro_argv("serve"), self.daemon_log)
        plane = self.wait_for(r"worker plane on (\S+:\d+)")
        self.url = self.wait_for(r"http api on (\S+)")
        self.worker = self.spawn(
            repro_argv("worker", "--connect", plane, "--redial", "60"), self.worker_log,
        )
        deadline = time.monotonic() + TIMEOUT_S
        while self.workers() < 1:
            assert time.monotonic() < deadline, "the worker never registered"
            assert self.worker.poll() is None, self.worker_log.read_text()
            time.sleep(0.02)

    def spawn(self, argv: List[str], log: Path) -> subprocess.Popen:
        with open(log, "w", encoding="utf-8") as stream:
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stream,
            )
        self.procs.append(proc)
        return proc

    def wait_for(self, pattern: str) -> str:
        deadline = time.monotonic() + TIMEOUT_S
        while True:
            match = re.search(pattern, self.daemon_log.read_text(encoding="utf-8"))
            if match:
                return match.group(1)
            assert time.monotonic() < deadline, f"repro serve never printed {pattern!r}"
            assert self.daemon.poll() is None, self.daemon_log.read_text()
            time.sleep(0.02)

    def workers(self) -> int:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=TIMEOUT_S) as reply:
            return int(json.load(reply)["workers"])

    def close(self) -> None:
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


@pytest.fixture(scope="module")
def service_run(tmp_path_factory):
    """Modules loaded by the daemon, an idle worker, and a ``--submit`` client."""
    workdir = tmp_path_factory.mktemp("service")
    service = Service(workdir)
    try:
        # Registered and polling for work: everything the idle worker
        # imports is on its stderr by now.
        idle_worker = loaded(service.worker_log.read_text(encoding="utf-8"))
        client = run(repro_argv("run", "fig7", "--quick", "--submit", service.url), workdir)
        assert "fig7: 8 simulated, 0 cached" in client.stderr
    finally:
        service.close()
    return {
        "daemon": loaded(service.daemon_log.read_text(encoding="utf-8")),
        "idle_worker": idle_worker,
        "client": loaded(client.stderr),
    }


class TestServiceLayers:
    def test_submit_client_loads_no_simulator(self, service_run):
        assert simulator(service_run["client"]) == []

    def test_daemon_loads_no_simulator(self, service_run):
        # Read after the daemon served a whole job and shut down.
        assert "repro.service.daemon" in service_run["daemon"]
        assert simulator(service_run["daemon"]) == []

    def test_idle_worker_loads_no_front_end_or_service(self, service_run):
        assert "repro.runner.distributed" in service_run["idle_worker"]
        assert under(service_run["idle_worker"], NON_WORKER_PACKAGES) == []


def _packages() -> List[str]:
    found = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            found.append(info.name)
    return found


#: Every package but the two whose import has a side effect: importing
#: ``repro.workloads`` registers the workload builders, and
#: ``repro.lint.rules`` assembles the default rule set.
LAZY_PACKAGES = [
    name for name in _packages() if name not in ("repro.workloads", "repro.lint.rules")
]


class TestLazyNamespaces:
    def test_every_package_but_the_eager_two_is_lazy(self):
        for name in LAZY_PACKAGES:
            assert isinstance(vars(import_module(name)).get("_EXPORTS"), dict), name

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_public_names_resolve_to_their_defining_objects(self, name):
        package = import_module(name)
        table = package._EXPORTS
        defined = set(vars(package)) - set(table)
        listing = dir(package)
        for public in package.__all__:
            assert public in listing, public
            if public in defined:  # a literal such as repro.__version__
                continue
            expected = getattr(import_module(table[public]), public)
            # __getattr__ directly: the name may already be bound by an
            # earlier lookup in this process.
            assert package.__getattr__(public) is expected, public
            assert getattr(package, public) is expected, public

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_table_matches_all_and_holds_no_dangling_names(self, name):
        package = import_module(name)
        table = package._EXPORTS
        assert set(table) <= set(package.__all__)
        assert set(package.__all__) - set(table) <= set(vars(package))
        for public, module in table.items():
            assert module == name or module.startswith(f"{name}."), module
            assert hasattr(import_module(module), public), f"{module}.{public}"

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_names_raise_attribute_error(self, name):
        package = import_module(name)
        assert not hasattr(package, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")

    def test_version_is_a_literal_setuptools_reads_without_importing(self):
        tree = ast.parse((SRC / "repro" / "__init__.py").read_text(encoding="utf-8"))
        versions = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["__version__"]
        ]
        assert versions == [repro.__version__]
