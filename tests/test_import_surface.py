"""What a run imports: the modules it runs, and no alternative it does not.

Each check starts a fresh interpreter, because this process has long since
imported everything.  The default paper-scale build must load none of the
import-on-use modules; a build that selects an alternative protocol or
mobility model must load that one module; importing the campaign runner
starts no process pool and loads no telemetry merge.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a default ``ScenarioConfig`` never runs, so ``import repro`` and
#: its build must not load them.
IMPORT_ON_USE = (
    "repro.multicast.odmrp",
    "repro.multicast.flooding",
    "repro.mobility.gauss_markov",
    "repro.mobility.rpgm",
    "repro.mobility.manhattan",
    "repro.mobility.static",
    "repro.mobility.trace",
    "repro.membership.churn",
    "repro.membership.summary",
    "repro.workload.failures",
    "repro.obs.merge",
    # Only an obs-enabled build constructs the engine sampler.
    "repro.obs.probes",
    "repro.metrics.reporting",
    "repro.sim.shard",
    # Only a campaign with jobs > 1 starts a process pool.
    "concurrent.futures",
    "multiprocessing",
)


def _loaded_after(config: str) -> set:
    """The modules a fresh interpreter holds after building ``config``."""
    return _modules_after(
        "from repro import Scenario, ScenarioConfig\n"
        "from repro.mobility.config import MobilityConfig\n"
        "from repro.obs import ObsConfig\n"
        f"Scenario({config}).build()\n"
    )


def _modules_after(statements: str) -> set:
    """The modules a fresh interpreter holds after ``statements``."""
    code = f"import sys\n{statements}print('\\n'.join(sys.modules))\n"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    return set(completed.stdout.split())


def test_default_paper_build_loads_no_import_on_use_module():
    loaded = _loaded_after("ScenarioConfig.paper(seed=1)")
    assert "repro.multicast.maodv" in loaded
    # Every run joins its members through the controller; only a churn run
    # builds a churn model.
    assert "repro.membership.controller" in loaded
    assert "repro.membership.churn" not in loaded
    assert sorted(loaded.intersection(IMPORT_ON_USE)) == []


@pytest.mark.parametrize(
    "config, module",
    [
        ("ScenarioConfig.quick(protocol='flooding')", "repro.multicast.flooding"),
        ("ScenarioConfig.quick(protocol='odmrp')", "repro.multicast.odmrp"),
        (
            "ScenarioConfig.quick(mobility_config=MobilityConfig(model='gauss_markov'))",
            "repro.mobility.gauss_markov",
        ),
        (
            "ScenarioConfig.quick(mobility_config=MobilityConfig(model='rpgm'))",
            "repro.mobility.rpgm",
        ),
        (
            "ScenarioConfig.quick(mobility_config=MobilityConfig(model='manhattan'))",
            "repro.mobility.manhattan",
        ),
        ("ScenarioConfig.quick(obs_config=ObsConfig(enabled=True))", "repro.obs.probes"),
    ],
    ids=["flooding", "odmrp", "gauss_markov", "rpgm", "manhattan", "obs"],
)
def test_alternative_build_imports_its_own_module(config, module):
    loaded = _loaded_after(config)
    assert sorted(loaded.intersection(IMPORT_ON_USE)) == [module]


def test_experiment_specs_load_no_campaign_module():
    # Specs and variants sit below execution: the campaign imports the
    # experiments, never the other way round.
    loaded = _modules_after("import repro.experiments\n")
    assert "repro.experiments.figures" in loaded
    assert sorted(name for name in loaded if name.startswith("repro.campaign")) == []


def test_campaign_runner_loads_no_pool_and_no_telemetry_merge():
    # A serial campaign never forks, and only instrumented trials fold
    # telemetry: both modules load where they are used.
    loaded = _modules_after("from repro.campaign import run_campaign\n")
    assert "repro.campaign.executor" in loaded
    on_use = {"concurrent.futures", "multiprocessing", "repro.obs.merge"}
    assert sorted(loaded & on_use) == []
