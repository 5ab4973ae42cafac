"""Session-scoped full stack: plant, gains, trained+calibrated detector.

Training the detector takes tens of seconds, so one instance is shared by
the harness tests and the acceptance suite; the acceptance criterion on
training runtime reads the elapsed time recorded here. The deterministic
scenario runs several tests make with it are shared through ``scenario_runs``.
"""
import copy
import json
from pathlib import Path

import pytest

from exoassist import control as ctl
from exoassist import harness as hz
from exoassist import planner as pl


def train_session_detector() -> dict:
    """``harness.train_detector`` on the bundled train_config.json with 30 s
    a subject, 150 epochs and detector seed 9, plus the bundled gains,
    corpus and library; the ``trained`` fixture holds one per session."""
    train = json.loads(pl.data_path("train_config.json").read_text())["train"]
    run = hz.train_detector({"duration": 30.0, "train": {**train, "epochs": 150},
                             "detector_seed": 9})
    return {**run, "schedule": run["detector"].schedule,
            "control": ctl.load_control_config(pl.data_path("control.json")),
            "corpus": pl.load_corpus(pl.data_path("corpus.jsonl")),
            "library": pl.default_library()}


def session_stack(trained: dict, detector=True) -> hz.SimStack:
    runtime = pl.PlannerRuntime(pl.RuleScorer(trained["corpus"]), trained["library"])
    return hz.SimStack(model=trained["model"], control=trained["control"], planner=runtime,
                       detector=trained["detector"] if detector else None)


class ScenarioRuns:
    """(trace, report) of a scenario file run at a seed (its own by default)
    with a fresh session stack, run once per (file, seed) and handed out as
    deep copies. A repeat run is bit-identical (criterion 8 checks it)."""

    def __init__(self, trained: dict):
        self.trained, self.runs = trained, {}

    def __call__(self, path, seed: int | None = None):
        scenario = hz.load_scenario(path)
        key = (Path(path).resolve(), scenario.seed if seed is None else seed)
        if key not in self.runs:
            self.runs[key] = hz.run_scenario(scenario, session_stack(self.trained), seed=key[1])
        return copy.deepcopy(self.runs[key])


@pytest.fixture(scope="session")
def trained():
    return train_session_detector()


@pytest.fixture(scope="session")
def scenario_runs(trained):
    return ScenarioRuns(trained)


@pytest.fixture()
def stack(trained):
    return session_stack(trained)


@pytest.fixture()
def stack_no_detector(trained):
    return session_stack(trained, detector=False)


def scenario_path(name: str):
    return pl.data_path(f"scenarios/{name}")
