"""Session-scoped full stack: plant, gains, trained+calibrated detector.

Training the detector takes tens of seconds, so one instance is shared by
the harness tests and the acceptance suite; the acceptance criterion on
training runtime reads the elapsed time recorded here.
"""
import time

import numpy as np
import pytest

from exoassist import anomaly as ano
from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist import harness as hz
from exoassist import planner as pl


TRAIN_EPOCHS = 150
TRAIN_DURATION = 30.0  # seconds of transparent-mode motion per subject


def train_session_detector() -> dict:
    """The bundled plant and gains, training data, and a detector trained
    and calibrated on it; the ``trained`` fixture holds one per session."""
    model = dyn.load_plant_config(pl.data_path("plant.json"))
    control_cfg = ctl.load_control_config(pl.data_path("control.json"))
    subjects = [hz.WearerParams(name="subject-a"),
                hz.WearerParams(name="subject-b", K_h=25.0, C_h=6.0)]
    data = hz.collect_training_data(model, subjects, duration=TRAIN_DURATION, seed=5)
    normed = data["stats"].normalize(data["raw"]).reshape(data["raw"].shape[0], -1)
    schedule = ano.NoiseSchedule.linear()
    cfg = ano.TrainConfig(epochs=TRAIN_EPOCHS, seed=1)

    t0 = time.perf_counter()
    denoiser, history = ano.train_denoiser(
        normed[data["train_idx"]], schedule, cfg,
        val_windows=normed[data["val_idx"]])
    train_elapsed = time.perf_counter() - t0

    detector = ano.AnomalyDetector(denoiser, schedule, data["stats"],
                                   data["L_s"], data["layout"], seed=9)
    detector.calibrate(normed[data["train_idx"]])

    corpus = pl.load_corpus(pl.data_path("corpus.jsonl"))
    library = pl.default_library()
    return {
        "model": model,
        "control": control_cfg,
        "data": data,
        "normed": normed,
        "schedule": schedule,
        "detector": detector,
        "history": history,
        "train_elapsed": train_elapsed,
        "train_config": cfg,
        "corpus": corpus,
        "library": library,
    }


@pytest.fixture(scope="session")
def trained():
    return train_session_detector()


@pytest.fixture()
def stack(trained):
    runtime = pl.PlannerRuntime(pl.RuleScorer(trained["corpus"]), trained["library"])
    return hz.SimStack(model=trained["model"], control=trained["control"],
                       planner=runtime, detector=trained["detector"])


@pytest.fixture()
def stack_no_detector(trained):
    runtime = pl.PlannerRuntime(pl.RuleScorer(trained["corpus"]), trained["library"])
    return hz.SimStack(model=trained["model"], control=trained["control"],
                       planner=runtime, detector=None)


def scenario_path(name: str):
    return pl.data_path(f"scenarios/{name}")
