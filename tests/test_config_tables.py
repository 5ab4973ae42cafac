"""Every field of every config table, from the tables themselves.

For each field of ``plant.json``, ``control.json``, a scenario file and
``train_config.json``, a value of the wrong kind (a string, a boolean)
and, where the field has a bound, a value below its lower and above its
upper limit are rejected at load; a per-joint value of the wrong length,
or a joint index out of range, is rejected at loop entry (for
``train_config.json``, when collection starts).
Each raises ConfigError naming the field, so a field added to a table is
covered here without new test code.
"""
import argparse
import copy
import json
import re

import pytest

from exoassist import cli
from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist import harness as hz
from exoassist import planner as pl
from exoassist.config import ConfigError

SIZES = {"n": 4, "n_c": 2}  # the bundled plant's
SAMPLE_PARAMS = {  # one valid event of each type, all params given
    "drop": {"amplitude": 2.0, "decay": 0.1, "joints": [1, 3]},
    "payload_step": {"mass": 0.5},
    "torque_pulse": {"amplitude": [0.0, 1.0, 0.0, 0.0], "decay": 0.1},
    "intent_conflict": {"pose_deg": [0.0, 10.0, 0.0, 20.0], "duration": 1.0},
}


class _ReachedLoop(Exception):
    """The scenario passed its checks: the first plan request is next."""


class _Planner:
    def request_plan(self, task):
        raise _ReachedLoop


def _reached_loop(*args):
    raise _ReachedLoop


def _base_scenario() -> dict:
    base = json.loads(pl.data_path("scenarios/water_mouth.json").read_text())
    return {**base, "wearer": {"K_h": 20.0, "C_h": [5.0] * 4, "saturation": 15.0, "name": "a"},
            "sensor_noise": dict(hz.DEFAULT_SENSOR_NOISE), "assist_joints": [0, 1, 2, 3],
            "events": [{"type": kind, "t": 1.0, "params": SAMPLE_PARAMS[kind]}
                       for kind in hz.EVENT_PARAMS]}


def _use_plant(path):
    dyn.load_plant_config(path)


def _use_control(path):
    hz.SimStack(model=dyn.PlantModel(), control=ctl.load_control_config(path), planner=None)


def _use_scenario(path):
    stack = hz.SimStack(model=dyn.PlantModel(),
                        control=ctl.load_control_config(pl.data_path("control.json")),
                        planner=_Planner())
    hz.run_scenario(hz.load_scenario(path), stack)


def _use_train_config(path):
    cli.cmd_train_detector(argparse.Namespace(config=str(path), data=None, out=None))


def _base_file(name):
    return json.loads(pl.data_path(f"{name}.json").read_text())


# file, as messages name it -> (its table, a valid base object, load and
# enter the loop); train_config.json's messages name it "config"
FILES = {
    "plant": (dyn.PLANT_FIELDS, lambda: _base_file("plant"), _use_plant),
    "control": (ctl.CONTROL_FIELDS, lambda: _base_file("control"), _use_control),
    "scenario": (hz.SCENARIO_FIELDS, _base_scenario, _use_scenario),
    "config": (cli.TRAIN_CONFIG_FIELDS, lambda: _base_file("train_config"), _use_train_config),
}


def _fields(table, path=()):
    """(path, Field) of every field in ``table`` and below it; a list of
    objects is walked through its first item."""
    for key, spec in table.items():
        yield path + (key,), spec
        if spec.kind == "object" and spec.table is not None:
            yield from _fields(spec.table, path + (key,))
        elif spec.kind == "objects":
            yield from _fields(spec.table, path + (key, 0))


def _all_fields():
    for file, (table, _, _) in FILES.items():
        for path, spec in _fields(table):
            yield file, path, spec
    for i, (kind, params) in enumerate(hz.EVENT_PARAMS.items()):
        for path, spec in _fields(params, ("events", i, "params")):
            yield "scenario", path, spec


def _label(file, path) -> str:
    """The field as messages name it: the file, then each key."""
    parts = [file]
    for part in path:
        if isinstance(part, int):
            parts[-1] += f"[{part}]"
        else:
            parts.append(part)
    return " ".join(parts)


def _bad_values(spec):
    """(case id, value) pairs the field must reject at load."""
    wrong = [5, True] if spec.kind == "string" else ["x", True]
    cases = [(f"kind-{v!r}", v) for v in wrong]
    for limit in filter(None, spec.bound.split(", ")):
        op, value = limit.split()
        out = float(value) + {">": 0, ">=": -1, "<": 0, "<=": 1}[op]
        out = int(out) if spec.kind in ("integer", "indices", "integers") else out
        if spec.kind == "integers":
            out = [out]
        elif spec.kind == "indices" or (spec.kind == "joints" and not spec.scalar):
            out = [out] * SIZES[spec.size]
        cases.append(("bound" if op.startswith(">") else "upper-bound", out))
    return cases


def _cases():
    for file, path, spec in _all_fields():
        for case, value in _bad_values(spec):
            yield pytest.param(file, path, value, _label(file, path),
                               id=f"{_label(file, path)}-{case}")
        if spec.kind in ("joints", "indices"):
            size = SIZES[spec.size]
            value = [size] if spec.kind == "indices" else [1.0] * (size + 1)
            # at loop entry QPConfig holds the angles under names without _deg,
            # and collection names a subject without the file
            label = re.sub(r"^(control|config) ", "", _label(file, path)).removesuffix("_deg")
            yield pytest.param(file, path, value, label, id=f"{_label(file, path)}-size")


def _set(obj, path, value):
    for part in path[:-1]:
        obj = obj[part]
    obj[path[-1]] = value


def test_base_files_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(dyn, "step", _reached_loop)  # collection's first motion
    for file, (_, base, use) in FILES.items():
        path = tmp_path / f"{file}.json"
        path.write_text(json.dumps(base()))
        if file in ("scenario", "config"):
            with pytest.raises(_ReachedLoop):
                use(path)
        else:
            use(path)


@pytest.mark.parametrize("file, path, value, label", list(_cases()))
def test_bad_field_rejected_naming_it(tmp_path, monkeypatch, file, path, value, label):
    monkeypatch.setattr(dyn, "step", None)  # nothing may be stepped
    _, base, use = FILES[file]
    obj = copy.deepcopy(base())
    _set(obj, path, value)
    config = tmp_path / f"{file}.json"
    config.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=re.escape(label)):
        use(config)
