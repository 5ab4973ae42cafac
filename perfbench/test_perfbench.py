"""Self-tests of the benchmark's pure helpers and of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""
import json
from pathlib import Path

import numpy as np
import pytest

from perfstats import Tally, TooFewSamples, percentile, self_times, tick_gaps

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_reports_count_and_tail():
    value, n, beyond = percentile(range(1, 1001), 99)
    assert value == pytest.approx(990.01)
    assert (n, beyond) == (1000, 10)
    assert percentile([3.0, 1.0, 2.0], 50, min_beyond=1) == (2.0, 3, 1)


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(TooFewSamples):
        percentile(range(1, 901), 99)  # 9 samples beyond
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_self_time_subtracts_merged_children_within_parent():
    # parent [0, 10]; children [1, 3] and [2, 4] overlap; [8, 12] is clipped
    starts = [0, 1, 2, 8, 2.5]
    ends = [10, 3, 4, 12, 3.5]
    parents = [-1, 0, 0, 0, 2]  # the last span is a grandchild of the root
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([10 - 3 - 2, 2, 2 - 1, 4, 1])


def test_tick_gaps_run_from_last_substep_to_next_first():
    starts = [0, 1, 10, 11, 20, 21]
    ends = [0.5, 1.5, 10.5, 11.5, 20.5, 21.25]
    assert tick_gaps(starts, ends, 2) == pytest.approx([8.5, 8.5])
    assert tick_gaps(starts[:2], ends[:2], 2).size == 0
    with pytest.raises(ValueError):
        tick_gaps(starts[:5], ends[:5], 2)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.fail_ratio == 0.0
    assert tally.record("water_mouth", [])
    assert not tally.record("drop_replan", ["2 replans, expected 1", "task not completed"])
    assert tally.record("water_mouth", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.fail_ratio == pytest.approx(1 / 3)
    assert tally.failures == ["drop_replan: 2 replans, expected 1; task not completed"]


def test_benchmark_json_matches_what_the_runs_print():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.TRACE_UNITS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len({name for name, _ in layers.PER_LAYER}) == len(layers.PER_LAYER)


def test_per_layer_on_spans_without_children():
    import layers
    from spans import Tracer

    tracer = Tracer()
    tracer.names = ["dynamics.step"] * 3
    tracer.cpu_starts, tracer.cpu_ends = [0, 10, 20], [5, 15, 26]
    tracer.parents = [-1, -1, -1]
    warnings = []
    m = layers.per_layer(tracer, [], np.array([5.0, 11.0]), 0, warnings)
    assert m["dynamics.step.calls"] == 3
    assert m["dynamics.step.busy_s"] == pytest.approx(16e-9)
    assert m["qp.active_ratio"] == 0.0 and m["anomaly.score_gradient.calls"] == 0
    assert (m["harness.deadline_misses"], m["harness.deadline_miss_ratio"]) == (1, 0.5)
    assert warnings  # three samples cannot support a p50 and p99 with ten beyond


def test_detector_cache_follows_the_code_that_trains_it(tmp_path):
    import run

    package = tmp_path / "src" / "exoassist"
    (package / "data").mkdir(parents=True)
    (package / "__pycache__").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "anomaly.py").write_text("EPOCHS = 150\n")
    (package / "data" / "train_config.json").write_text('{"L_s": 10}\n')
    recipe = tmp_path / "perfbench" / "workloads.py"
    recipe.write_text("DETECTOR_RECIPE = {}\n")
    first = run.detector_path(tmp_path)
    assert first.parent == run.OUT and first.name.startswith("scenarios-detector-")
    (package / "__pycache__" / "anomaly.cpython-311.pyc").write_bytes(b"\0")
    assert run.detector_path(tmp_path) == first  # build outputs do not count
    seen = {first}
    for path, text in ((package / "anomaly.py", "EPOCHS = 100\n"),
                       (package / "data" / "train_config.json", '{"L_s": 20}\n'),
                       (recipe, "DETECTOR_RECIPE = {'epochs': 1}\n"),
                       (package / "nn.py", "")):
        path.write_text(text)
        seen.add(run.detector_path(tmp_path))
    assert len(seen) == 5  # each source, data or recipe change gives a new file
