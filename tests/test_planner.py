"""Planner tests: Table-style semantic plans, rule-table properties,
argmax invariance, replanning, the runtime handoff, corpus evaluation,
and the hermetic record/replay LLM scorer."""
import json

import pytest
from hypothesis import given, settings, strategies as st

from exoassist import planner as pl
from exoassist import llm as llmmod


@pytest.fixture(scope="module")
def corpus():
    return pl.load_corpus(pl.data_path("corpus.jsonl"))


@pytest.fixture(scope="module")
def library():
    return pl.default_library()


@pytest.fixture(scope="module")
def scorer(corpus):
    return pl.RuleScorer(corpus)


# ---------------------------------------------------------------------------
# semantic plans (Table IV)


def test_water_plan(scorer, library):
    res = pl.plan("help me drink water", scorer, library)
    assert [s.label for s in res.steps] == [
        "set_mode(0)", "paramset(Spd=0, Imp=0)", "go_target(mouth)", "done"]


def test_dumbbell_plan(scorer, library):
    res = pl.plan("carry the dumbbell to the shelf", scorer, library)
    sem = pl.plan_semantics(res)
    assert (sem["spd"], sem["imp"]) == (0, 1)
    assert sem["end_impedance"] is True


def test_apple_plan(scorer, library):
    res = pl.plan("hand me the apple", scorer, library)
    sem = pl.plan_semantics(res)
    assert (sem["spd"], sem["imp"]) == (1, 1)


def test_scissors_slow_and_end_impedance(scorer, library):
    res = pl.plan("bring me the scissors", scorer, library)
    sem = pl.plan_semantics(res)
    assert sem["spd"] == 0
    assert sem["end_impedance"] is True


def test_cereal_box_fast(scorer, library):
    res = pl.plan("hand me the cereal box", scorer, library)
    assert pl.plan_semantics(res)["spd"] == 1


def test_unknown_item_needs_clarification(scorer, library):
    res = pl.plan("bring me the flurbamajig", scorer, library)
    assert res.status == "needs_clarification"


def test_planning_is_deterministic(scorer, library):
    a = pl.plan("carry the kettlebell", scorer, library)
    b = pl.plan("carry the kettlebell", scorer, library)
    assert [s.label for s in a.steps] == [s.label for s in b.steps]


# ---------------------------------------------------------------------------
# rule table properties


def test_rule_table_examples():
    assert pl.ItemRecord.expected_from_labels(False, False, False) == (1, 1, False)
    assert pl.ItemRecord.expected_from_labels(False, True, False) == (0, 0, False)
    assert pl.ItemRecord.expected_from_labels(False, False, True) == (0, 1, True)
    assert pl.ItemRecord.expected_from_labels(True, False, False) == (0, 1, True)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.booleans())
def test_dangerous_label_is_safety_monotone(fragile, heavy):
    spd0, _, end0 = pl.ItemRecord.expected_from_labels(False, fragile, heavy)
    spd1, _, end1 = pl.ItemRecord.expected_from_labels(True, fragile, heavy)
    assert spd1 <= spd0
    assert end1 is True


class MonotoneWrap:
    """Applies a strictly increasing transform to another scorer's outputs."""

    def __init__(self, inner, a, b):
        self.inner = inner
        self.a = a
        self.b = b

    def score(self, query):
        r = self.inner.score(query)
        if r.needs_clarification or r.invalid:
            return r
        import math
        return pl.ScoreResult(tuple(math.exp(self.a * p) + self.b for p in r.probabilities))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 4.0), st.floats(-2.0, 2.0))
def test_argmax_invariance_under_monotone_transforms(a, b):
    corpus = pl.load_corpus(pl.data_path("corpus.jsonl"))
    library = pl.default_library()
    base = pl.RuleScorer(corpus)
    ref = pl.plan("carry the suitcase", base, library)
    wrapped = pl.plan("carry the suitcase", MonotoneWrap(base, a, b), library)
    assert [s.label for s in ref.steps] == [s.label for s in wrapped.steps]


# ---------------------------------------------------------------------------
# replanning


def test_replan_check_boundary():
    assert pl.replan_check(0.49, 0.5) is False
    assert pl.replan_check(0.5, 0.5) is True
    assert pl.replan_check(0.51, 0.5) is True


def test_empty_library_rejected():
    with pytest.raises(pl.PlanError):
        pl.SubtaskLibrary(subtasks=())


# ---------------------------------------------------------------------------
# runtime handoff


def test_runtime_sync_mode(scorer, library):
    runtime = pl.PlannerRuntime(scorer, library)
    runtime.request_plan("help me drink water")
    result = runtime.poll()
    assert result is not None
    assert result.steps[2].label == "go_target(mouth)"
    assert runtime.poll() is None  # slot cleared on read


class NeverDone:
    """Picks the first candidate of every decision, so never ``done``."""

    def score(self, query):
        return pl.ScoreResult(tuple(float(i == 0) for i in range(len(query.candidates))))


def test_runaway_plan_is_invalid(corpus, library):
    res = pl.plan("help me drink water", NeverDone(), library)
    assert (res.status, res.steps) == ("invalid", [])
    assert res.reason == f"plan exceeded {pl.MAX_STEPS} steps without 'done'"
    runtime = pl.PlannerRuntime(NeverDone(), library)
    runtime.request_plan("help me drink water")
    assert runtime.poll() == res
    report = pl.evaluate_corpus(corpus[:3], NeverDone(), library)
    assert (report["success_rate"], report["validity_rate"]) == (0.0, 0.0)
    assert [row["valid"] for row in report["per_item"]] == [False] * 3


# ---------------------------------------------------------------------------
# corpus and evaluation


def test_corpus_category_counts(corpus):
    counts = {}
    for item in corpus:
        counts[item.category] = counts.get(item.category, 0) + 1
    assert counts == {"food": 50, "household": 85, "heavy": 60}
    assert len(corpus) == 195


def test_corpus_rows_consistent_with_rule_table(corpus):
    assert all(item.consistent() for item in corpus)


def test_corpus_loader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "x", "category": "food"}\n')
    with pytest.raises(ValueError, match="line 1"):
        pl.load_corpus(path)


def test_corpus_loader_rejects_inconsistent_expected(tmp_path):
    row = {"name": "x", "category": "food",
           "labels": {"dangerous": False, "fragile": False, "heavy": False},
           "expected": {"spd": 0, "imp": 0, "end_impedance": False}}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="inconsistent"):
        pl.load_corpus(path)


def test_evaluate_corpus_perfect_on_bundled(corpus, library, scorer):
    report = pl.evaluate_corpus(corpus, scorer, library)
    assert report["success_rate"] == 1.0
    assert report["validity_rate"] == 1.0
    assert all(v == 0 for v in report["error_breakdown"].values())
    # no step executes with arguments its subtask does not bind
    bindings = {s.name: [args for _, args in s.bindings] or [{}] for s in library.subtasks}
    for row in report["per_item"]:
        for step in pl.plan(row["task"], scorer, library).steps:
            assert step.args in bindings[step.name], (row["task"], step)


def test_evaluate_corpus_mislabeled_heavy_increments_impedance(library):
    # fragile+heavy item whose db labels lost the heavy flag: the scorer
    # now predicts gentle assistance while ground truth expects firm
    item = pl.ItemRecord(name="crystal crate", category="heavy",
                         dangerous=False, fragile=True, heavy=False,
                         expected_spd=0, expected_imp=1,
                         expected_end_impedance=True)
    report = pl.evaluate_corpus([item], pl.RuleScorer([item]), library)
    assert report["error_breakdown"]["impedance"] == 1
    assert sum(report["error_breakdown"].values()) == 1
    assert report["success_rate"] == 0.0


def test_targets_table_loads():
    targets = pl.load_targets()
    assert set(targets) == {"mouth", "chest", "shelf"}
    assert tuple(targets) == pl.TARGET_NAMES  # the library lists the file's places
    assert len(targets["mouth"]) == 4


# ---------------------------------------------------------------------------
# LLM scorer (hermetic via scripted + record/replay transports)


class ScriptedTransport:
    """Returns canned chat responses keyed by what is being decided."""

    def __init__(self, sequence):
        self.sequence = list(sequence)
        self.calls = 0

    def send(self, payload):
        if self.calls >= len(self.sequence):
            raise AssertionError("scripted transport exhausted")
        answer = self.sequence[self.calls]
        self.calls += 1
        return {"choices": [{"message": {"content": answer}}]}


def scripted_answers():
    """Responses driving the canonical water plan, one per decision."""
    def pick(choice, conf=0.9):
        return f'thinking...\n{{"choice": "{choice}", "confidence": {conf}, "reasoning": "ok"}}'
    return [
        pick("set_mode"), pick("set_mode(0)"),
        pick("paramset"), pick("paramset(Spd=0, Imp=0)"),
        pick("go_target"), pick("go_target(mouth)"),
        pick("done"),
    ]


def make_llm_scorer(transport, library, fallback=None):
    cfg = llmmod.LLMConfig(endpoint="http://fixture", model="fixture-model",
                           retries=0)
    return llmmod.LLMScorer(cfg, library, transport=transport, fallback=fallback)


def test_llm_scorer_drives_plan(library):
    scorer = make_llm_scorer(ScriptedTransport(scripted_answers()), library)
    res = pl.plan("help me drink water", scorer, library)
    assert [s.label for s in res.steps] == [
        "set_mode(0)", "paramset(Spd=0, Imp=0)", "go_target(mouth)", "done"]


def test_llm_unrecognized_function_marks_plan_invalid(library):
    bad = ['{"choice": "launch_rocket", "confidence": 1.0}']
    scorer = make_llm_scorer(ScriptedTransport(bad), library)
    res = pl.plan("help me drink water", scorer, library)
    assert res.status == "invalid"
    assert any(e["type"] == "invalid_response" for e in scorer.events)


@pytest.mark.parametrize("confidence", ["NaN", "Infinity", "-Infinity"])
def test_llm_non_finite_confidence_marks_plan_invalid(library, confidence):
    # json.loads reads these; a NaN probability would make the argmax pick set_mode
    answer = f'{{"choice": "done", "confidence": {confidence}}}'
    scorer = make_llm_scorer(ScriptedTransport([answer]), library)
    res = pl.plan("help me drink water", scorer, library)
    assert (res.status, res.reason) == ("invalid", "scorer produced an unrecognized selection")
    assert [e["type"] for e in scorer.events] == ["invalid_response"]


def test_llm_malformed_response_marks_plan_invalid(library):
    scorer = make_llm_scorer(ScriptedTransport(["no json here"]), library)
    res = pl.plan("help me drink water", scorer, library)
    assert res.status == "invalid"


class FailingTransport:
    def send(self, payload):
        raise llmmod.LLMError("simulated timeout")


def test_llm_timeout_falls_back_to_rule_scorer(corpus, library):
    fallback = pl.RuleScorer(corpus)
    scorer = make_llm_scorer(FailingTransport(), library, fallback=fallback)
    res = pl.plan("help me drink water", scorer, library)
    assert res.status == "ready"
    assert pl.plan_semantics(res) == {"spd": 0, "imp": 0, "end_impedance": False}
    assert any(e["type"] == "fallback" for e in scorer.events)


class CountingFailingTransport(FailingTransport):
    calls = 0

    def send(self, payload):
        self.calls += 1
        return super().send(payload)


def test_llm_fallback_keeps_rule_scorer_clarification(corpus, library):
    transport = CountingFailingTransport()
    scorer = make_llm_scorer(transport, library, fallback=pl.RuleScorer(corpus))
    res = pl.plan("bring me the flurbamajig", scorer, library)
    assert res.status == "needs_clarification"
    assert transport.calls == 1


class CountingScorer:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def score(self, query):
        self.calls += 1
        return self.inner.score(query)


def test_scorer_called_once_per_decision(scorer, library):
    # water plan: 4 subtask decisions, 3 of them configurable
    counting = CountingScorer(scorer)
    pl.plan("help me drink water", counting, library)
    assert counting.calls == 7
    transport = ScriptedTransport(scripted_answers())
    pl.plan("help me drink water", make_llm_scorer(transport, library), library)
    assert transport.calls == 7


def test_llm_record_then_replay_is_hermetic(tmp_path, library):
    fixture = tmp_path / "replay.json"
    recording = llmmod.RecordingTransport(ScriptedTransport(scripted_answers()), fixture)
    rec_scorer = make_llm_scorer(recording, library)
    res1 = pl.plan("help me drink water", rec_scorer, library)

    replay_scorer = make_llm_scorer(llmmod.ReplayTransport(fixture), library)
    res2 = pl.plan("help me drink water", replay_scorer, library)
    assert [s.label for s in res1.steps] == [s.label for s in res2.steps]

    with pytest.raises(llmmod.ReplayMiss):
        pl.plan("carry the dumbbell", make_llm_scorer(llmmod.ReplayTransport(fixture), library), library)


def test_llm_parse_choice_contract():
    content = 'reasoning\n{"choice": "paramset(Spd=0, Imp=1)", "confidence": 0.8}'
    choice, conf = llmmod.LLMScorer.parse_choice(content, ["paramset(Spd=0, Imp=1)", "x"])
    assert choice == "paramset(Spd=0, Imp=1)"
    assert conf == 0.8
    choice, _ = llmmod.LLMScorer.parse_choice('{"choice": "nope"}', ["a", "b"])
    assert choice is None


def test_prompt_template_carries_functions_and_examples(library):
    template = llmmod.load_prompt_template()
    rendered = template.format(functions=library.describe_functions(),
                               task="t", history="(empty)", context="c",
                               candidates="- a")
    assert "set_mode" in rendered and "paramset" in rendered
    assert "Worked example" in rendered
    assert '"choice"' in rendered


def test_llm_config_from_env(monkeypatch):
    monkeypatch.delenv(llmmod.ENV_ENDPOINT, raising=False)
    with pytest.raises(llmmod.LLMError):
        llmmod.LLMConfig.from_env()
    monkeypatch.setenv(llmmod.ENV_ENDPOINT, "https://api.example")
    monkeypatch.setenv(llmmod.ENV_MODEL, "some-model")
    monkeypatch.setenv(llmmod.ENV_API_KEY, "sk-test")
    cfg = llmmod.LLMConfig.from_env()
    assert cfg.endpoint == "https://api.example"
    assert cfg.api_key == "sk-test"
