"""Stepwise task planning with anomaly-triggered replanning.

Each planning step is one or two decisions, each one scorer call over a
set of candidates: the next subtask, then, if that subtask is
configurable, its parameter binding. The scorer (a deterministic rule
scorer for tests and offline use, or a remote language model client)
returns one probability per candidate and the planner takes the argmax.
Planning has one outcome, a ``Plan`` whose ``status`` says whether it may
execute: ``ready``, ``needs_clarification`` (ask the wearer) or
``invalid`` (an unrecognised scorer answer, or a plan that runs past
``MAX_STEPS`` steps without ``done``); only a ready plan is ever run.
Replanning happens in the harness: when the anomaly score crosses the
threshold during execution, it aborts the running plan and requests a new
one.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "PlanError",
    "Subtask",
    "SubtaskLibrary",
    "default_library",
    "PlanStep",
    "Plan",
    "ScorerQuery",
    "ScoreResult",
    "ItemRecord",
    "RuleScorer",
    "replan_check",
    "plan",
    "PlannerRuntime",
    "load_corpus",
    "load_targets",
    "evaluate_corpus",
    "data_path",
]

DEFAULT_THRESHOLD = 0.5
MAX_STEPS = 16  # past this many steps without ``done`` a plan has run away
TARGET_NAMES = ("mouth", "chest", "shelf")  # the places of targets.json, in its order
PREDEFINED = ("catch_prep", "arm_swing")  # the library's predefined movements


class PlanError(RuntimeError):
    """Raised for an empty subtask library."""


def data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


# ---------------------------------------------------------------------------
# subtask library


@dataclass(frozen=True)
class Subtask:
    name: str
    description: str
    configurable: bool
    bindings: tuple = ()  # (label, args) pairs for configurable subtasks


@dataclass(frozen=True)
class SubtaskLibrary:
    subtasks: tuple[Subtask, ...]

    def __post_init__(self):
        if not self.subtasks:
            raise PlanError("subtask library is empty")

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.subtasks]

    def describe_functions(self) -> str:
        return "\n".join(f"- {s.name}: {s.description}" for s in self.subtasks)


def default_library() -> SubtaskLibrary:
    subtasks = [
        Subtask(
            name="set_mode",
            description="Set controller mode. Input Mode: 0 for transparent mode "
                        "(wearer moves freely, used for grasping), 1 for impedance "
                        "mode (robot assists).",
            configurable=True,
            bindings=tuple((f"set_mode({m})", {"mode": m}) for m in (0, 1)),
        ),
        Subtask(
            name="paramset",
            description="Configure assistance parameters. Input Imp: 0 for low "
                        "intensity (w=2), 1 for high stiffness and damping (w=0.5). "
                        "Input Spd: 0 for low speed (5 s, 30 deg/s), 1 for high "
                        "speed (2 s, 70 deg/s).",
            configurable=True,
            bindings=tuple(
                (f"paramset(Spd={s}, Imp={i})", {"spd": s, "imp": i})
                for s in (0, 1) for i in (0, 1)
            ),
        ),
        Subtask(
            name="go_target",
            description="Move the arm to a named target place relative to the "
                        f"wearer. Known targets: {', '.join(TARGET_NAMES)}.",
            configurable=True,
            bindings=tuple(
                (f"go_target({t})", {"target": t}) for t in TARGET_NAMES
            ),
        ),
        *[
            Subtask(
                name=f"predefined:{p}",
                description=f"Execute the predefined movement '{p}'.",
                configurable=False,
            )
            for p in PREDEFINED
        ],
        Subtask(name="done", description="Task complete; end the plan.",
                configurable=False),
    ]
    return SubtaskLibrary(subtasks=tuple(subtasks))


# ---------------------------------------------------------------------------
# plans


@dataclass
class PlanStep:
    name: str
    args: dict
    label: str


@dataclass
class Plan:
    """What planning returns. ``status`` is ``ready`` (the steps end in
    ``done``), ``needs_clarification`` or ``invalid``; a plan that is not
    ready has no steps and a ``reason``."""

    steps: list[PlanStep] = field(default_factory=list)
    cursor: int = 0
    status: str = "ready"
    reason: str | None = None

    @property
    def finished(self) -> bool:
        return self.cursor >= len(self.steps)

    def current(self) -> PlanStep | None:
        return None if self.finished else self.steps[self.cursor]

    def advance(self) -> None:
        self.cursor += 1


# ---------------------------------------------------------------------------
# scoring interface: one scorer call per decision


@dataclass(frozen=True)
class ScorerQuery:
    task: str
    candidates: tuple[str, ...]    # subtask names, or the chosen subtask's labels
    context: str | None = None     # chosen-subtask description for config queries
    history: tuple[str, ...] = ()  # labels of steps already in the plan


@dataclass(frozen=True)
class ScoreResult:
    probabilities: tuple[float, ...]  # one per candidate, in candidate order
    needs_clarification: bool = False
    invalid: bool = False


# ---------------------------------------------------------------------------
# item corpus and the deterministic rule scorer


@dataclass(frozen=True)
class ItemRecord:
    name: str
    category: str  # food | household | heavy
    dangerous: bool
    fragile: bool
    heavy: bool
    expected_spd: int
    expected_imp: int
    expected_end_impedance: bool

    @staticmethod
    def expected_from_labels(dangerous: bool, fragile: bool, heavy: bool):
        """The rule table.

        Spd = 1 only for light, safe, robust items; Imp = 1 for heavy or
        non-fragile items (firm support unless the object needs a gentle
        touch); the end mode stays impedance after heavy or dangerous items.
        """
        spd = 0 if (dangerous or fragile or heavy) else 1
        imp = 1 if (heavy or not fragile) else 0
        end_imp = bool(heavy or dangerous)
        return spd, imp, end_imp

    def consistent(self) -> bool:
        return (self.expected_spd, self.expected_imp, self.expected_end_impedance) == \
            self.expected_from_labels(self.dangerous, self.fragile, self.heavy)


def load_corpus(path: str | Path) -> list[ItemRecord]:
    """JSON-lines corpus; malformed or inconsistent rows are rejected with line numbers."""
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            labels = raw["labels"]
            expected = raw["expected"]
            rec = ItemRecord(
                name=raw["name"],
                category=raw["category"],
                dangerous=bool(labels["dangerous"]),
                fragile=bool(labels["fragile"]),
                heavy=bool(labels["heavy"]),
                expected_spd=int(expected["spd"]),
                expected_imp=int(expected["imp"]),
                expected_end_impedance=bool(expected["end_impedance"]),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ValueError(f"corpus line {lineno}: malformed record ({exc})") from exc
        if raw["category"] not in ("food", "household", "heavy"):
            raise ValueError(f"corpus line {lineno}: unknown category {raw['category']!r}")
        if not rec.consistent():
            raise ValueError(
                f"corpus line {lineno}: expected bits inconsistent with labels "
                f"for {rec.name!r}")
        records.append(rec)
    return records


def load_targets() -> dict[str, list[float]]:
    """Named joint-space targets, degrees in the file."""
    raw = json.loads(data_path("targets.json").read_text())
    return {k: [float(v) for v in vals] for k, vals in raw.items()}


_WORD = re.compile(r"[a-z0-9]+")

_TARGET_HINTS = {
    "mouth": "mouth", "drink": "mouth", "eat": "mouth", "sip": "mouth",
    "chest": "chest", "hand": "chest", "give": "chest", "me": None,
    "shelf": "shelf", "place": "shelf", "put": "shelf", "store": "shelf",
}


def _tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def match_item(task: str, items: list[ItemRecord]) -> ItemRecord | None:
    """Best token-overlap match of an item name inside the task text."""
    toks = set(_tokens(task))
    best, best_key = None, (0.0, 0, "")
    for item in items:
        name_toks = _tokens(item.name)
        if not name_toks:
            continue
        overlap = sum(1 for t in name_toks if t in toks) / len(name_toks)
        if overlap <= 0.0:
            continue
        key = (overlap, len(name_toks), item.name)
        if key > best_key:
            best, best_key = item, key
    return best


def extract_target(task: str) -> str:
    toks = _tokens(task)
    for name in TARGET_NAMES:  # explicit mention wins
        if name in toks:
            return name
    for tok in toks:
        hint = _TARGET_HINTS.get(tok)
        if hint:
            return hint
    return "chest"


class RuleScorer:
    """Deterministic stand-in for the language model.

    Builds the canonical plan for the matched item and scores 1.0 for
    whichever candidate continues that plan, 0.0 for the others; with no
    matched item it asks for clarification.
    """

    def __init__(self, items: list[ItemRecord]):
        self.items = list(items)

    def canonical_plan(self, task: str) -> list[tuple[str, str]] | None:
        item = match_item(task, self.items)
        if item is None:
            return None
        # derive bits from the labels the database knows, not from the
        # evaluation ground truth: mislabeled items must mispredict
        spd, imp, end_imp = ItemRecord.expected_from_labels(
            item.dangerous, item.fragile, item.heavy)
        target = extract_target(task)
        steps = [
            ("set_mode", "set_mode(0)"),
            ("paramset", f"paramset(Spd={spd}, Imp={imp})"),
            ("go_target", f"go_target({target})"),
        ]
        if end_imp:
            steps.append(("set_mode", "set_mode(1)"))
        steps.append(("done", "done"))
        return steps

    def score(self, query: ScorerQuery) -> ScoreResult:
        steps = self.canonical_plan(query.task)
        if steps is None:
            return ScoreResult((0.5,) * len(query.candidates), needs_clarification=True)
        idx = len(query.history)
        name, label = steps[idx] if idx < len(steps) else ("done", "done")
        expected = name if query.context is None else label
        return ScoreResult(tuple(float(c == expected) for c in query.candidates))


# ---------------------------------------------------------------------------
# Algorithm-1 planning loop


def replan_check(s: float, s_bar: float = DEFAULT_THRESHOLD) -> bool:
    """True exactly when the anomaly score reaches the threshold."""
    return s >= s_bar


def _argmax(scores) -> int:
    """Argmax with ties broken toward the earliest candidate."""
    best, best_score = 0, -float("inf")
    for i, sc in enumerate(scores):
        if sc > best_score:
            best, best_score = i, sc
    return best


def _decide(scorer, query: ScorerQuery, what: str) -> tuple[int, Plan | None]:
    """One scorer call: the index of the best candidate, or the plan that
    ends planning when the scorer asks for clarification or fails to
    recognise its own answer (``what`` names the decision in the reason)."""
    r = scorer.score(query)
    if r.needs_clarification:
        return 0, Plan(status="needs_clarification",
                       reason=f"scorer asked for clarification of the {what}")
    if r.invalid:
        return 0, Plan(status="invalid", reason=f"scorer produced an unrecognized {what}")
    return _argmax(r.probabilities), None


def plan(task: str, scorer, library: SubtaskLibrary) -> Plan:
    """Generate a plan stepwise: choose a subtask, then its configuration,
    append, until the chosen subtask is ``done``. Planning ends early, with
    a plan that is not ready, when the scorer asks for clarification or
    gives an unrecognised answer, or past ``MAX_STEPS`` steps."""
    steps: list[PlanStep] = []
    while not steps or steps[-1].name != "done":
        if len(steps) > MAX_STEPS:
            return Plan(status="invalid", reason=f"plan exceeded {MAX_STEPS} steps without 'done'")
        history = tuple(step.label for step in steps)
        i, end = _decide(scorer, ScorerQuery(task, tuple(library.names), history=history),
                         "selection")
        if end:
            return end
        pick = library.subtasks[i]
        label, args = pick.name, {}
        if pick.configurable:
            labels = tuple(label for label, _ in pick.bindings)
            j, end = _decide(scorer, ScorerQuery(task, labels, pick.description, history),
                             "configuration")
            if end:
                return end
            label, args = pick.bindings[j]
        steps.append(PlanStep(name=pick.name, args=dict(args), label=label))
    return Plan(steps=steps)


# ---------------------------------------------------------------------------
# runtime handoff: the control loop requests plans and polls for them


class PlannerRuntime:
    """The planner as the control loop sees it.

    ``request_plan`` plans ``task`` from scratch (a replan is just another
    request) into a slot that ``poll`` reads and clears. Planning runs in
    the caller, so the plan, whatever its status, is there on the next poll.
    """

    def __init__(self, scorer, library: SubtaskLibrary):
        self.scorer = scorer
        self.library = library
        self._slot: Plan | None = None

    def request_plan(self, task: str) -> None:
        self._slot = plan(task, self.scorer, self.library)

    def poll(self) -> Plan | None:
        result, self._slot = self._slot, None
        return result


# ---------------------------------------------------------------------------
# corpus evaluation


def plan_semantics(p: Plan) -> dict:
    """Extract (spd, imp, end mode) from a finished plan's steps."""
    spd = imp = None
    end_impedance = False
    for step in p.steps:
        if step.name == "paramset":
            spd, imp = step.args.get("spd"), step.args.get("imp")
        if step.name == "set_mode":
            end_impedance = step.args.get("mode") == 1
        if step.name == "done":
            break
    return {"spd": spd, "imp": imp, "end_impedance": end_impedance}


def evaluate_corpus(corpus: list[ItemRecord], scorer, library: SubtaskLibrary) -> dict:
    """Per-item semantic bits against expectations, with the four-way error
    breakdown (impedance / speed / combined / end mode)."""
    per_item = []
    buckets = {"impedance": 0, "speed": 0, "combined": 0, "end_mode": 0}
    n_success = 0
    n_valid = 0
    for item in corpus:
        task = f"help me carry the {item.name}"
        result = plan(task, scorer, library)
        row = {"name": item.name, "task": task,
               "expected": {"spd": item.expected_spd, "imp": item.expected_imp,
                            "end_impedance": item.expected_end_impedance}}
        if result.status != "ready":
            row["valid"] = False
            row["success"] = False
            per_item.append(row)
            continue
        n_valid += 1
        sem = plan_semantics(result)
        row["valid"] = True
        row["predicted"] = sem
        spd_err = sem["spd"] != item.expected_spd
        imp_err = sem["imp"] != item.expected_imp
        end_err = sem["end_impedance"] != item.expected_end_impedance
        success = not (spd_err or imp_err or end_err)
        row["success"] = success
        if success:
            n_success += 1
        elif spd_err and imp_err:
            buckets["combined"] += 1
        elif imp_err:
            buckets["impedance"] += 1
        elif spd_err:
            buckets["speed"] += 1
        elif end_err:
            buckets["end_mode"] += 1
        per_item.append(row)
    n = len(corpus)
    return {
        "schema_version": 1,
        "n_items": n,
        "success_rate": n_success / n if n else 0.0,
        "validity_rate": n_valid / n if n else 0.0,
        "error_breakdown": buckets,
        "per_item": per_item,
    }
