"""Remote language-model scorer: chat-completion client with record/replay.

The planner asks for one probability per candidate of each decision;
commercial endpoints expose neither token likelihoods nor per-candidate
scores, so each decision becomes one structured completion request
(chain-of-thought prompt, JSON answer with a chosen candidate and a
confidence). The chosen candidate receives the stated confidence, the rest
share the remainder.

Transports make the client hermetic: HTTPTransport talks to the real
endpoint, RecordingTransport snapshots request/response pairs to a file,
ReplayTransport serves them back by exact request match.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import requests

from .planner import ScoreResult, ScorerQuery, data_path

__all__ = [
    "LLMError",
    "ReplayMiss",
    "LLMConfig",
    "HTTPTransport",
    "RecordingTransport",
    "ReplayTransport",
    "LLMScorer",
    "load_prompt_template",
]

ENV_ENDPOINT = "EXOASSIST_LLM_ENDPOINT"
ENV_MODEL = "EXOASSIST_LLM_MODEL"
ENV_API_KEY = "EXOASSIST_LLM_API_KEY"


class LLMError(RuntimeError):
    """Transport or protocol failure talking to the model endpoint."""


class ReplayMiss(LLMError):
    """Replay fixture has no response recorded for this request."""


@dataclass
class LLMConfig:
    endpoint: str
    model: str
    api_key: str = ""
    timeout: float = 20.0
    retries: int = 1
    temperature: float = 0.0

    @classmethod
    def from_env(cls) -> "LLMConfig":
        endpoint = os.environ.get(ENV_ENDPOINT, "")
        model = os.environ.get(ENV_MODEL, "")
        if not endpoint or not model:
            raise LLMError(
                f"remote scorer needs {ENV_ENDPOINT} and {ENV_MODEL} set")
        return cls(endpoint=endpoint, model=model,
                   api_key=os.environ.get(ENV_API_KEY, ""))


class HTTPTransport:
    def __init__(self, config: LLMConfig):
        self.config = config

    def send(self, payload: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        try:
            resp = requests.post(url, json=payload, headers=headers,
                                 timeout=self.config.timeout)
            resp.raise_for_status()
            return resp.json()
        except requests.RequestException as exc:
            raise LLMError(f"chat completion request failed: {exc}") from exc


class RecordingTransport:
    """Wraps another transport and appends request/response pairs to a file."""

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)

    def send(self, payload: dict) -> dict:
        response = self.inner.send(payload)
        entries = []
        if self.path.exists():
            entries = json.loads(self.path.read_text())
        entries.append({"request": payload, "response": response})
        self.path.write_text(json.dumps(entries, indent=1))
        return response


class ReplayTransport:
    """Serves recorded responses by exact request equality."""

    def __init__(self, path: str | Path):
        self.entries = json.loads(Path(path).read_text())

    def send(self, payload: dict) -> dict:
        for entry in self.entries:
            if entry["request"] == payload:
                return entry["response"]
        raise ReplayMiss(
            f"no recorded response for request with "
            f"{len(payload.get('messages', []))} messages")


_SYSTEM = ("You are the task planner of an upper-limb assistive "
           "exoskeleton. Reason step by step, then answer with JSON.")


def load_prompt_template() -> str:
    return data_path("prompt_template.txt").read_text()


class LLMScorer:
    """Scores each planner decision through one completion request.

    ``library`` supplies the function descriptions the prompt lists. On
    transport failure the scorer retries, then returns the fallback
    scorer's result (typically the rule scorer's) if one is configured;
    every fallback and every unrecognised answer is recorded in ``events``.
    """

    def __init__(self, config: LLMConfig, library, transport=None, fallback=None):
        self.config = config
        self.functions = library.describe_functions()
        self.transport = transport or HTTPTransport(config)
        self.template = load_prompt_template()
        self.fallback = fallback
        self.events: list[dict] = []

    def _complete(self, user: str) -> str:
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": _SYSTEM},
                {"role": "user", "content": user},
            ],
        }
        last_exc: Exception | None = None
        for _ in range(max(1, self.config.retries + 1)):
            try:
                response = self.transport.send(payload)
                return response["choices"][0]["message"]["content"]
            except ReplayMiss:
                raise  # a missing fixture entry cannot succeed on retry
            except (LLMError, KeyError, IndexError, TypeError) as exc:
                last_exc = exc
        raise LLMError(f"completion failed after retries: {last_exc}")

    @staticmethod
    def parse_choice(content: str, candidates: list[str]):
        """Extract {'choice','confidence'} JSON; an unknown choice or a
        non-finite confidence (``json.loads`` reads NaN and Infinity) -> invalid."""
        try:
            start = content.index("{")
            end = content.rindex("}") + 1
            data = json.loads(content[start:end])
            choice = str(data["choice"]).strip()
            confidence = float(data.get("confidence", 1.0))
        except (ValueError, KeyError, TypeError):
            return None, 0.0
        if not math.isfinite(confidence):
            return None, 0.0
        if choice not in candidates:
            return None, confidence
        return choice, min(max(confidence, 0.0), 1.0)

    def score(self, query: ScorerQuery) -> ScoreResult:
        candidates = query.candidates
        user = self.template.format(
            functions=self.functions,
            task=query.task,
            history="\n".join(query.history) if query.history else "(empty)",
            context=query.context or "(selecting the next subtask)",
            candidates="\n".join(f"- {c}" for c in candidates),
        )
        try:
            content = self._complete(user)
        except LLMError as exc:
            if self.fallback is None:
                raise
            self.events.append({"type": "fallback", "reason": str(exc)})
            return self.fallback.score(query)
        choice, confidence = self.parse_choice(content, candidates)
        if choice is None:
            self.events.append({"type": "invalid_response", "content": content})
            return ScoreResult((0.0,) * len(candidates), invalid=True)
        rest = (1.0 - confidence) / max(len(candidates) - 1, 1)
        return ScoreResult(tuple(confidence if c == choice else rest for c in candidates))
