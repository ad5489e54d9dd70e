"""HTTP-backed resolver speaking the chat-completions JSON convention.

Request: ``{"model": ..., "messages": [{"role": ..., "content": ...}], "temperature": ...}``
Response: ``{"choices": [{"message": {"content": ...}}]}``

The stage prompts are built from the text templates in ``prompts/`` (one per
stage); the API token comes from the ``ANOMALOOP_API_KEY`` environment
variable.  Transport failures (connection errors, HTTP 429/5xx) are retried
with a fixed backoff schedule; auth failures and exhausted retries are not
the resolver's to hide and propagate to the harness.
"""

from __future__ import annotations

import functools
import os
import string
import time
from dataclasses import dataclass
from importlib import resources

import requests

from .pipeline import Resolver, Stage, StageContext, StageFailure

API_KEY_ENV = "ANOMALOOP_API_KEY"

BACKOFF_SCHEDULE_S = (1.0, 2.0, 4.0)


class TransportError(Exception):
    def __init__(self, message: str, retryable: bool = True):
        self.retryable = retryable
        super().__init__(message)


class AuthError(Exception):
    pass


class BudgetExceeded(Exception):
    pass


class MalformedResponse(Exception):
    pass


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    temperature: float = 0.0
    timeout_s: float = 60.0
    backoff_s: tuple[float, ...] = BACKOFF_SCHEDULE_S

    @property
    def url(self) -> str:
        return self.base_url.rstrip("/") + "/v1/chat/completions"


def _api_key() -> str:
    key = os.environ.get(API_KEY_ENV, "")
    if not key:
        raise AuthError(f"{API_KEY_ENV} is not set")
    return key


def chat_completion(
    endpoint: EndpointConfig,
    messages: list[dict],
    session=None,
    sleep=time.sleep,
) -> str:
    """One chat call with retries: initial attempt plus one retry per backoff entry."""
    session = session or requests
    payload = {"model": endpoint.model, "messages": messages, "temperature": endpoint.temperature}
    headers = {"Authorization": f"Bearer {_api_key()}", "Content-Type": "application/json"}
    attempts = len(endpoint.backoff_s) + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        try:
            resp = session.post(endpoint.url, json=payload, headers=headers, timeout=endpoint.timeout_s)
        except requests.RequestException as exc:
            last_error = TransportError(f"request failed: {exc}")
        else:
            if resp.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
            if resp.status_code >= 500 or resp.status_code == 429:
                last_error = TransportError(f"HTTP {resp.status_code}")
            elif resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}", retryable=False)
            else:
                try:
                    body = resp.json()
                    content = body["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    raise MalformedResponse(f"bad completion body: {exc}") from exc
                if not isinstance(content, str):
                    raise MalformedResponse("completion content is not text")
                return content
        if attempt < attempts - 1:
            sleep(endpoint.backoff_s[attempt])
    raise BudgetExceeded(f"gave up after {attempts} attempts: {last_error}")


_TEMPLATE_FILES = {
    Stage.SCENE: "scene.txt",
    Stage.ANALYSIS: "analysis.txt",
    Stage.SOLUTION: "solution.txt",
    Stage.FORMATTING: "formatting.txt",
}


@functools.cache
def load_template(stage: Stage) -> string.Template:
    """The stage's prompt template, read from its file once per process."""
    text = resources.files("anomaloop").joinpath("prompts", _TEMPLATE_FILES[stage]).read_text()
    return string.Template(text)


def build_messages(stage: Stage, ctx: StageContext) -> list[dict]:
    template = load_template(stage)
    body = template.safe_substitute(
        OBSERVATION=ctx.obs_text,
        SCENE_LABEL=ctx.scene_output.strip(),
        ANALYSIS=ctx.analysis_output,
        SOLUTION=ctx.solution_output,
        DIAGNOSTICS=ctx.reask_diagnostics or "(none)",
    )
    system = (
        f"You are a traffic-operations resolver. This is the {stage.value} step "
        "of a four-step procedure; answer in exactly the format the instructions request."
    )
    return [{"role": "system", "content": system}, {"role": "user", "content": body}]


class RemoteResolver(Resolver):
    """Resolver backed by a chat-completions endpoint."""

    name = "remote"

    def __init__(self, endpoint: EndpointConfig, sleep=time.sleep):
        super().__init__()
        self.endpoint = endpoint
        self._sleep = sleep

    def run_stage(self, stage: Stage, ctx: StageContext) -> str:
        messages = build_messages(stage, ctx)
        try:
            return chat_completion(self.endpoint, messages, sleep=self._sleep)
        except MalformedResponse as exc:
            # A garbled completion fails the stage; transport and auth
            # problems are infrastructure failures and propagate.
            raise StageFailure(stage, str(exc)) from exc

