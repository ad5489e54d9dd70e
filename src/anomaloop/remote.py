"""HTTP-backed resolver speaking the chat-completions JSON convention.

Request: ``{"model": ..., "messages": [{"role": ..., "content": ...}], "temperature": ...}``
Response: ``{"choices": [{"message": {"content": ...}}]}``

The stage prompts are built from the text templates in ``prompts/`` (one per
stage); the API token comes from the ``ANOMALOOP_API_KEY`` environment
variable.  Transport failures (connection errors, HTTP 429/5xx) are retried
with a fixed backoff schedule; auth failures and exhausted retries are not
the resolver's to hide and propagate to the harness.

The transport is the standard library's ``urllib.request``, with one
connection per stage call (it sends ``Connection: close``).  It honours the
``http_proxy``/``https_proxy``/``no_proxy`` variables as they are when the
process first calls an endpoint, verifies TLS certificates and follows
redirects without forwarding the token.  CA certificates come from the system
store, which ``SSL_CERT_FILE`` overrides (certifi and ``REQUESTS_CA_BUNDLE``
play no part), and a ``~/.netrc`` entry never replaces the bearer token.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import string
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources

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


def chat_completion(endpoint: EndpointConfig, messages: list[dict], sleep=time.sleep) -> str:
    """One chat call with retries: initial attempt plus one retry per backoff entry."""
    payload = {"model": endpoint.model, "messages": messages, "temperature": endpoint.temperature}
    data = json.dumps(payload).encode()
    token = f"Bearer {_api_key()}"
    attempts = len(endpoint.backoff_s) + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        request = urllib.request.Request(endpoint.url, data=data, headers={"Content-Type": "application/json"})
        # An unredirected header is not forwarded to a redirect target.
        request.add_unredirected_header("Authorization", token)
        try:
            with urllib.request.urlopen(request, timeout=endpoint.timeout_s) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {exc.code})") from None
            if exc.code >= 500 or exc.code == 429:
                last_error = TransportError(f"HTTP {exc.code}")
            else:
                raise TransportError(f"HTTP {exc.code}", retryable=False) from None
        except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
            last_error = TransportError(f"request failed: {exc}")
        else:
            if status != 200:
                raise TransportError(f"HTTP {status}", retryable=False)
            try:
                content = json.loads(raw)["choices"][0]["message"]["content"]
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

