"""Client for the optional language-model categorization refinement service.

The wire format is line-oriented text in both directions so any service
that can echo key/value lines can act as a backend. Transports are plain
callables ``str -> str``; the client owns request formatting, response
validation, bounded retries, and the fallback-to-draft policy. A
deterministic local stub ships here so the full pipeline and its tests
never need network access.
"""

from __future__ import annotations

import logging
import os
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigError

logger = logging.getLogger(__name__)

MAX_REFINED_LAYERS = 4

REQUEST_PREAMBLE = (
    "Classify the commit into affected protocol layers and functional "
    "components from the given vocabulary, pick exactly one change type, "
    "and give a short rationale. Answer with lines: layers, components, "
    "change_type, rationale."
)

TOKEN_ENV_VAR = "RANWATCH_REFINE_TOKEN"


class TransportError(Exception):
    """The refinement service could not be reached."""


@dataclass(frozen=True)
class RefineRequest:
    commit_hash: str
    message: str
    draft_layers: tuple[str, ...]
    draft_components: tuple[str, ...]
    draft_change_type: str
    layer_vocabulary: tuple[str, ...]
    component_vocabulary: tuple[str, ...]
    change_types: tuple[str, ...]


@dataclass(frozen=True)
class RefineResponse:
    layers: tuple[str, ...]
    components: tuple[str, ...]
    change_type: str
    rationale: str


def format_request(request: RefineRequest) -> str:
    message = request.message.replace("\n", " ").replace("\r", " ")
    lines = [
        f"preamble: {REQUEST_PREAMBLE}",
        f"commit: {request.commit_hash}",
        f"message: {message}",
        f"draft_layers: {','.join(request.draft_layers)}",
        f"draft_components: {','.join(request.draft_components)}",
        f"draft_change_type: {request.draft_change_type}",
        f"vocabulary_layers: {','.join(request.layer_vocabulary)}",
        f"vocabulary_components: {','.join(request.component_vocabulary)}",
        f"change_types: {','.join(request.change_types)}",
    ]
    return "\n".join(lines) + "\n"


def _parse_listing(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _key_values(text: str):
    """The stripped (key, value) pair of each ``key: value`` line, in order."""
    for line in text.splitlines():
        if ":" in line:
            key, raw = line.split(":", 1)
            yield key.strip(), raw.strip()


def parse_request(text: str) -> dict[str, str]:
    return dict(_key_values(text))


_RESPONSE_KEYS = ("layers", "components", "change_type", "rationale")


def parse_response(text: str, request: RefineRequest) -> RefineResponse:
    """Validate a response body; raises ValueError on any contract breach."""
    fields = {key.lower(): raw for key, raw in _key_values(text) if key.lower() in _RESPONSE_KEYS}
    for required in _RESPONSE_KEYS:
        if required not in fields:
            raise ValueError(f"response is missing the {required} line")

    def normalize(names: tuple[str, ...], vocabulary: tuple[str, ...], label: str) -> tuple[str, ...]:
        lookup = {v.lower(): v for v in vocabulary}
        out = []
        for name in names:
            if name.lower() not in lookup:
                raise ValueError(f"unknown {label} {name!r}")
            canonical = lookup[name.lower()]
            if canonical not in out:
                out.append(canonical)
        return tuple(out)

    layers = normalize(_parse_listing(fields["layers"]), request.layer_vocabulary, "layer")
    components = normalize(
        _parse_listing(fields["components"]), request.component_vocabulary, "component"
    )
    if len(layers) > MAX_REFINED_LAYERS:
        raise ValueError(f"{len(layers)} layers exceeds the limit of {MAX_REFINED_LAYERS}")
    change_type = fields["change_type"].strip().lower()
    if change_type not in request.change_types:
        raise ValueError(f"invalid change type {change_type!r}")
    rationale = fields["rationale"].strip()
    if not rationale:
        raise ValueError("rationale must be non-empty")
    return RefineResponse(
        layers=layers, components=components, change_type=change_type, rationale=rationale
    )


class EchoStubTransport:
    """Deterministic local stand-in for the refinement service.

    Confirms the keyword draft: echoes the draft categories (layers capped
    at the refined-layer limit) with a fixed rationale.
    """

    def __call__(self, request_text: str) -> str:
        fields = parse_request(request_text)
        layers = _parse_listing(fields.get("draft_layers", ""))[:MAX_REFINED_LAYERS]
        components = _parse_listing(fields.get("draft_components", ""))
        change_type = fields.get("draft_change_type", "refactoring")
        return (
            f"layers: {','.join(layers)}\n"
            f"components: {','.join(components)}\n"
            f"change_type: {change_type}\n"
            "rationale: confirmed keyword draft\n"
        )


class ScriptedTransport:
    """Replays canned response bodies in order; useful in tests."""

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self.requests: list[str] = []

    def __call__(self, request_text: str) -> str:
        self.requests.append(request_text)
        if not self._responses:
            raise TransportError("scripted transport exhausted")
        return self._responses.pop(0)


class HttpTextTransport:
    """POSTs the request body as plain text and returns the response body.

    The bearer credential, when needed, comes from the environment variable
    named by TOKEN_ENV_VAR; no other configuration is read from the
    environment.
    """

    def __init__(self, url: str, timeout: float = 10.0):
        self.url = url
        self.timeout = timeout

    def __call__(self, request_text: str) -> str:
        headers = {"Content-Type": "text/plain; charset=utf-8"}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        req = urllib.request.Request(
            self.url, data=request_text.encode("utf-8"), headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise TransportError(f"refinement service unreachable: {exc}") from exc


@dataclass
class RefineOutcome:
    response: RefineResponse | None
    status: str  # refined | fallback_invalid | fallback_unreachable
    attempts: int


class RefinementClient:
    """Sends one refinement request with bounded retries.

    Invalid responses are rejected and retried; once retries are exhausted
    the caller falls back to its draft. An unreachable transport aborts
    immediately and marks the run as degraded.
    """

    def __init__(self, transport: Callable[[str], str], retries: int = 2):
        if retries < 0:
            raise ConfigError("retries must be >= 0")
        self.transport = transport
        self.retries = retries

    def refine(self, request: RefineRequest) -> RefineOutcome:
        body = format_request(request)
        attempts = 0
        for attempt in range(self.retries + 1):
            attempts = attempt + 1
            try:
                raw = self.transport(body)
            except TransportError as exc:
                logger.warning("refinement unreachable for %s: %s", request.commit_hash, exc)
                return RefineOutcome(None, "fallback_unreachable", attempts)
            try:
                response = parse_response(raw, request)
            except ValueError as exc:
                logger.warning(
                    "rejected refinement for %s (attempt %d): %s",
                    request.commit_hash,
                    attempts,
                    exc,
                )
                continue
            return RefineOutcome(response, "refined", attempts)
        logger.warning(
            "refinement failed for %s after %d attempts, keeping draft",
            request.commit_hash,
            attempts,
        )
        return RefineOutcome(None, "fallback_invalid", attempts)
