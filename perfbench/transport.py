"""A seeded latency model in front of the simulated LLM.

The simulator answers in tens of microseconds, which would hide every
scheduling effect.  :class:`LatencyTransport` wraps a ``SimulatedLLM`` and
waits, per call, a latency drawn from a lognormal distribution whose
position comes from a hash of ``(seed, model, prompt)``.  The same prompt
therefore costs the same latency in every run, under every schedule and on
every commit, so wall-clock differences come from the framework alone.

The transport sits below every cache in the client stack, so what it
counts is exactly what a real provider would bill: calls, tokens, dollars
and the seconds spent waiting on it.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import threading
import time
from collections import Counter
from statistics import NormalDist

_STANDARD_NORMAL = NormalDist()
#: Lognormal shape of the latency draws (spread of the tail).
SIGMA = 0.5
#: Latencies are clipped at ``CAP * median_s``.
CAP = 8.0


class LatencyTransport:
    """Seeded per-prompt latency around an inner client.

    Args:
        inner: the client that produces responses (a ``SimulatedLLM``).
        cost_model: prices each response, so the transport's own dollar
            total can be checked against the sessions' budgets.
        seed: folded into every latency draw.
        median_s: median latency; ``0`` turns the transport into a
            zero-latency pass-through that still counts.
        record_prompts: also count calls per prompt (``calls_by_prompt``).
    """

    def __init__(
        self,
        inner,
        cost_model,
        *,
        seed: int,
        median_s: float = 0.0,
        record_prompts: bool = False,
    ) -> None:
        self.inner = inner
        self.cost_model = cost_model
        self.seed = seed
        self.median_s = median_s
        self._lock = threading.Lock()
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.dollars = 0.0
        self.wait_s = 0.0
        self.calls_by_prompt: Counter | None = Counter() if record_prompts else None

    # -- latency model --------------------------------------------------------

    def latency(self, model: str | None, prompt: str) -> float:
        """The seconds one call of ``prompt`` on ``model`` waits."""
        if self.median_s <= 0.0:
            return 0.0
        digest = hashlib.blake2b(
            f"{self.seed}\x1f{model}\x1f{prompt}".encode("utf-8"), digest_size=8
        ).digest()
        uniform = (int.from_bytes(digest, "big") + 0.5) / 2.0**64
        draw = self.median_s * math.exp(SIGMA * _STANDARD_NORMAL.inv_cdf(uniform))
        return min(draw, CAP * self.median_s)

    def _account(self, prompt: str, response, waited: float) -> None:
        usage = response.usage
        cost = (
            self.cost_model.cost(response.model, usage)
            if self.cost_model.has_model(response.model)
            else 0.0
        )
        with self._lock:
            self.calls += 1
            self.prompt_tokens += usage.prompt_tokens
            self.completion_tokens += usage.completion_tokens
            self.dollars += cost
            self.wait_s += waited
            if self.calls_by_prompt is not None:
                self.calls_by_prompt[prompt] += 1

    def _wait(self, delay: float) -> float:
        if delay <= 0.0:
            return 0.0
        start = time.perf_counter()
        time.sleep(delay)
        return time.perf_counter() - start

    async def _await(self, delay: float) -> float:
        if delay <= 0.0:
            return 0.0
        start = time.perf_counter()
        await asyncio.sleep(delay)
        return time.perf_counter() - start

    # -- LLMClient protocol ---------------------------------------------------

    def complete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        response = self.inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )
        self._account(prompt, response, self._wait(self.latency(response.model, prompt)))
        return response

    def complete_batch(self, prompts, *, model=None, temperature=0.0, max_tokens=None):
        # A batch costs one latency per prompt, like a provider without a
        # native batch endpoint.
        return [
            self.complete(prompt, model=model, temperature=temperature, max_tokens=max_tokens)
            for prompt in prompts
        ]

    async def acomplete(self, prompt, *, model=None, temperature=0.0, max_tokens=None):
        response = self.inner.complete(
            prompt, model=model, temperature=temperature, max_tokens=max_tokens
        )
        self._account(prompt, response, await self._await(self.latency(response.model, prompt)))
        return response

    async def acomplete_batch(self, prompts, *, model=None, temperature=0.0, max_tokens=None):
        return [
            await self.acomplete(
                prompt, model=model, temperature=temperature, max_tokens=max_tokens
            )
            for prompt in prompts
        ]

    # -- totals ---------------------------------------------------------------

    @property
    def tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens
