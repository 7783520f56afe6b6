"""A fake OpenAI-compatible endpoint served over HTTP on 127.0.0.1.

It implements the two routes the harvester uses:

* ``POST /v1/chat/completions``: one assistant message whose reasoning is
  planted from a hash of (first line of the user message, temperature, seed).
  The text is 2 to 11 plain sentences and a closing ``Answer: <letter>.``
  sentence; it is never blank.
* ``POST /v1/completions``: ``prompt`` may be a string or a list of strings;
  the response carries one ``choices[i]`` per prompt with its ``index``. With
  ``echo`` and ``max_tokens=0`` each choice echoes its prompt with per-token
  log-probabilities. A token's log-probability is a hash of the text before
  it and the token itself, so the answer distribution after any reasoning
  prefix is fixed by the prompt alone and can be recomputed by a checker.

Service time is ``FIXED_S`` per request plus ``PER_CHAR_S`` per prompt
character (summed over a list-valued prompt), spent spinning on the clock
(``serve_for``); completion tokens cost nothing. The spin holds the GIL, so
concurrent requests would not overlap as they would on a remote server; the
harvest workload keeps one request in flight, where nothing overlaps anyway. These costs are assumed, not measured on any server:
they make the endpoint cheap next to the client's own work, so a harvest pass
measures the client. ``ERROR_SHARE`` of the requests fail with HTTP 503.
Whether a request fails is a hash of (request body, attempt), where attempt
counts earlier arrivals of the same body, so the number of retries is the same
under any thread interleaving.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FIXED_S = 0.0005  # service time per request
PER_CHAR_S = 2.5e-7  # service time per prompt character
ERROR_SHARE = 0.01  # share of requests answered with a 503

_TOKEN = re.compile(r"\s*\S+")
_OPTION_LINE = re.compile(r"^\(([A-Z])\) ", re.M)

_OPENERS = ["First", "Next", "Then", "Also", "Here", "Now", "So", "Still"]
_SUBJECTS = ["the quantity", "the stated ratio", "the second clue", "the total",
             "the remaining case", "the unit price", "the boundary value", "the count"]
_VERBS = ["matches", "exceeds", "bounds", "rules out", "narrows", "confirms", "fixes"]
_OBJECTS = ["option {l}", "the other options", "the expected range", "an earlier estimate",
            "the given condition", "the final choice"]


def serve_for(seconds: float) -> None:
    """Spend the service time spinning on the clock.

    A sleeping server lets the vCPU go idle, and on a shared host waking an
    idle vCPU costs 0.1 to 0.3 ms more or less at random, per request.
    """
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def unit_hash(*parts) -> float:
    """Deterministic uniform number in [0, 1) from the parts' text."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") / 2.0**64


def token_logprob(before: str, token: str) -> float:
    """Log-probability the fake model assigns to ``token`` after ``before``."""
    return -(0.05 + 4.0 * unit_hash("lp", before, token))


def tokenize(prompt: str) -> list[tuple[int, str]]:
    """(offset, token) pairs; each token carries its leading whitespace."""
    return [(m.start(), m.group()) for m in _TOKEN.finditer(prompt)]


@dataclass(frozen=True)
class Generation:
    sentences: list[str]
    answer: int
    completion_tokens: int

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


def plant_generation(question_line: str, num_options: int, temperature: float, seed: int) -> Generation:
    """The reasoning the fake returns for one (question, temperature, seed)."""

    def pick(seq, *tag):
        return seq[int(unit_hash(question_line, temperature, seed, *tag) * len(seq))]

    # lengths 3..12 sentences; the ten sampling seeds 0..9 of one question cover each once
    n_reasoning = 2 + (int(unit_hash(question_line, temperature, "len") * 10) + seed) % 10
    answer = int(unit_hash(question_line, temperature, seed, "answer") * num_options)
    sentences = []
    for s in range(n_reasoning):
        letter = chr(ord("A") + int(unit_hash(question_line, temperature, seed, "l", s) * num_options))
        obj = pick(_OBJECTS, "o", s).format(l=letter)
        sentences.append(
            f"{pick(_OPENERS, 'a', s)} {pick(_SUBJECTS, 'b', s)} {pick(_VERBS, 'c', s)} {obj} in step {s + 1}."
        )
    sentences.append(f"Answer: {chr(ord('A') + answer)}.")
    tokens = sum(len(s.split()) for s in sentences) + int(unit_hash(question_line, temperature, seed, "t") * 40)
    return Generation(sentences, answer, tokens)


class FakeEndpoint:
    """Counting, fault-injecting fake endpoint; use as a context manager."""

    def __init__(self):
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.reset()

    # --- counters -----------------------------------------------------------

    def reset(self) -> None:
        """Forget arrivals and zero the counters (call between passes)."""
        with self._lock:
            self._arrivals: dict[str, int] = {}
            self.requests = 0
            self.errors = 0
            self.prompt_chars = 0
            self.busy_s = 0.0
            self.service_s = 0.0
            self.in_flight = 0
            self.inflight_max = 0

    def _admit(self, body: bytes) -> bool:
        """Count the arrival; True if this attempt is served, False for a 503."""
        digest = hashlib.blake2b(body, digest_size=16).hexdigest()
        with self._lock:
            attempt = self._arrivals.get(digest, 0)
            self._arrivals[digest] = attempt + 1
            self.requests += 1
            self.in_flight += 1
            self.inflight_max = max(self.inflight_max, self.in_flight)
            fail = unit_hash("5xx", digest, attempt) < ERROR_SHARE
            if fail:
                self.errors += 1
        return not fail

    def _leave(self, chars: int, busy: float, service: float = 0.0) -> None:
        with self._lock:
            self.in_flight -= 1
            self.prompt_chars += chars
            self.busy_s += busy
            self.service_s += service

    # --- routes ---------------------------------------------------------------

    def chat(self, payload: dict) -> tuple[dict, int]:
        user = next(m["content"] for m in payload["messages"] if m["role"] == "user")
        k = len(_OPTION_LINE.findall(user))
        if k < 2:
            raise ValueError("user message lists fewer than two options")
        gen = plant_generation(
            user.split("\n", 1)[0], k, float(payload.get("temperature", 1.0)), int(payload.get("seed", 0))
        )
        chars = sum(len(m["content"]) for m in payload["messages"])
        doc = {
            "object": "chat.completion",
            "model": payload["model"],
            "choices": [
                {"index": 0, "message": {"role": "assistant", "content": gen.text}, "finish_reason": "stop"}
            ],
            "usage": {"prompt_tokens": chars // 4, "completion_tokens": gen.completion_tokens,
                      "total_tokens": chars // 4 + gen.completion_tokens},
        }
        return doc, chars

    def completions(self, payload: dict) -> tuple[dict, int]:
        prompts = payload["prompt"]
        if isinstance(prompts, str):
            prompts = [prompts]
        if payload.get("max_tokens", 16) != 0 or not payload.get("echo", False):
            raise ValueError("only echo scoring (echo=true, max_tokens=0) is served")
        want_logprobs = payload.get("logprobs") is not None
        choices = []
        for i, prompt in enumerate(prompts):
            choice = {"index": i, "text": prompt, "logprobs": None, "finish_reason": "length"}
            if want_logprobs:
                toks = tokenize(prompt)
                last = len(toks) - 1
                choice["logprobs"] = {
                    "tokens": [t for _, t in toks],
                    # the first token has no context, as in the OpenAI API
                    "token_logprobs": [None] + [
                        token_logprob(prompt[:off], tok) if j == last else -0.5
                        for j, (off, tok) in enumerate(toks[1:], start=1)
                    ],
                    "text_offset": [off for off, _ in toks],
                    "top_logprobs": None,
                }
            choices.append(choice)
        chars = sum(len(p) for p in prompts)
        doc = {
            "object": "text_completion",
            "model": payload["model"],
            "choices": choices,
            "usage": {"prompt_tokens": chars // 4, "completion_tokens": 0, "total_tokens": chars // 4},
        }
        return doc, chars

    # --- server ---------------------------------------------------------------

    def __enter__(self) -> "FakeEndpoint":
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # keep-alive, so connections are reused

            def setup(self):
                super().setup()
                # headers and body go out in two writes; without this, Nagle's
                # algorithm holds the body until the client's delayed ACK
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with endpoint._lock:
                    endpoint._conns.add(self.connection)

            def finish(self):
                with endpoint._lock:
                    endpoint._conns.discard(self.connection)
                super().finish()

            def log_message(self, *args):
                pass

            def _reply(self, status: int, doc: dict) -> None:
                body = json.dumps(doc).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                route = self.path.rstrip("/").rsplit("/v1/", 1)[-1]
                if route not in ("chat/completions", "completions"):
                    self._reply(404, {"error": {"message": f"no route {self.path}"}})
                    return
                t0 = time.perf_counter()
                if not endpoint._admit(body):
                    endpoint._leave(0, time.perf_counter() - t0)
                    self._reply(503, {"error": {"message": "injected transient failure"}})
                    return
                chars = 0
                try:
                    payload = json.loads(body)
                    handler = endpoint.chat if route == "chat/completions" else endpoint.completions
                    doc, chars = handler(payload)
                except (ValueError, KeyError, TypeError, StopIteration) as exc:
                    endpoint._leave(0, time.perf_counter() - t0)
                    self._reply(400, {"error": {"message": f"bad request: {exc!r}"}})
                    return
                t1 = time.perf_counter()
                serve_for(FIXED_S + PER_CHAR_S * chars)
                t2 = time.perf_counter()
                endpoint._leave(chars, t2 - t0, t2 - t1)
                self._reply(200, doc)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = False  # server_close() joins every handler thread
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        self._thread.start()
        return self

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._thread.join()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:  # wake handlers parked on idle keep-alive connections
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._server.server_close()
