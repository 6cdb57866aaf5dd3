"""Simulated chat backend: a stdlib HTTP server that answers tomtrace prompts.

Run as its own process:

    python3 perfbench/backend.py --plan '{"seed": 7, "latency_s": 0.02, "error_rate": 0.03}'

It prints `ready <port>` once it listens on 127.0.0.1. POST /v1/chat answers
an OpenAI-style chat payload. GET /log returns every request served since the
last POST /reset, with its arrival, start and end times on the system-wide
monotonic clock, so run.py can line them up with its own. Both /log and
POST /reset also return the server's CPU time so far (`cpu_s`). POST
/configure changes Plan fields such as the latency.

Every answer is a pure function of the prompt text and the seed. The one
exception, a transient 429/503, is a function of the prompt, the seed and
how many times that prompt arrived since the last reset, so outputs stay
byte-identical whatever the client's concurrency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DIMENSIONS = ("Belief", "Desire", "Emotion", "Intention")
STEMS = {"Belief": "Believes", "Desire": "Desires", "Emotion": "Feels", "Intention": "Intends"}
PARTICLES = {"Believes": "About", "Desires": "For", "Feels": "Towards", "Intends": "To"}
VERBS = {"Believes": "doubts", "Desires": "craves", "Feels": "dreads", "Intends": "plans"}
TOPICS = ("wager", "ledger", "debt", "voyage", "feud", "secret", "bargain", "duel", "harvest", "letter",
          "lawsuit", "alliance", "promise", "rumor", "fever", "betrothal", "election", "inheritance")
PLACES = ("harbor", "mill", "chapel", "orchard", "market", "bridge", "tower", "garden", "quarry", "manor")
CORRECT_MARK = "as the scene shows"
TRIPLE_HEADER = "Relevant mental state triples:"
MALFORMED_ANSWER = "Several of these choices seem plausible and none stands out without more context."

_OBJECT_RE = re.compile(r"^(no longer )?(\w+) the (\w+) at the (\w+) in phase (\d+)$")
_REVIEW_RE = re.compile(r" \[r(\d+)\]$")


@dataclass(frozen=True)
class Plan:
    """What the simulated model does; every share is decided by hashing."""

    seed: int
    triples_per_batch: int = 8
    keep: float = 0.25
    refine: float = 0.25
    negate: float = 0.15
    # the remainder of the previous triples is dropped
    review_failures: tuple[int, ...] = (0, 0, 0, 1)  # per generated block of four
    p_correct_with_triples: float = 0.8
    p_correct_without: float = 0.55
    malformed_share: float = 0.05
    error_rate: float = 0.0
    latency_s: float = 0.0


def unit(*parts: object) -> float:
    """Deterministic number in [0, 1) from the parts."""
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") / 2**64


def request_digest(payload: dict) -> str:
    """The digest tomtrace's ChatRequest computes for the same request."""
    body = {
        "model_id": payload["model"],
        "messages": [[m["role"], m["content"]] for m in payload["messages"]],
        "temperature": payload.get("temperature", 0.0),
        "max_output_tokens": payload.get("max_tokens", 2048),
        "seed": payload.get("seed"),
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prompt_kind(prompt: str) -> str:
    if "was rejected during review" in prompt:
        return "regenerate"
    if "You are reviewing a multiple choice question" in prompt:
        return "verify"
    if "generate one multiple choice question for each" in prompt:
        return "genqa"
    if "extract the beliefs, emotions, intentions, and desires" in prompt:
        return "extract"
    if "CANDIDATE CHOICES:" in prompt:
        return "eval"
    return "unknown"


def _section(prompt: str, start: str, end: str) -> str:
    i = prompt.index(start) + len(start)
    j = prompt.index(end, i)
    return prompt[i:j]


def _line_value(prompt: str, label: str) -> str:
    m = re.search(r"^" + re.escape(label) + r"(.*)$", prompt, re.MULTILINE)
    if m is None:
        raise ValueError(f"prompt has no {label!r} line")
    return m.group(1).strip()


# --- extraction ------------------------------------------------------------------

def _camel(name: str) -> str:
    return "".join(name.split())


def _render(character: str, t: dict) -> str:
    neg = "no longer " if t["neg"] else ""
    obj = f"{neg}{t['verb']} the {t['topic']} at the {t['place']} in phase {t['phase']}"
    return f"({character}, {t['pred']}, {obj})"


def _parse_previous(block: str) -> list[dict]:
    out = []
    for line in block.splitlines():
        line = line.strip()
        if not line:
            continue
        subject, pred, obj = (p.strip() for p in line[1:-1].split(", ", 2))
        m = _OBJECT_RE.match(obj)
        if m is None:
            raise ValueError(f"unexpected previous triple object {obj!r}")
        out.append({"pred": pred, "neg": bool(m.group(1)), "verb": m.group(2), "topic": m.group(3),
                    "place": m.group(4), "phase": int(m.group(5))})
    return out


def extraction_response(prompt: str, plan: Plan) -> tuple[str, dict]:
    character = _line_value(prompt, "# Target Character:")
    previous = _parse_previous(_section(prompt, "# Previous Character Triples:\n", "\n\nWhen analyzing"))
    dialogues = _section(prompt, "# Dialogues between characters:\n", "\n\n# Target Character:")
    others = sorted({
        line.split(":", 1)[0]
        for line in dialogues.splitlines()
        if ":" in line and not line.startswith("Environment:")
    } - {character})
    key = (plan.seed, character, hashlib.sha256(dialogues.encode("utf-8")).hexdigest())
    ranked = sorted(previous, key=lambda t: unit(*key, _render(character, t)))
    n = len(ranked)
    n_keep, n_refine, n_negate = int(n * plan.keep), int(n * plan.refine), int(n * plan.negate)
    out: list[dict] = []
    counts = {"kept": 0, "refined": 0, "negated": 0, "dropped": 0, "new": 0}
    for i, t in enumerate(ranked):
        if i < n_keep:
            out.append(t)
            counts["kept"] += 1
        elif i < n_keep + n_refine:
            place = PLACES[(PLACES.index(t["place"]) + 1 + int(unit(*key, i) * 8)) % len(PLACES)]
            out.append({**t, "place": place, "phase": t["phase"] + 1})
            counts["refined"] += 1
        elif i < n_keep + n_refine + n_negate:
            out.append({**t, "neg": not t["neg"], "phase": t["phase"] + 1})
            counts["negated"] += 1
        else:
            counts["dropped"] += 1
    for j in range(max(0, plan.triples_per_batch - len(out))):
        dim = DIMENSIONS[int(unit(*key, "dim", j) * 4)]
        stem = STEMS[dim]
        pred = stem
        if others and unit(*key, "target", j) < 0.6:
            pred = f"{stem}{PARTICLES[stem]}{_camel(others[int(unit(*key, 'who', j) * len(others))])}"
        out.append({"pred": pred, "neg": False, "verb": VERBS[stem],
                    "topic": TOPICS[int(unit(*key, "topic", j) * len(TOPICS))],
                    "place": PLACES[int(unit(*key, "place", j) * len(PLACES))], "phase": 1})
        counts["new"] += 1
    entries = [_render(character, t) for t in out]
    style = unit(*key, "style")
    if style < 0.7:
        text = json.dumps({"Target Character": entries}, indent=4)
    elif style < 0.85:
        text = "```json\n" + json.dumps({"Target Character": entries}) + "\n```"
    else:
        text = "Mental state triples:\n" + "\n".join(f"{n}. {e}" for n, e in enumerate(entries, 1))
    counts["triples"] = len(entries)
    return text, counts


# --- question generation, verification, regeneration ---------------------------------

def _question_block(character: str, dimension: str, tag: str, failures: int, seed: int) -> dict:
    correct = "ABCD"[int(unit(seed, tag, dimension) * 4)]
    topic = TOPICS[int(unit(seed, tag, dimension, "topic") * len(TOPICS))]
    options = []
    for n, letter in enumerate("ABCD"):
        if letter == correct:
            text = f"{character} holds firm about the {topic} {CORRECT_MARK}"
        else:
            text = f"{character} {('wavers', 'forgets', 'mocks')[n % 3]} the {PLACES[n]} matter entirely"
        options.append(f"{letter}.{text}")
    stem = f"In case {tag}, which {dimension.lower()} best fits {character} here? [r{failures}]"
    return {
        "Scenario": f"{character} weighs the {topic}.",
        "Reasoning": f"The dialogue shows {character} returning to the {topic}.",
        "Question": stem,
        "Options": options,
        "Correct Answer": correct,
    }


def generation_response(prompt: str, plan: Plan) -> tuple[str, dict]:
    character = _line_value(prompt, "Target Character:")
    tag = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:10]
    # The seed decides which of the four questions get the planned review failures.
    order = sorted(range(4), key=lambda i: unit(plan.seed, tag, "slot", i))
    blocks = [
        {f"{dim} Multiple Choice Question": _question_block(
            character, dim, tag, plan.review_failures[order[i]], plan.seed)}
        for i, dim in enumerate(("Belief", "Emotion", "Intention", "Desire"))
    ]
    body = json.dumps({"Target Character": blocks}, indent=1)
    if unit(plan.seed, tag, "fence") < 0.3:
        body = "```json\n" + body + "\n```"
    return body, {"questions": 4}


def _review_rounds(prompt: str) -> int:
    m = _REVIEW_RE.search(_line_value(prompt, "Question:"))
    return int(m.group(1)) if m else 0


def verification_response(prompt: str, plan: Plan) -> tuple[str, dict]:
    passed = _review_rounds(prompt) == 0
    style = unit(plan.seed, prompt, "style")
    if passed:
        text = '{"verdict": "pass"}' if style < 0.8 else "Verdict: pass"
    else:
        text = '{"verdict": "fail", "notes": "two options overlap"}'
        if style >= 0.8:
            text = "```json\n" + text + "\n```"
    return text, {"passed": passed}


def regeneration_response(prompt: str, plan: Plan) -> tuple[str, dict]:
    dimension = _line_value(prompt, "Dimension:")
    rounds = _review_rounds(prompt)
    stem = _line_value(prompt, "Question:")
    tag = hashlib.sha256(stem.encode("utf-8")).hexdigest()[:10]
    character = _line_value(prompt, "Scenario:").split(" weighs the ")[0]
    block = _question_block(character, dimension, tag, max(0, rounds - 1), plan.seed)
    return json.dumps({f"{dimension} Multiple Choice Question": block}), {}


# --- evaluation -------------------------------------------------------------------------

def eval_response(prompt: str, plan: Plan) -> tuple[str, dict]:
    choices = _section(prompt, "CANDIDATE CHOICES:\n", "\n\n")
    letters = [line[0] for line in choices.splitlines() if line[1:2] == "."]
    correct = next(line[0] for line in choices.splitlines() if CORRECT_MARK in line)
    with_triples = TRIPLE_HEADER in prompt
    u = unit(plan.seed, prompt)
    if u < plan.malformed_share:
        return MALFORMED_ANSWER, {"answer": None}
    p = plan.p_correct_with_triples if with_triples else plan.p_correct_without
    if unit(plan.seed, prompt, "right") < p:
        letter = correct
    else:
        wrong = [x for x in letters if x != correct]
        letter = wrong[int(unit(plan.seed, prompt, "which") * len(wrong))]
    style = int(unit(plan.seed, prompt, "style") * 4)
    if style == 0:
        text = f"1. The character's stated worries matter here.\n2. {{answer: {letter}}}"
    elif style == 1:
        text = json.dumps({"answer": letter})
    elif style == 2:
        text = f"After weighing the choices:\n{letter}"
    else:
        text = f"The best fit is {{answer: {letter.lower()}}}."
    return text, {"answer": letter}


RESPONDERS = {
    "extract": extraction_response,
    "genqa": generation_response,
    "verify": verification_response,
    "regenerate": regeneration_response,
    "eval": eval_response,
}


# --- server ---------------------------------------------------------------------------------

class Backend:
    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self.log: list[dict] = []
        self.arrivals: dict[str, int] = {}

    def reset(self) -> None:
        with self._lock:
            self.log = []
            self.arrivals = {}

    def configure(self, changes: dict) -> None:
        """Change latency or error rate, e.g. between a cache fill and a timed run."""
        with self._lock:
            self.plan = replace(self.plan, **changes)

    def serve(self, payload: dict, arrival: float) -> tuple[int, dict]:
        start = time.monotonic()
        digest = request_digest(payload)
        prompt = payload["messages"][-1]["content"]
        kind = prompt_kind(prompt)
        with self._lock:
            attempt = self.arrivals.get(digest, 0)
            self.arrivals[digest] = attempt + 1
        entry = {"kind": kind, "digest": digest, "attempt": attempt}
        # Never fail a third attempt, so the client's default budget of three always suffices.
        if attempt < 2 and unit(self.plan.seed, digest, attempt, "error") < self.plan.error_rate:
            status = 429 if unit(self.plan.seed, digest, attempt, "code") < 0.5 else 503
            body = {"error": {"message": "simulated transient failure"}}
        elif kind in RESPONDERS:
            text, info = RESPONDERS[kind](prompt, self.plan)
            entry.update(info)
            status = 200
            body = {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": len(prompt) // 4 + 1, "completion_tokens": len(text) // 4 + 1},
            }
        else:
            status, body = 400, {"error": {"message": "unrecognized prompt"}}
        if self.plan.latency_s:
            time.sleep(self.plan.latency_s)
        entry.update(status=status, arrival=arrival, start=start, end=time.monotonic())
        with self._lock:
            self.log.append(entry)
        return status, body


def make_handler(backend: Backend):
    class Handler(BaseHTTPRequestHandler):
        disable_nagle_algorithm = True

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):  # noqa: N802 (http.server naming)
            arrival = time.monotonic()
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                backend.reset()
                self._reply(200, {"ok": True, "cpu_s": time.process_time()})
                return
            if self.path == "/configure":
                backend.configure(json.loads(raw))
                self._reply(200, {"ok": True})
                return
            if not self.headers.get("Authorization", "").startswith("Bearer "):
                self._reply(401, {"error": {"message": "missing bearer token"}})
                return
            status, body = backend.serve(json.loads(raw), arrival)
            self._reply(status, body)

        def do_GET(self):  # noqa: N802
            if self.path == "/log":
                with backend._lock:
                    log = list(backend.log)
                self._reply(200, {"log": log, "cpu_s": time.process_time()})
            else:
                self._reply(404, {"error": {"message": "not found"}})

        def log_message(self, format, *args):  # silence per-request stderr lines
            pass

    return Handler


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True, help="JSON object of Plan fields")
    args = ap.parse_args(argv)
    fields = json.loads(args.plan)
    fields["review_failures"] = tuple(fields.get("review_failures", Plan.review_failures))
    backend = Backend(Plan(**fields))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(backend))
    server.daemon_threads = True
    print(f"ready {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
