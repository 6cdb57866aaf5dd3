"""Output checks that run after timing. Each returns a list of problems.

They recompute what they check from the output files independently of the
tomtrace code paths that wrote them: scores from predictions, triple blocks
from the graph changelog.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

DIMENSIONS = ("belief", "desire", "emotion", "intention")
TRIPLE_HEADER = "Relevant mental state triples:"
# Keys that would carry wall-clock data; none may appear in the byte-compared tree.
TIMING_KEYS = re.compile(r'"[a-z_]*(latency|elapsed|duration|wall|timestamp|seconds|_ms|_s)"\s*:')


def tree_digest(root: Path) -> str:
    """One hash over every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _pct(correct: int, total: int) -> str:
    if total == 0:
        return "-"
    value = Decimal(100 * correct) / Decimal(total)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def check_report_csv(out: Path) -> list[str]:
    """report.csv must equal a recount of predictions.jsonl against questions.jsonl."""
    correct_by_id = {q["id"]: (q["correct"], q["dimension"]) for q in _jsonl(out / "questions.jsonl")}
    cells: dict[tuple, dict[str, list[int]]] = {}
    models: list[str] = []
    for pred in _jsonl(out / "predictions.jsonl"):
        if pred["model"] not in models:
            models.append(pred["model"])
        correct, dim = correct_by_id[pred["question_id"]]
        row = cells.setdefault((pred["model"], pred["context"], pred["triples"]), {})
        tally = row.setdefault(dim, [0, 0])
        tally[1] += 1
        tally[0] += pred["letter"] == correct
    lines = ["model,context,condition,belief,desire,emotion,intention,avg"]
    for context in ("current", "current+prev"):
        for model in models:
            for triples in (False, True):
                row = cells.get((model, context, triples))
                if row is None:
                    continue
                values = [_pct(*row.get(d, [0, 0])) for d in DIMENSIONS]
                values.append(_pct(sum(c for c, _ in row.values()), sum(t for _, t in row.values())))
                condition = "w Triple" if triples else "base"
                lines.append(f"{model},{context},{condition}," + ",".join(values))
    expected = "\n".join(lines) + "\n"
    actual = (out / "report.csv").read_text(encoding="utf-8")
    return [] if actual == expected else ["report.csv differs from a recount of predictions.jsonl"]


def fold_changelog(out: Path) -> dict[str, dict[tuple[str, int], list[str]]]:
    """book -> (character, plot) -> rendered active triples, folded from the changelog."""
    result = {}
    for changelog in sorted((out / "kg").glob("*.changelog.jsonl")):
        book_id = changelog.name[: -len(".changelog.jsonl")]
        edges = {
            rec["id"]: rec
            for rec in _jsonl(out / "kg" / f"{book_id}.kg.jsonl")
            if rec.get("record") == "edge"
        }
        active: dict[str, list[str]] = {}
        states: dict[tuple[str, int], list[str]] = {}
        for entry in _jsonl(changelog):
            ids = active.setdefault(entry["character"], [])
            gone = {old for old, _ in entry["refined"] + entry["contradicted"]} | set(entry["retired"])
            ids[:] = [i for i in ids if i not in gone] + entry["added"]
            ordered = sorted(ids, key=lambda i: edges[i]["plot_index"])
            states[(entry["character"], entry["plot_index"])] = [
                f"({edges[i]['subject']}, {edges[i]['predicate']}, {edges[i]['object']})" for i in ordered
            ]
        result[book_id] = states
    return result


def _state_at(states: dict[tuple[str, int], list[str]], character: str, plot: int) -> list[str]:
    latest = [p for (c, p) in states if c == character and p <= plot]
    return states[(character, max(latest))] if latest else []


def check_ft_triples(out: Path, ood_books: set[str]) -> list[str]:
    """Triple blocks in ft/*_with_triples.jsonl must match the changelog fold."""
    folds = fold_changelog(out)
    questions = sorted(
        (q for q in _jsonl(out / "questions.jsonl") if q["state"] == "human_verified"),
        key=lambda q: q["id"],
    )
    problems = []
    for split in ("train", "ood_test"):
        chosen = [q for q in questions if (q["book_id"] in ood_books) == (split == "ood_test")]
        examples = _jsonl(out / "ft" / f"{split}_with_triples.jsonl")
        if len(examples) != len(chosen):
            problems.append(f"ft/{split}_with_triples.jsonl has {len(examples)} examples, expected {len(chosen)}")
            continue
        for q, example in zip(chosen, examples):
            lines = _state_at(folds.get(q["book_id"], {}), q["character"], q["plot_index"])
            expected = "\n".join([TRIPLE_HEADER, *lines, "Answer:", "{answer: %s}" % q["correct"]])
            if example["output"] != expected:
                problems.append(f"ft/{split}_with_triples.jsonl: triple block of {q['id']} differs from the fold")
                break
    return problems


def check_kg_counts(out: Path, build_kg_stdout: str) -> list[str]:
    """Edge, link and retirement counts printed by build-kg must match the changelog."""
    problems = []
    printed = {
        m.group(1): tuple(int(m.group(i)) for i in (2, 3, 4))
        for m in re.finditer(r"^(\S+): (\d+) edges, (\d+) supersede links, (\d+) retirements$",
                             build_kg_stdout, re.MULTILINE)
    }
    for changelog in sorted((out / "kg").glob("*.changelog.jsonl")):
        book_id = changelog.name[: -len(".changelog.jsonl")]
        entries = _jsonl(changelog)
        folded = (
            sum(len(e["added"]) for e in entries),
            sum(len(e["refined"]) + len(e["contradicted"]) for e in entries),
            sum(len(e["retired"]) for e in entries),
        )
        if printed.get(book_id) != folded:
            problems.append(f"build-kg printed {printed.get(book_id)} for {book_id}, changelog gives {folded}")
    return problems


def check_no_timing(out: Path) -> list[str]:
    """No key in the output tree may carry wall-clock data."""
    problems = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if TIMING_KEYS.search(path.read_text(encoding="utf-8", errors="replace")):
            problems.append(f"timing-like key in {path.relative_to(out)}")
    return problems


def check_stdout(stage: str, stdout: str, expected: str | re.Pattern) -> list[str]:
    if isinstance(expected, re.Pattern):
        ok = expected.fullmatch(stdout) is not None
    else:
        ok = stdout == expected
    return [] if ok else [f"{stage} printed {stdout[:200]!r}, expected {getattr(expected, 'pattern', expected)[:200]!r}"]


def review_counts(review_csv: Path, ood_books: set[str]) -> dict[str, int]:
    """Human passes per split in a filled review CSV."""
    counts = {"train": 0, "ood_test": 0}
    with open(review_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["verdict"] == "pass":
                counts["ood_test" if row["book_id"] in ood_books else "train"] += 1
    return counts
