"""Each setting's value is checked against its field's type and rule, and named by its dotted key."""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import CONFIG, DATA, as_dict
from tomtrace.config import load_config
from tomtrace.errors import ConfigInvalid


def write(tmp_path, text, name="pipeline.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- every config valid before the typed reader loads to the same values -----------------

def test_the_fixture_config_loads_to_its_values():
    assert as_dict(load_config(CONFIG)) == {
        "seed": 13,
        "out_dir": "out",
        "cache_dir": None,
        "corpus": {"input": str(DATA / "books"), "format": "coser",
                   "alias_tables": {"king-lear": str(DATA / "king-lear-aliases.txt")}},
        "backend": {"name": "replay-gpt", "endpoint": "", "auth_env_var": "TOMTRACE_API_TOKEN", "model": "replay-gpt",
                    "max_in_flight": 4, "requests_per_minute": 60, "retry_max_attempts": 3,
                    "retry_base_backoff_s": 0.5},
        "replay": {"script": str(DATA / "replay.jsonl"), "default_policy": "error", "default_text": ""},
        "merge": {"mode": "trust_llm_diff", "jaccard_threshold": 0.5, "antonym_pairs": [["pleased", "betrayed"]],
                  "negation_cues": ["not", "never", "no longer"]},
        "triples": {"strict_perspective": False, "template": None},
        "qagen": {"shuffle_options": False, "template": None},
        "verification": {"question_sample_rate": 1.0, "triple_sample_rate": 0.4, "max_attempts": 3, "template": None},
        "eval": {"models": ["replay-gpt"], "context": "both", "triples": "both",
                 "answer_style": "triples_then_answer", "template": None},
        "ft": {"ood_books": [], "require_human_verified": True, "with_triples": "both"},
        "source_path": str(CONFIG),
        "config_sha256": hashlib.sha256(CONFIG.read_bytes()).hexdigest(),
    }


def test_a_json_config_loads_to_its_values(tmp_path):
    """The shape of the config the benchmark writes: indented JSON, which is valid YAML."""
    config = {
        "seed": 11, "out_dir": "out", "cache_dir": "cache",
        "corpus": {"input": "corpus/books", "format": "coser",
                   "alias_tables": {"b-0": "corpus/aliases/b-0.txt", "b-1": "corpus/aliases/b-1.txt"}},
        "backend": {"name": "simulated", "endpoint": "http://127.0.0.1:8080/v1/chat", "auth_env_var": "BENCH_TOKEN",
                    "model": "sim-model", "max_in_flight": 2, "requests_per_minute": 1_000_000,
                    "retry_max_attempts": 3, "retry_base_backoff_s": 0.02},
        "merge": {"mode": "deterministic_merge", "antonym_pairs": [["hopeful", "grim"]]},
        "triples": {"strict_perspective": False},
        "qagen": {"shuffle_options": False},
        "verification": {"question_sample_rate": 1.0, "triple_sample_rate": 1.0, "max_attempts": 3},
        "eval": {"models": ["sim-model"], "context": "current", "triples": "on"},
        "ft": {"ood_books": ["Book 1"], "require_human_verified": True, "with_triples": "both"},
    }
    path = write(tmp_path, json.dumps(config, indent=1) + "\n")
    assert as_dict(load_config(path)) == {
        "seed": 11,
        "out_dir": "out",
        "cache_dir": "cache",
        "corpus": {"input": str(tmp_path / "corpus/books"), "format": "coser",
                   "alias_tables": {"b-0": str(tmp_path / "corpus/aliases/b-0.txt"),
                                    "b-1": str(tmp_path / "corpus/aliases/b-1.txt")}},
        "backend": {"name": "simulated", "endpoint": "http://127.0.0.1:8080/v1/chat", "auth_env_var": "BENCH_TOKEN",
                    "model": "sim-model", "max_in_flight": 2, "requests_per_minute": 1_000_000,
                    "retry_max_attempts": 3, "retry_base_backoff_s": 0.02},
        "replay": {"script": None, "default_policy": "error", "default_text": ""},
        "merge": {"mode": "deterministic_merge", "jaccard_threshold": 0.5, "antonym_pairs": [["hopeful", "grim"]],
                  "negation_cues": ["not", "never", "no longer"]},
        "triples": {"strict_perspective": False, "template": None},
        "qagen": {"shuffle_options": False, "template": None},
        "verification": {"question_sample_rate": 1.0, "triple_sample_rate": 1.0, "max_attempts": 3, "template": None},
        "eval": {"models": ["sim-model"], "context": "current", "triples": "on",
                 "answer_style": "triples_then_answer", "template": None},
        "ft": {"ood_books": ["Book 1"], "require_human_verified": True, "with_triples": "both"},
        "source_path": str(path),
        "config_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def test_zero_in_flight_and_zero_attempts_still_load(tmp_path):
    """The gateway runs at least one request and makes at least one attempt."""
    config = load_config(write(tmp_path, "seed: 1\nbackend:\n  max_in_flight: 0\n  retry_max_attempts: 0\n"))
    assert (config.backend.max_in_flight, config.backend.retry_max_attempts) == (0, 0)


# --- values ------------------------------------------------------------------------------

def test_a_variable_that_fills_a_number_or_a_flag_loads_typed(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_N", "2")
    monkeypatch.setenv("TT_X", "true")
    monkeypatch.setenv("TT_RATE", "0.5")
    config = load_config(write(tmp_path, (
        "seed: 7\n"
        "backend:\n  max_in_flight: ${TT_N}\n  model: ${TT_N}\n"
        "qagen:\n  shuffle_options: ${TT_X}\n"
        "verification:\n  triple_sample_rate: ${TT_RATE}\n"
    )))
    assert config.backend.max_in_flight == 2 and type(config.backend.max_in_flight) is int
    assert config.backend.model == "2"  # a string setting keeps the text
    assert config.qagen.shuffle_options is True
    assert config.verification.triple_sample_rate == 0.5


@pytest.mark.parametrize("text, message", [
    ("seed: true\n", "seed must be an integer, got True"),
    ("out_dir: [a]\n", "out_dir must be a string, got ['a']"),
    ("backend:\n  model: 4\n", "backend.model must be a string, got 4"),
    ("backend:\n  max_in_flight: two\n", "backend.max_in_flight must be an integer, got 'two'"),
    ("backend:\n  max_in_flight: 2.5\n", "backend.max_in_flight must be an integer, got 2.5"),
    ("backend:\n  requests_per_minute: 0\n", "backend.requests_per_minute must be >= 1, got 0"),
    ("backend:\n  retry_base_backoff_s: -1\n", "backend.retry_base_backoff_s must be >= 0, got -1"),
    ("backend:\n  retry_base_backoff_s: fast\n", "backend.retry_base_backoff_s must be a number, got 'fast'"),
    ("qagen:\n  shuffle_options: sometimes\n", "qagen.shuffle_options must be true or false, got 'sometimes'"),
    ("eval:\n  models: replay-gpt\n", "eval.models must be a list, got 'replay-gpt'"),
    ("eval:\n  models: [a, 1]\n", "eval.models[1] must be a string, got 1"),
    ("eval:\n  context: everything\n", "eval.context must be one of current, extended, both, got 'everything'"),
    ("corpus:\n  alias_tables: [a.txt]\n", "corpus.alias_tables must be a mapping, got ['a.txt']"),
    ("corpus:\n  alias_tables: {1: a.txt}\n", "corpus.alias_tables must have string keys, got 1"),
    ("corpus:\n  alias_tables: {lear: [a.txt]}\n", "corpus.alias_tables.lear must be a string, got ['a.txt']"),
    ("merge:\n  antonym_pairs: [[a, 2]]\n", "merge.antonym_pairs[0][1] must be a string, got 2"),
    ("merge:\n  antonym_pairs: [[a, b], [c]]\n", "merge.antonym_pairs[1] must have two items, got ['c']"),
    ("merge:\n  jaccard_threshold: 1.5\n", "merge.jaccard_threshold must be in [0, 1], got 1.5"),
    ("merge:\n  jaccard_threshold: .nan\n", "merge.jaccard_threshold must be in [0, 1], got nan"),
    ("ft:\n  ood_books: null\n", "ft.ood_books must be a list, got None"),
    ("triples: [a]\n", "triples must be a mapping, got ['a']"),
])
def test_a_mistyped_value_is_named_by_its_key(tmp_path, text, message):
    with pytest.raises(ConfigInvalid) as err:
        load_config(write(tmp_path, text))
    assert str(err.value) == message


def test_an_error_shows_the_value_as_written_not_the_interpolated_one(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_SECRET", "hunter2")
    with pytest.raises(ConfigInvalid) as err:
        load_config(write(tmp_path, "seed: 7\nbackend:\n  max_in_flight: ${TT_SECRET}\n"))
    assert str(err.value) == "backend.max_in_flight must be an integer, got '${TT_SECRET}'"
