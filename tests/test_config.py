from __future__ import annotations

import hashlib
import json
import types

import pytest
import yaml

from conftest import CONFIG, run_cli
from tomtrace import config as config_module
from tomtrace.config import load_config
from tomtrace.errors import ConfigInvalid

MINIMAL = """\
seed: 7
corpus:
  input: books
backend:
  name: test
  model: m
"""


def write(tmp_path, text):
    path = tmp_path / "pipeline.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults(tmp_path):
    config = load_config(write(tmp_path, MINIMAL))
    assert config.seed == 7
    assert config.out_dir == "out"
    assert config.merge.mode == "trust_llm_diff"
    assert config.merge.jaccard_threshold == 0.5
    assert config.merge.negation_cues == ["not", "never", "no longer"]
    assert config.verification.max_attempts == 3
    assert config.eval.triples == "both"
    assert config.ft.require_human_verified is True
    assert config.source_path.endswith("pipeline.yaml")


def test_empty_file_needs_a_seed(tmp_path):
    # default triple sampling is 40%, which is a sampled operation
    with pytest.raises(ConfigInvalid) as err:
        load_config(write(tmp_path, ""))
    assert "seed" in str(err.value)
    config = load_config(write(tmp_path, "seed: 1\n"))
    assert config.corpus.format == "coser"
    assert config.verification.triple_sample_rate == 0.4


@pytest.mark.parametrize("text,fragment", [
    ("bogus_top: 1\n", "bogus_top"),
    ("corpus:\n  inupt: books\n", "corpus.inupt"),
    ("backend:\n  nmae: x\n", "backend.nmae"),
    ("eval:\n  modes: [a]\n", "eval.modes"),
    ("merge:\n  threshold: 0.5\n", "merge.threshold"),
])
def test_unknown_keys_rejected_with_path(tmp_path, text, fragment):
    with pytest.raises(ConfigInvalid) as err:
        load_config(write(tmp_path, text))
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", [
    "corpus:\n  format: xml\n",
    "replay:\n  default_policy: maybe\n",
    "merge:\n  mode: union\n",
    "merge:\n  jaccard_threshold: 1.5\n",
    "merge:\n  antonym_pairs: [[a, b, c]]\n",
    "verification:\n  question_sample_rate: 2.0\n",
    "verification:\n  max_attempts: 0\n",
    "eval:\n  context: everything\n",
    "eval:\n  triples: sometimes\n",
    "eval:\n  answer_style: essay\n",
    "ft:\n  with_triples: maybe\n",
])
def test_enumerated_values_rejected(tmp_path, text):
    with pytest.raises(ConfigInvalid):
        load_config(write(tmp_path, text))


def test_fixed_replay_policy_needs_a_default_text(tmp_path):
    with pytest.raises(ConfigInvalid, match="default_text"):
        load_config(write(tmp_path, "replay:\n  default_policy: fixed\n"))
    fixed = MINIMAL + "replay:\n  default_policy: fixed\n  default_text: B\n"
    assert load_config(write(tmp_path, fixed)).replay.default_text == "B"


def test_section_must_be_mapping(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(write(tmp_path, "corpus: [1, 2]\n"))


def test_not_a_mapping_at_top(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(write(tmp_path, "- a\n- b\n"))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(tmp_path / "nope.yaml")


def test_invalid_yaml(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(write(tmp_path, "corpus: [unclosed\n"))


# --- seed rule ---------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "qagen:\n  shuffle_options: true\n",
    "verification:\n  question_sample_rate: 0.5\n",
    "verification:\n  triple_sample_rate: 0.9\n",
])
def test_sampling_requires_seed(tmp_path, text):
    with pytest.raises(ConfigInvalid) as err:
        load_config(write(tmp_path, text))
    assert "seed" in str(err.value)
    load_config(write(tmp_path, "seed: 7\n" + text))  # with a seed it passes


def test_full_sampling_needs_no_seed(tmp_path):
    config = load_config(write(tmp_path, "verification:\n  triple_sample_rate: 1.0\n"))
    assert not config.needs_seed()
    assert config.seed is None


# --- environment interpolation --------------------------------------------------------

def test_env_interpolation(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_MODEL", "gpt-test")
    config = load_config(write(tmp_path, "seed: 7\nbackend:\n  model: ${TT_MODEL}-suffix\n"))
    assert config.backend.model == "gpt-test-suffix"


def test_env_interpolation_in_lists(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_M1", "alpha")
    config = load_config(write(tmp_path, "seed: 7\neval:\n  models: [\"${TT_M1}\", beta]\n"))
    assert config.eval.models == ["alpha", "beta"]


def test_missing_env_var_names_key(tmp_path, monkeypatch):
    monkeypatch.delenv("TT_ABSENT", raising=False)
    with pytest.raises(ConfigInvalid) as err:
        load_config(write(tmp_path, "backend:\n  model: ${TT_ABSENT}\n"))
    assert "TT_ABSENT" in str(err.value)
    assert "backend.model" in str(err.value)


# --- path resolution --------------------------------------------------------------------

def test_relative_paths_resolve_against_config_dir(tmp_path):
    nested = tmp_path / "configs"
    nested.mkdir()
    path = nested / "pipeline.yaml"
    path.write_text(
        "seed: 7\n"
        "corpus:\n  input: books\n  alias_tables: {lear: aliases.txt}\n"
        "replay:\n  script: replay.jsonl\n"
        "triples:\n  template: tpl.txt\n",
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.corpus.input == str(nested / "books")
    assert config.corpus.alias_tables["lear"] == str(nested / "aliases.txt")
    assert config.replay.script == str(nested / "replay.jsonl")
    assert config.triples.template == str(nested / "tpl.txt")


def test_absolute_paths_kept(tmp_path):
    config = load_config(write(tmp_path, "seed: 7\ncorpus:\n  input: /data/books\n"))
    assert config.corpus.input == "/data/books"


def test_out_and_cache_dirs_not_rebased(tmp_path):
    config = load_config(write(tmp_path, "seed: 7\nout_dir: results\ncache_dir: cache\n"))
    assert config.out_dir == "results"
    assert config.cache_dir == "cache"


# --- the YAML loader ---------------------------------------------------------------

# The benchmark writes its config as indented JSON, which is valid YAML.
JSON_SHAPED = json.dumps({
    "seed": 11, "out_dir": "out", "cache_dir": "cache",
    "corpus": {"input": "corpus/books", "format": "coser", "alias_tables": {"b-0": "corpus/aliases/b-0.txt"}},
    "backend": {"name": "simulated", "endpoint": "http://127.0.0.1:8080/v1/chat", "auth_env_var": "TOKEN",
                "model": "sim", "max_in_flight": 2, "requests_per_minute": 1_000_000,
                "retry_max_attempts": 3, "retry_base_backoff_s": 0.02},
    "merge": {"mode": "deterministic_merge", "antonym_pairs": [["hopeful", "grim"]]},
    "triples": {"strict_perspective": False},
    "qagen": {"shuffle_options": False},
    "verification": {"question_sample_rate": 1.0, "triple_sample_rate": 1.0, "max_attempts": 3},
    "eval": {"models": ["sim"], "context": "both", "triples": "both"},
    "ft": {"ood_books": ["Book 0"], "require_human_verified": True, "with_triples": "both"},
}, indent=1) + "\n"

# Anchors and aliases, a << merge key, literal and folded block scalars, ${VAR} interpolation.
YAML_FEATURES = """\
seed: 3
corpus:
  input: >-
    books
backend: &live
  name: live
  endpoint: "${TT_HOST}/v1/chat"
  model: &model m-1
replay:
  default_policy: fixed
  default_text: |
    line one
    line two: ${TT_HOST}
triples: &prompts
  template: prompts/extract.txt
qagen:
  <<: *prompts
  shuffle_options: true
merge:
  antonym_pairs:
    - &pair [pleased, betrayed]
    - *pair
eval:
  models: [*model, m-2]
"""


def _load_both(path, tmp_path, monkeypatch):
    """The config as the libyaml loader reads it, and as the pure-Python fallback does.

    Each load has a cache directory of its own, so both parse the file rather than read the memo.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-c"))
    by_c = load_config(path)
    with monkeypatch.context() as mp:
        mp.delattr(yaml, "CSafeLoader", raising=False)
        mp.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-python"))
        assert config_module._yaml_loader() is yaml.SafeLoader
        by_python = load_config(path)
    for cache in ("cache-c", "cache-python"):
        assert len(_memos(tmp_path / cache)) == 1, cache
    return by_c, by_python


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
def test_libyaml_parses_the_config():
    assert config_module._yaml_loader() is yaml.CSafeLoader


@pytest.mark.parametrize("text", [None, JSON_SHAPED, YAML_FEATURES], ids=["fixture", "json-shaped", "yaml-features"])
def test_both_loaders_read_the_same_config(tmp_path, monkeypatch, text):
    monkeypatch.setenv("TT_HOST", "http://127.0.0.1:9")
    by_c, by_python = _load_both(CONFIG if text is None else write(tmp_path, text), tmp_path, monkeypatch)
    assert by_c == by_python
    if text is YAML_FEATURES:
        assert by_c.backend.endpoint == "http://127.0.0.1:9/v1/chat" and by_c.corpus.input.endswith("/books")
        assert by_c.replay.default_text == "line one\nline two: http://127.0.0.1:9\n"
        assert by_c.qagen.template == by_c.triples.template and by_c.qagen.shuffle_options is True
        assert by_c.merge.antonym_pairs == [["pleased", "betrayed"]] * 2
        assert by_c.eval.models == ["m-1", "m-2"]


@pytest.mark.parametrize("fallback", [False, True], ids=["libyaml", "pure-python"])
def test_malformed_yaml_exits_one_with_either_loader(tmp_path, monkeypatch, fallback):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if fallback:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    config = write(tmp_path, "seed: 1\ncorpus: [unclosed\n")
    [result] = run_cli(tmp_path / "out", "ingest", expect=1, config=config)
    assert result.stderr.startswith(f"error: config {config} is not valid YAML")


# --- the parsed-tree memo ------------------------------------------------------------

def _memos(cache) -> list:
    """The memo files under the cache directory `cache`."""
    return sorted((cache / "tomtrace" / "config").glob("*.json"))


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """An empty XDG_CACHE_HOME."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg"


def _no_parse(monkeypatch):
    """Make a YAML parse of the whole file fail the test: the next load must be a hit."""
    def parse(data, path):
        raise AssertionError(f"{path} was parsed, not read from its memo")

    monkeypatch.setattr(config_module, "_parse", parse)


@pytest.mark.parametrize("text", [None, JSON_SHAPED, YAML_FEATURES], ids=["fixture", "json-shaped", "yaml-features"])
def test_a_miss_then_a_hit_load_the_same_config(tmp_path, monkeypatch, cache, text):
    monkeypatch.setenv("TT_HOST", "http://127.0.0.1:9")
    path = CONFIG if text is None else write(tmp_path, text)
    parsed = load_config(path)
    [memo] = _memos(cache)
    assert memo.name == hashlib.sha256(path.read_bytes()).hexdigest() + ".json"
    with monkeypatch.context() as mp:
        _no_parse(mp)
        assert load_config(path) == parsed
    assert parsed.config_sha256 == memo.stem


def test_the_memo_holds_the_tree_before_interpolation_and_path_resolution(tmp_path, monkeypatch, cache):
    monkeypatch.setenv("TT_HOST", "http://127.0.0.1:9")
    path = write(tmp_path, YAML_FEATURES)
    load_config(path)
    [memo] = _memos(cache)
    tree = json.loads(memo.read_bytes())
    assert tree["backend"]["endpoint"] == "${TT_HOST}/v1/chat"
    assert tree["triples"]["template"] == "prompts/extract.txt"
    monkeypatch.setenv("TT_HOST", "http://127.0.0.2:9")
    moved = tmp_path / "moved"
    moved.mkdir()
    copy = moved / "pipeline.yaml"
    copy.write_bytes(path.read_bytes())
    with monkeypatch.context() as mp:
        _no_parse(mp)
        config = load_config(copy)
    assert config.backend.endpoint == "http://127.0.0.2:9/v1/chat"
    assert config.triples.template == str(moved / "prompts/extract.txt")


@pytest.mark.parametrize("text", [
    "seed: 7\nbackend:\n  model: 2024-01-01\n",  # a date
    "seed: 7\ncorpus:\n  alias_tables: {1: one.txt}\n",  # a key that is not a string
    "seed: 7\n1: one\n",
    "seed: 7\nmerge:\n  jaccard_threshold: .nan\n",  # not a JSON number
    "seed: 7\nbackend:\n  retry_base_backoff_s: .inf\n",
    "seed: 7\neval:\n  models: !!set {a, b}\n",
    "seed: 7\nbackend:\n  model: !!binary aGk=\n",
], ids=["date", "int-key", "top-int-key", "nan", "inf", "set", "binary"])
def test_a_tree_json_cannot_hold_is_not_memoized(tmp_path, cache, text):
    path = write(tmp_path, text)
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(load_config(path))
        except ConfigInvalid as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert _memos(cache) == []
    if "inf" in text:
        assert outcomes[0].backend.retry_base_backoff_s == float("inf")
    else:
        assert isinstance(outcomes[0], str)


def test_invalid_yaml_is_not_memoized_and_names_the_file(tmp_path, cache):
    path = write(tmp_path, "seed: 1\ncorpus: [unclosed\n")
    with pytest.raises(ConfigInvalid) as first:
        load_config(path)
    with pytest.raises(ConfigInvalid) as second:
        load_config(path)
    assert str(first.value) == str(second.value)
    assert str(first.value).startswith(f"config {path} is not valid YAML: while parsing a flow sequence")
    assert _memos(cache) == []


@pytest.mark.parametrize("damage", [lambda b: b[: len(b) // 2], lambda b: b"[1, 2]", lambda b: b"null", lambda b: b""],
                         ids=["truncated", "list", "null", "empty"])
def test_a_damaged_memo_is_a_miss_and_is_rewritten(tmp_path, cache, damage):
    path = write(tmp_path, JSON_SHAPED)
    parsed = load_config(path)
    [memo] = _memos(cache)
    good = memo.read_bytes()
    memo.write_bytes(damage(good))
    assert load_config(path) == parsed
    assert memo.read_bytes() == good


def test_a_memo_that_cannot_be_written_still_loads(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path = write(tmp_path, MINIMAL)
    assert load_config(path) == load_config(path)
    assert blocker.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("home", ["passwd", None], ids=["home-from-passwd", "no-home"])
def test_without_home_or_xdg_cache_home_the_config_still_loads(tmp_path, monkeypatch, home):
    """With HOME unset the memo goes under the user's home from the password database, if it has one."""
    import pwd

    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.delenv("HOME", raising=False)

    def getpwuid(uid):
        if home is None:
            raise KeyError(uid)
        return types.SimpleNamespace(pw_dir=str(tmp_path / "home"))

    monkeypatch.setattr(pwd, "getpwuid", getpwuid)
    path = write(tmp_path, MINIMAL)
    assert load_config(path).seed == 7
    assert len(_memos(tmp_path / "home" / ".cache")) == (home is not None)


def test_a_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative-cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    load_config(write(tmp_path, MINIMAL))
    assert len(_memos(tmp_path / "home" / ".cache")) == 1
    assert not (tmp_path / "relative-cache").exists()


def test_a_hit_reads_a_variable_that_fills_a_number_as_yaml(tmp_path, monkeypatch, cache):
    monkeypatch.setenv("TT_N", "2")
    path = write(tmp_path, "seed: 7\nbackend:\n  max_in_flight: ${TT_N}\n")
    assert load_config(path).backend.max_in_flight == 2
    with monkeypatch.context() as mp:
        _no_parse(mp)
        config = load_config(path)
    assert config.backend.max_in_flight == 2 and type(config.backend.max_in_flight) is int
