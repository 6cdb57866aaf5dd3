from __future__ import annotations

import pytest

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
