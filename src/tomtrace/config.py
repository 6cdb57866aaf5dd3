"""Pipeline configuration: one YAML file, validated strictly.

Unknown keys are rejected so typos fail loudly. String values support
${ENV_VAR} interpolation for secrets; the interpolated value never lands in
logs or artifacts. Relative paths are resolved against the config file's
directory.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigInvalid

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass
class CorpusSection:
    input: str = ""
    format: str = "coser"
    alias_tables: dict[str, str] = field(default_factory=dict)


@dataclass
class BackendSection:
    name: str = "default"
    endpoint: str = ""
    auth_env_var: str = "LLM_API_KEY"
    model: str = ""
    max_in_flight: int = 4
    requests_per_minute: int = 60
    retry_max_attempts: int = 3
    retry_base_backoff_s: float = 0.5


@dataclass
class ReplaySection:
    script: str | None = None
    default_policy: str = "error"
    default_text: str = ""


@dataclass
class MergeSection:
    mode: str = "trust_llm_diff"
    jaccard_threshold: float = 0.5
    antonym_pairs: list[list[str]] = field(default_factory=list)
    negation_cues: list[str] = field(default_factory=lambda: ["not", "never", "no longer"])


@dataclass
class TriplesSection:
    strict_perspective: bool = False
    template: str | None = None


@dataclass
class QagenSection:
    shuffle_options: bool = False
    template: str | None = None


@dataclass
class VerificationSection:
    question_sample_rate: float = 1.0
    triple_sample_rate: float = 0.4
    max_attempts: int = 3
    template: str | None = None


@dataclass
class EvalSection:
    models: list[str] = field(default_factory=list)
    context: str = "current"  # current | extended | both
    triples: str = "both"  # on | off | both
    answer_style: str = "triples_then_answer"
    template: str | None = None


@dataclass
class FtSection:
    ood_books: list[str] = field(default_factory=list)
    require_human_verified: bool = True
    with_triples: str = "both"  # on | off | both


@dataclass
class PipelineConfig:
    seed: int | None = None
    out_dir: str = "out"
    cache_dir: str | None = None
    corpus: CorpusSection = field(default_factory=CorpusSection)
    backend: BackendSection = field(default_factory=BackendSection)
    replay: ReplaySection = field(default_factory=ReplaySection)
    merge: MergeSection = field(default_factory=MergeSection)
    triples: TriplesSection = field(default_factory=TriplesSection)
    qagen: QagenSection = field(default_factory=QagenSection)
    verification: VerificationSection = field(default_factory=VerificationSection)
    eval: EvalSection = field(default_factory=EvalSection)
    ft: FtSection = field(default_factory=FtSection)
    source_path: str = ""  # config file location, for manifest hashing

    def needs_seed(self) -> bool:
        return (
            self.qagen.shuffle_options
            or self.verification.question_sample_rate < 1.0
            or self.verification.triple_sample_rate < 1.0
        )


_SECTIONS = {
    "corpus": CorpusSection,
    "backend": BackendSection,
    "replay": ReplaySection,
    "merge": MergeSection,
    "triples": TriplesSection,
    "qagen": QagenSection,
    "verification": VerificationSection,
    "eval": EvalSection,
    "ft": FtSection,
}
_TOP_SCALARS = ("seed", "out_dir", "cache_dir")


def _interpolate(value, path: str):
    if isinstance(value, str):
        def repl(m: re.Match) -> str:
            name = m.group(1)
            if name not in os.environ:
                raise ConfigInvalid(f"{path}: environment variable {name} not set")
            return os.environ[name]

        return _ENV_RE.sub(repl, value)
    if isinstance(value, list):
        return [_interpolate(v, path) for v in value]
    if isinstance(value, dict):
        return {k: _interpolate(v, f"{path}.{k}") for k, v in value.items()}
    return value


def _fill_section(cls, data: dict, path: str):
    allowed = set(cls.__dataclass_fields__)
    section = cls()
    for key, value in data.items():
        if key not in allowed:
            raise ConfigInvalid(f"unknown key {path}.{key}")
        setattr(section, key, _interpolate(value, f"{path}.{key}"))
    return section


def _yaml_loader() -> type:
    """libyaml's safe loader, about ten times faster than PyYAML's own; the pure-Python
    SafeLoader where libyaml is not built. Both share the safe constructor and resolver."""
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: Path | str) -> PipelineConfig:
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_yaml_loader())
    except (OSError, UnicodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config {path} must be a mapping")

    config = PipelineConfig(source_path=str(path))
    for key, value in raw.items():
        if key in _TOP_SCALARS:
            setattr(config, key, _interpolate(value, key))
        elif key in _SECTIONS:
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ConfigInvalid(f"section {key} must be a mapping")
            setattr(config, key, _fill_section(_SECTIONS[key], value, key))
        else:
            raise ConfigInvalid(f"unknown key {key}")

    _validate(config)
    _resolve_paths(config, path.parent)
    return config


def _validate(config: PipelineConfig) -> None:
    if config.corpus.format not in ("coser", "jsonl"):
        raise ConfigInvalid(f"corpus.format must be coser or jsonl, got {config.corpus.format!r}")
    if config.replay.default_policy not in ("error", "fixed"):
        raise ConfigInvalid("replay.default_policy must be error or fixed")
    if config.replay.default_policy == "fixed" and not config.replay.default_text:
        raise ConfigInvalid("replay.default_text must be non-empty when default_policy is fixed")
    if config.merge.mode not in ("trust_llm_diff", "deterministic_merge"):
        raise ConfigInvalid("merge.mode must be trust_llm_diff or deterministic_merge")
    if not 0.0 <= config.merge.jaccard_threshold <= 1.0:
        raise ConfigInvalid("merge.jaccard_threshold must be in [0, 1]")
    for pair in config.merge.antonym_pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigInvalid(f"merge.antonym_pairs entries must be 2-item lists, got {pair!r}")
    for rate_key in ("question_sample_rate", "triple_sample_rate"):
        rate = getattr(config.verification, rate_key)
        if not 0.0 <= rate <= 1.0:
            raise ConfigInvalid(f"verification.{rate_key} must be in [0, 1]")
    if config.eval.context not in ("current", "extended", "both"):
        raise ConfigInvalid("eval.context must be current, extended, or both")
    if config.eval.triples not in ("on", "off", "both"):
        raise ConfigInvalid("eval.triples must be on, off, or both")
    if config.eval.answer_style not in ("triples_then_answer", "answer_only"):
        raise ConfigInvalid("eval.answer_style must be triples_then_answer or answer_only")
    if config.ft.with_triples not in ("on", "off", "both"):
        raise ConfigInvalid("ft.with_triples must be on, off, or both")
    if config.verification.max_attempts < 1:
        raise ConfigInvalid("verification.max_attempts must be >= 1")
    if config.needs_seed() and config.seed is None:
        raise ConfigInvalid("seed is required when sampling or shuffling is enabled")


def _resolve_paths(config: PipelineConfig, base: Path) -> None:
    def resolve(value: str | None) -> str | None:
        if not value:
            return value
        p = Path(value)
        return str(p if p.is_absolute() else (base / p))

    config.corpus.input = resolve(config.corpus.input) or ""
    config.corpus.alias_tables = {
        k: resolve(v) for k, v in config.corpus.alias_tables.items()
    }
    config.replay.script = resolve(config.replay.script)
    config.triples.template = resolve(config.triples.template)
    config.qagen.template = resolve(config.qagen.template)
    config.verification.template = resolve(config.verification.template)
    config.eval.template = resolve(config.eval.template)
    # out_dir and cache_dir resolve against the caller's cwd on purpose:
    # runs land where the command is issued, inputs live with the config.
