"""Pipeline configuration: one YAML file, validated strictly.

Each setting is declared once, in its section's `SETTINGS` table: its type is
what the file must give, its default fills a key the file leaves out, and
`setting` attaches any further rule. The sections are plain classes, so a stage
compiles no generated method when it imports this module. The reader walks the
tables, rejects unknown keys so typos fail loudly, and names the dotted key in
every error. String values support ${ENV_VAR} interpolation for secrets; the
interpolated value never lands in logs or artifacts. A string that fills a
number or a flag is read as a YAML scalar. Settings that name an input file
are resolved against the config file's directory.

A file's parsed tree is memoized under the user cache directory, keyed by the
SHA-256 of its bytes, so loading bytes parsed before imports no YAML parser.
"""

import hashlib
import json
import os
import re
import types
from pathlib import Path

from .errors import ConfigInvalid, IoError
from .util import decode_text, write_atomic

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def setting(tp, default=None, *, choices=(), low=None, high=None, file=False) -> tuple:
    """A setting of type `tp` whose value must also be one of `choices` and lie within [`low`, `high`];
    with `file` it names an input, resolved against the config file's directory."""
    return tp, default, {"choices": choices, "low": low, "high": high, "file": file}


class Section:
    """Settings read from one mapping of the file. `SETTINGS` maps each name to its
    `setting`; an instance holds each one's value, its default where none is given."""

    SETTINGS: dict[str, tuple] = {}

    def __init__(self, **values) -> None:
        unknown = values.keys() - self.SETTINGS.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no setting {min(unknown)!r}")
        for name, (tp, default, _) in self.SETTINGS.items():
            setattr(self, name, values[name] if name in values else _fresh(tp, default))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def _is_section(tp) -> bool:
    return type(tp) is type and issubclass(tp, Section)


def _fresh(tp, default):
    """The value of a setting left out: a section of its defaults, else a copy of the default."""
    if _is_section(tp):
        return tp()
    return default.copy() if isinstance(default, (list, dict)) else default


class CorpusSection(Section):
    SETTINGS = {
        "input": setting(str, "", file=True),
        "format": setting(str, "coser", choices=("coser", "jsonl")),
        "alias_tables": setting(dict[str, str], {}, file=True),
    }


class BackendSection(Section):
    SETTINGS = {
        "name": setting(str, "default"),
        "endpoint": setting(str, ""),
        "auth_env_var": setting(str, "LLM_API_KEY"),
        "model": setting(str, ""),
        "max_in_flight": setting(int, 4),  # below 1 runs one request at a time
        "requests_per_minute": setting(int, 60, low=1),
        "retry_max_attempts": setting(int, 3),  # below 1 makes one attempt
        "retry_base_backoff_s": setting(float, 0.5, low=0),
    }


class ReplaySection(Section):
    SETTINGS = {
        "script": setting(str | None, file=True),
        "default_policy": setting(str, "error", choices=("error", "fixed")),
        "default_text": setting(str, ""),
    }


class MergeSection(Section):
    SETTINGS = {
        "mode": setting(str, "trust_llm_diff", choices=("trust_llm_diff", "deterministic_merge")),
        "jaccard_threshold": setting(float, 0.5, low=0, high=1),
        "antonym_pairs": setting(list[list[str]], []),
        "negation_cues": setting(list[str], ["not", "never", "no longer"]),
    }


class TriplesSection(Section):
    SETTINGS = {
        "strict_perspective": setting(bool, False),
        "template": setting(str | None, file=True),
    }


class QagenSection(Section):
    SETTINGS = {
        "shuffle_options": setting(bool, False),
        "template": setting(str | None, file=True),
    }


class VerificationSection(Section):
    SETTINGS = {
        "question_sample_rate": setting(float, 1.0, low=0, high=1),
        "triple_sample_rate": setting(float, 0.4, low=0, high=1),
        "max_attempts": setting(int, 3, low=1),
        "template": setting(str | None, file=True),
    }


class EvalSection(Section):
    SETTINGS = {
        "models": setting(list[str], []),
        "context": setting(str, "current", choices=("current", "extended", "both")),
        "triples": setting(str, "both", choices=("on", "off", "both")),
        "answer_style": setting(str, "triples_then_answer", choices=("triples_then_answer", "answer_only")),
        "template": setting(str | None, file=True),
    }


class FtSection(Section):
    SETTINGS = {
        "ood_books": setting(list[str], []),
        "require_human_verified": setting(bool, True),
        "with_triples": setting(str, "both", choices=("on", "off", "both")),
    }


class PipelineConfig(Section):
    SETTINGS = {
        "seed": setting(int | None),
        # out_dir and cache_dir resolve against the caller's cwd on purpose:
        # runs land where the command is issued, inputs live with the config.
        "out_dir": setting(str, "out"),
        "cache_dir": setting(str | None),
        "corpus": setting(CorpusSection),
        "backend": setting(BackendSection),
        "replay": setting(ReplaySection),
        "merge": setting(MergeSection),
        "triples": setting(TriplesSection),
        "qagen": setting(QagenSection),
        "verification": setting(VerificationSection),
        "eval": setting(EvalSection),
        "ft": setting(FtSection),
    }

    def __init__(self, **values) -> None:
        super().__init__(**values)
        self.source_path = ""  # config file location
        self.config_sha256 = ""  # digest of the bytes parsed, for the manifest

    def needs_seed(self) -> bool:
        return (
            self.qagen.shuffle_options
            or self.verification.question_sample_rate < 1.0
            or self.verification.triple_sample_rate < 1.0
        )


_KINDS = {str: "a string", int: "an integer", float: "a number", bool: "true or false", list: "a list", dict: "a mapping"}


def _interpolate(value: str, key: str) -> str:
    def repl(m: re.Match) -> str:
        name = m.group(1)
        if name not in os.environ:
            raise ConfigInvalid(f"{key}: environment variable {name} not set")
        return os.environ[name]

    return _ENV_RE.sub(repl, value)


def _read(cls, data: dict, prefix: str, base: Path):
    """An instance of the section `cls` from `data`, the mapping at dotted key `prefix`."""
    values = {}
    for key, raw in data.items():
        name = f"{prefix}{key}"
        if key not in cls.SETTINGS:
            raise ConfigInvalid(f"unknown key {name}")
        tp, _, rule = cls.SETTINGS[key]
        if not _is_section(tp):
            values[key] = _value(raw, tp, name, rule, base)
        elif isinstance(raw, dict):
            values[key] = _read(tp, raw, f"{name}.", base)
        elif raw is not None:  # an empty section keeps its defaults
            raise ConfigInvalid(f"{name} must be a mapping, got {raw!r}")
    return cls(**values)


def _value(raw, tp, key: str, rule, base: Path):
    """`raw`, the value at dotted key `key`, checked against the type `tp` and the setting's `rule`."""
    value = _interpolate(raw, key) if isinstance(raw, str) else raw
    optional = isinstance(tp, types.UnionType)  # X | None
    if optional:
        [tp] = [t for t in tp.__args__ if t is not type(None)]
    if isinstance(value, str) and tp in (int, float, bool):
        import yaml

        try:
            value = yaml.load(value, Loader=_yaml_loader())
        except yaml.YAMLError:
            pass
    if value is None and optional:
        return None
    kind = getattr(tp, "__origin__", tp)  # list[str] -> list
    if not (type(value) is kind or (kind is float and type(value) is int)):
        raise ConfigInvalid(f"{key} must be {_KINDS[kind]}, got {raw!r}")
    if kind is list:
        [item] = tp.__args__
        return [_value(v, item, f"{key}[{i}]", rule, base) for i, v in enumerate(value)]
    if kind is dict:
        item = tp.__args__[1]
        for k in value:
            if type(k) is not str:
                raise ConfigInvalid(f"{key} must have string keys, got {k!r}")
        return {k: _value(v, item, f"{key}.{k}", rule, base) for k, v in value.items()}
    if rule.get("choices") and value not in rule["choices"]:
        raise ConfigInvalid(f"{key} must be one of {', '.join(rule['choices'])}, got {raw!r}")
    low, high = rule.get("low"), rule.get("high")
    if (low is not None and not value >= low) or (high is not None and not value <= high):  # NaN fails both
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigInvalid(f"{key} must be {bound}, got {raw!r}")
    if rule.get("file") and value and not Path(value).is_absolute():
        return str(base / value)
    return value


def _yaml_loader() -> type:
    """libyaml's safe loader, about ten times faster than PyYAML's own; the pure-Python
    SafeLoader where libyaml is not built. Both share the safe constructor and resolver."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: Path | str) -> PipelineConfig:
    """The config at `path`, read once and checked.

    The parsed tree comes from the memo of these bytes when there is one, and
    is memoized otherwise. The memo holds the tree as parsed, before `${VAR}`
    interpolation and path resolution, so a hit gives the same config and the
    same errors as a parse.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    memo = _memo_path(digest)
    raw = _recall(memo) if memo else None
    if raw is None:
        raw = _parse(data, path)
        if memo:
            _memoize(memo, raw)
    config = _read(PipelineConfig, raw, "", path.parent)
    config.source_path = str(path)
    config.config_sha256 = digest
    _validate(config)
    return config


def _parse(data: bytes, path: Path) -> dict:
    """The YAML mapping in `data`, the bytes of the config at `path`; an empty file is {}."""
    import yaml

    try:
        raw = yaml.load(decode_text(data), Loader=_yaml_loader())
    except UnicodeError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config {path} is not valid YAML: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config {path} must be a mapping")
    return raw


def _memo_path(digest: str) -> Path | None:
    """Where the tree of a config whose bytes have SHA-256 `digest` is memoized.

    The directory is `$XDG_CACHE_HOME/tomtrace/config`, or `~/.cache/tomtrace/config`
    when that variable is unset, empty or relative (the XDG Base Directory rule);
    None when no home directory is known either.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
        if not os.path.isabs(base):
            return None
    return Path(base, "tomtrace", "config", f"{digest}.json")


def _recall(memo: Path) -> dict | None:
    """The tree memoized at `memo`; None for a miss: no file, or not one JSON object."""
    try:
        tree = json.loads(memo.read_bytes())
    except (OSError, ValueError):
        return None
    return tree if isinstance(tree, dict) else None


def _memoize(memo: Path, tree: dict) -> None:
    """Keep `tree` at `memo` if JSON holds it unchanged; a failed write only costs the next load a parse."""
    try:
        text = json.dumps(tree, allow_nan=False)
    except (TypeError, ValueError):  # a date, a set or binary; NaN or infinity; a recursive alias
        return
    if json.loads(text) != tree:  # a key that is not a string
        return
    try:
        write_atomic(memo, [text.encode("utf-8")])
    except IoError:
        pass


def _validate(config: PipelineConfig) -> None:
    """The rules that no single setting's type and rule can state."""
    if config.replay.default_policy == "fixed" and not config.replay.default_text:
        raise ConfigInvalid("replay.default_text must be non-empty when default_policy is fixed")
    for i, pair in enumerate(config.merge.antonym_pairs):
        if len(pair) != 2:
            raise ConfigInvalid(f"merge.antonym_pairs[{i}] must have two items, got {pair!r}")
    for i, model in enumerate(config.eval.models):
        if not model:
            raise ConfigInvalid(f"eval.models[{i}] must be non-empty")
    if config.needs_seed() and config.seed is None:
        raise ConfigInvalid("seed is required when sampling or shuffling is enabled")
