"""Exception types shared across the pipeline.

Errors that callers are expected to branch on get their own class; everything
inherits from TomtraceError so the CLI can catch library failures in one place.
"""

from __future__ import annotations


class TomtraceError(Exception):
    """Base class for all library errors."""


# --- corpus ---------------------------------------------------------------

class UnreadableSource(TomtraceError):
    """Input path missing, empty, or not readable."""


class MalformedRecord(TomtraceError):
    """A source record failed structural validation."""

    def __init__(self, record_id: str, reason: str):
        self.record_id = record_id
        self.reason = reason
        super().__init__(f"{record_id}: {reason}")


class DuplicatePlotIndex(TomtraceError):
    """Two plots in one book claim the same index."""


class DuplicateBookId(TomtraceError):
    """Two book files give the same book id."""


class NoSpeaker(TomtraceError):
    """Dialogue line carries no 'Name:' prefix."""


class AmbiguousAlias(TomtraceError):
    """A name matches aliases of more than one canonical character."""


# --- llm gateway ----------------------------------------------------------

class GatewayError(TomtraceError):
    """Base for chat-backend failures; maps to exit code 2 in the CLI."""


class AuthMissing(GatewayError):
    """The configured auth environment variable is not set."""


class TransportError(GatewayError):
    """HTTP transport failed after exhausting retries."""


class RateLimitedExhausted(GatewayError):
    """Backend kept answering 429 until the retry budget ran out."""


class ScriptMiss(GatewayError):
    """Replay script has no entry for a request and the policy is 'error'."""


# --- triples --------------------------------------------------------------

class UnparseableResponse(TomtraceError):
    """Model response contains no recoverable structure."""


class UnknownPredicate(TomtraceError):
    """Predicate matches none of the dimension stems."""


# --- temporal graph -------------------------------------------------------

class NonMonotoneInsert(TomtraceError):
    """Batch plot index precedes the character's latest inserted plot."""


class ForeignSubject(TomtraceError):
    """Batch contains a triple whose subject is not the batch character."""


class UnknownCharacter(TomtraceError):
    """Character has no node in the graph."""


class CorruptGraphFile(TomtraceError):
    """Graph file failed its integrity check or is truncated."""


# --- question generation --------------------------------------------------

class MissingDimension(TomtraceError):
    """Generation response lacks a question block for a dimension."""


class BadOptionCount(TomtraceError):
    """Question does not carry exactly four distinct options."""


class AmbiguousCorrect(TomtraceError):
    """Correct-answer field does not name exactly one option letter."""


class InvalidState(TomtraceError):
    """Operation applied to a question in the wrong workflow state."""


class UnknownQuestionId(TomtraceError):
    """A record references a question id that does not exist."""


class MalformedVerdictRow(TomtraceError):
    """Review CSV row is structurally invalid or has an unknown verdict."""


class AttemptsExhausted(TomtraceError):
    """Question hit the regeneration attempt budget."""


# --- eval harness ---------------------------------------------------------

class MissingPlot(TomtraceError):
    """Question references a book or plot absent from the corpus."""


class MissingKg(TomtraceError):
    """Triples requested but no graph was supplied."""


# --- fine-tune emission ---------------------------------------------------

class UnknownBook(TomtraceError):
    """A split or an alias table names a book that is not in the corpus."""


class IoError(TomtraceError):
    """Filesystem write failed."""


# --- cli ------------------------------------------------------------------

class ConfigInvalid(TomtraceError, ValueError):
    """Config file or replay script failed validation."""


class MissingUpstreamArtifact(TomtraceError):
    """A subcommand needs an artifact an earlier stage has not produced."""
