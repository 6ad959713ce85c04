"""Exception hierarchy for the policygym runtime."""

from __future__ import annotations


class PolicygymError(Exception):
    """Base class for all policygym errors."""


# --- package loading / saving ---------------------------------------------

class PackageError(PolicygymError):
    pass


class MissingArtifact(PackageError):
    """A required package file is absent; message names the file."""


class CorruptArtifact(PackageError):
    """A package file is not UTF-8 text, or not an image SQLite can read; message
    names the file."""


class InvalidManifest(PackageError):
    """manifest.json is unreadable or structurally wrong."""


class SchemaMismatch(PackageError):
    """A snapshot does not conform to the package schema; message names the table."""


class SpoilerLeak(PackageError):
    """Task description contains a tool name or a redaction-listed identifier."""


class CompileFailure(PackageError):
    """DDL rejected by the embedded engine; message includes the engine text."""


class IoFailure(PackageError):
    pass


# --- executor ---------------------------------------------------------------

class ExecutorError(PolicygymError):
    pass


class UnknownTool(ExecutorError):
    pass


class MalformedArguments(ExecutorError):
    pass


class ReadOnlyTable(ExecutorError):
    """Insert/update addressed to a read-only table, rejected before engine dispatch."""


# --- verifier ----------------------------------------------------------------

class UnknownExcludedColumn(PolicygymError):
    """diff config excludes a column that does not exist in the schema."""


# --- rollout -----------------------------------------------------------------

class PortFailure(PolicygymError):
    """An agent/user port raised or timed out."""


class InsufficientTrials(PolicygymError):
    """Metric k exceeds the number of recorded trials."""


# --- advantages ---------------------------------------------------------------

class EmptyGroup(PolicygymError):
    pass


class LengthMismatch(PolicygymError):
    pass


class MixedPackages(PolicygymError):
    """Trajectories from different packages supplied to one advantage group."""


# --- synthesis -----------------------------------------------------------------

class SynthesisError(PolicygymError):
    pass


class CompilationExhausted(SynthesisError):
    """Check-fix-verify attempts spent; carries the last verification report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SeedRejected(SynthesisError):
    """Every proposal for a required table was rejected by the engine."""


class ExplorationDiverged(SynthesisError):
    """Episode hit the repetition threshold or turn limit without goal confirmation."""


class RedactionIncomplete(SynthesisError):
    """A forbidden token survived the user-view projection."""
