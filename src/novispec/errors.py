"""Exception types shared across the package."""


class NovispecError(Exception):
    """Base class for all package errors."""


class StructuralError(NovispecError):
    """Mismatched shapes, directions, groups, or degree bookkeeping."""


class DomainError(NovispecError):
    """Operation applied outside its mathematical domain (zero class, etc.)."""


class IndeterminateError(NovispecError):
    """Result is not determined at the current precision floor."""


class SpectralLevelError(NovispecError):
    """A truncation level lies on the action spectrum."""


class FixtureError(NovispecError):
    """Fixture data is incomplete or fails its invariants."""


class InputError(NovispecError):
    """Unreadable or schema-violating input files."""


class WindowTooLargeError(NovispecError):
    """A window would hold more generators than the engine's cap."""
