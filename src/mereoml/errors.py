"""Shared exception hierarchy and the one text reader of the input files.

Every error raised by this package derives from :class:`MereomlError`, so
callers (notably the CLI) can separate data problems from genuine bugs.
"""

from __future__ import annotations

from pathlib import Path


class MereomlError(Exception):
    """Base class for all errors raised by mereoml."""


class CarrierMismatch(MereomlError):
    """Two entities from different carriers were combined."""


class ClassOfEmptyFamily(MereomlError):
    """The class operator was applied to an empty family."""


class DegreeUnderflow(MereomlError):
    """A composition bound was requested for a zero degree."""


class FoldError(MereomlError):
    """A cross-validation fold ended up with an empty training part."""


class NetworkError(MereomlError):
    """A fusion network violates the layer coordination rules."""


class ParameterError(MereomlError, ValueError):
    """A numeric parameter lies outside its domain."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file, line endings untranslated.

    One leading byte-order mark, as spreadsheets write it, is dropped.  A
    file that is not UTF-8 raises a :class:`MereomlError` naming it.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise MereomlError(
            f"{path}: not UTF-8 text (byte {data[e.start]:#04x} at offset {e.start})"
        ) from None
