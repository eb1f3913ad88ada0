"""Exception types shared across the package, and the one way input files are opened.

The CLI maps ValidationError to exit code 2 and NumericalError to exit
code 3; library code raises them directly.
"""

from contextlib import contextmanager


class ValidationError(ValueError):
    """Invalid user input: bad geometry, mismatched shapes, bad parameters."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: singular system, divergent training."""


@contextmanager
def text_input(path):
    """open(path) for reading; bytes that do not decode raise ValidationError naming the file."""
    try:
        with open(path) as f:
            yield f
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: {e}") from None
