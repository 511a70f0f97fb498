"""Exception classes, one per exit code and stderr prefix of the CLI.

Every validator raises LaxcatError with a message that names the offending
object, morphism pair, or matrix entry, so failures are reproducible from
the message alone.  The CLI tells exactly these three apart:

  SchemaError   exit 2, "invalid input: ..."
  CapExceeded   exit 3, "cap exceeded: ..."
  LaxcatError   exit 2, "validation failed: ..." (any other)

A broken kernel invariant raises AssertionError instead, which the CLI
reports as exit 4, "internal error: ...".
"""


class LaxcatError(Exception):
    """Invalid input or a failed precondition of a command."""


class SchemaError(LaxcatError):
    """Malformed or unrecognized JSON input."""


class CapExceeded(LaxcatError):
    """An input breaches a configured size cap."""
