"""The exceptions that `scissors.cli.main` maps to exit codes, and the
default and largest height bound of the angle-relation search.

They live in this module, which imports nothing, so that the CLI can name
them before it knows which layers a command needs.  Each layer re-exports
the ones it raises (`scissors.geom.GeometryError`, `scissors.homology.SizeCap`
and so on).
"""

DEFAULT_HEIGHT_BOUND = 20
# the largest `--height-bound`, and the largest |m| of a relation that
# `recheck` evaluates: ∏(cosθ + i·sinθ)^{2m} on the two quadratic angles
# arccos 1/3 and arccos 1/7 took 70–100 ms at |m| = 10⁴ and 5.1 s at 10⁵
# (2-core Xeon, Python 3.11)
MAX_HEIGHT_BOUND = 10_000


class ParseError(ValueError):
    """Malformed number literal or input file."""


class UnknownSuite(KeyError):
    pass


class GeometryError(ValueError):
    pass


class SizeCap(RuntimeError):
    """A configured desk-scale resource cap was exceeded."""


class SizeCapExceeded(RuntimeError):
    pass


class RefinementTooLarge(RuntimeError):
    """Piece count exceeded the configured cap; verdict is Unknown."""


class InvalidComplex(ValueError):
    pass


class DegreeOutOfRange(IndexError):
    pass
