"""Exception types shared across the package, and the base of its frozen records."""
from math import log10


class Record:
    """A frozen record without `dataclasses`, whose import costs each command
    several milliseconds.  Subclasses list their constructor's arguments in
    `_fields` and write `__init__`, `__eq__` and `__hash__` themselves."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class RelfixError(Exception):
    """Base class for every error raised by this package."""


class ParseError(RelfixError):
    """Malformed term text; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class SchemaError(RelfixError):
    """A JSON problem file does not match its schema."""


class UnknownSymbol(RelfixError):
    def __init__(self, op: str):
        super().__init__(f"symbol '{op}' is not in the signature")
        self.op = op


class ArityMismatch(RelfixError):
    def __init__(self, op: str, expected: int, got: int):
        super().__init__(f"symbol '{op}' expects {expected} argument(s), got {got}")
        self.op = op
        self.expected = expected
        self.got = got


class UnboundVariable(RelfixError):
    def __init__(self, name: str):
        super().__init__(f"variable '{name}' has no assigned value")
        self.name = name


class DepthLimit(RelfixError):
    """A construction exceeded its nesting-depth bound."""


class SignatureMismatch(RelfixError):
    """Two structures that must share a signature do not."""


def _size(n: int) -> str:
    """n in decimal, or the power of ten it reaches when it has more digits
    than int-to-str conversion accepts (4300 by default since Python 3.11)."""
    try:
        return str(n)
    except ValueError:
        e = int(log10(n))  # a float: one too high just below a power of ten
        return f"at least 10^{e - (10**e > n)}"


# The size budget of every enumeration, unless the caller passes its own.
DEFAULT_BUDGET = 10**6


class BudgetExceeded(RelfixError):
    """An enumeration would exceed its size budget; `required` is the size it asked for."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration of size {_size(required)} exceeds budget {_size(budget)}")
        self.required = required
        self.budget = budget


class BoundExceeded(RelfixError):
    """A request exceeds a fixed size bound; the message names the quantity."""


class BijectionViolation(RelfixError):
    """A claimed one-to-one correspondence failed an internal cross-check."""


class NotPostFixed(RelfixError):
    """I is not below F(I); `witness` is a violating element."""

    def __init__(self, witness):
        super().__init__(f"set is not post-fixed: '{witness}' is not in F(I)")
        self.witness = witness


class NotPreFixed(RelfixError):
    """F(P) is not below P; `witness` is a violating element."""

    def __init__(self, witness):
        super().__init__(f"set is not pre-fixed: F(P) contains '{witness}' outside P")
        self.witness = witness
