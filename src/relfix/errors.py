"""Exception types shared across the package."""
from math import log10


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


class BudgetExceeded(RelfixError):
    """An enumeration would exceed its size budget; `required` is the size it asked for."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration of size {_size(required)} exceeds budget {_size(budget)}")
        self.required = required
        self.budget = budget


class BoundExceeded(RelfixError):
    """A request exceeds a fixed size bound; the message names the quantity."""


class NotCaMorphism(RelfixError):
    """A map presented as a solution of the recursion square fails the equation."""


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
