"""Exception types shared across the package."""


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


class BudgetExceeded(RelfixError):
    """An enumeration would exceed its size budget; `required` is the size it asked for."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration of size {required} exceeds budget {budget}")
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
