"""Exception types shared across the package: every refusal is a PreconditionError."""


class PreconditionError(ValueError):
    """A documented precondition on an operation's inputs was violated.

    ``code`` is a stable machine-readable slug; ``required_value``, when
    set, is the threshold the offending parameter had to meet.  The CLI
    maps this exception to exit status 2 and a JSON error object.
    """

    def __init__(self, code: str, message: str, required_value=None):
        super().__init__(message)
        self.code = code
        self.required_value = required_value


class OracleConvergenceError(PreconditionError):
    """The numeric oracle cannot certify its optimum to the requested tol (code oracle_not_certified)."""

    def __init__(self, message: str):
        super().__init__("oracle_not_certified", f"the oracle found no certified optimum: {message}")
