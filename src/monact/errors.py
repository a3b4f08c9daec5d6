"""Exception types shared across the library.

Errors split into three families, mirrored by the CLI exit codes:
input/validation errors, budget/cap errors, and everything else.
"""


class AlgebraError(Exception):
    """Base class for all library errors."""


# -- validation ------------------------------------------------------------

class EntryOutOfRange(AlgebraError):
    pass


class NoIdentity(AlgebraError):
    pass


class NotAssociative(AlgebraError):
    def __init__(self, s, t, u):
        super().__init__(f"associativity fails at triple ({s}, {t}, {u})")
        self.witness = (s, t, u)


class IdentityAxiomFails(AlgebraError):
    def __init__(self, a):
        super().__init__(f"identity axiom fails at element {a}")
        self.witness = a


class AssociativityAxiomFails(AlgebraError):
    def __init__(self, a, s, t):
        super().__init__(f"action axiom fails at (a={a}, s={s}, t={t})")
        self.witness = (a, s, t)


class SourceTargetMismatch(AlgebraError):
    pass


class NotACongruence(AlgebraError):
    pass


class ParentMismatch(AlgebraError):
    pass


class NotPrime(AlgebraError):
    pass


class UnknownTheorem(AlgebraError):
    def __init__(self, tid, known):
        super().__init__(f"unknown theorem {tid!r}: the ids are {', '.join(known)}")


# -- budgets and caps ------------------------------------------------------

class BudgetError(AlgebraError):
    """Base for size caps and search budgets."""


class SizeOverflow(BudgetError):
    pass


class SizeTooLarge(BudgetError):
    pass


class CarrierTooLarge(BudgetError):
    pass


class SearchBudgetExceeded(BudgetError):
    pass


# -- input text format -----------------------------------------------------

class InputError(AlgebraError):
    """Base for errors in the text input format."""


class InputSyntaxError(InputError):
    def __init__(self, message, line, col=1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnknownMonoidReference(InputError):
    def __init__(self, name, line=None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"act references undefined monoid {name!r}{where}")
        self.name = name


class DuplicateName(InputError):
    def __init__(self, name, line=None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate name {name!r}{where}")
        self.name = name
