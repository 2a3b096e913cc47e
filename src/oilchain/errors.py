"""Exception types shared across the package.

Contract-level failures subclass ContractRevert: the runtime converts those
into a Reverted call result instead of letting them escape. Everything else
is raised to the caller.
"""


class OilchainError(Exception):
    """Base for every error raised by this package."""


# --- scenario / input handling -------------------------------------------

class ParseError(OilchainError):
    """Input file is not syntactically valid."""


class ValidationError(OilchainError):
    """Input parsed but violates the schema or a structural rule."""


# --- identity --------------------------------------------------------------

class EmptyPassphrase(OilchainError):
    """A passphrase credential was created from an empty string."""


# --- ledger ----------------------------------------------------------------

class AccessDenied(OilchainError):
    """Caller is not on a private chain's access list."""


class InvalidValidatorSet(OilchainError):
    """Consortium validator count is not of the form 3f+1."""


class QuorumNotMet(OilchainError):
    """Endorsements are missing, invalid, or fewer than 2f+1."""


class CorruptLedger(OilchainError):
    """A persisted chain failed re-verification on load."""

    def __init__(self, message: str, first_bad_index: int | None = None):
        super().__init__(message)
        self.first_bad_index = first_bad_index


# --- runtime ---------------------------------------------------------------

class UnknownFunction(OilchainError):
    """Function name is not part of the target contract or gas table."""


class BadInitArgs(OilchainError):
    """Contract constructor arguments are missing or malformed."""


class ContractRevert(OilchainError):
    """Base class for failures that revert a call without raising."""


class Unauthorized(ContractRevert):
    """Caller does not satisfy the function's access modifier."""


class NotInitialized(ContractRevert):
    """Contract method used before its initial data was entered."""


class NegativeQuantity(ContractRevert):
    """Amount or price argument is negative."""


class WrongStage(ContractRevert):
    """Distribution transition attempted out of stage order."""


# --- workflow --------------------------------------------------------------

class WrongStatus(OilchainError):
    """Hop operation attempted in an incompatible lifecycle status."""


class BadCredential(OilchainError):
    """Acceptance credential failed verification; hop is unchanged."""


class InvalidRolePair(OilchainError):
    """Seller/buyer roles are not adjacent in the custody order."""


class UnknownBatch(OilchainError):
    """No contracts for the requested batch id exist on the ledger."""


# --- telemetry -------------------------------------------------------------

class WindowOutOfRange(OilchainError):
    """Fault injection window falls outside the reading stream."""

