"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-domain input (CLI exit code 1)."""


class CapabilityError(RuntimeError):
    """Instance exceeds a configured cap or search budget (CLI exit code 2)."""


class DepthCapError(CapabilityError):
    """Graph with more vertices than a search takes positions (CLI exit code 2)."""
