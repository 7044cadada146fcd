"""The one exception class: every other refused input is a plain ValueError."""


class WorkLimitError(ValueError):
    """The requested work exceeds a limit set where that work is done."""
