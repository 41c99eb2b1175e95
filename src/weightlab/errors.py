"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad grid dimensions or weight-spec parameters."""


class CsvFormatError(ValueError):
    """Malformed weight/function CSV; carries the offending row number."""

    def __init__(self, row: int, message: str):
        self.row = row
        super().__init__(f"row {row}: {message}")
