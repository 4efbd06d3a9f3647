"""Exception types shared across the package."""


class CutoffError(ValueError):
    """Requested Fock cutoff cannot meet the tail-mass tolerance, or the
    automatic selection exceeded the hard cap."""


class GridWideningError(RuntimeError):
    """Phase-space grid failed the normalization check even at the widest
    allowed bounds."""
