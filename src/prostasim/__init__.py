"""prostasim: desk-scale simulator of robot-assisted transperineal needle
placement with ultrasound-based motion tracking and closed-loop depth
correction."""

__version__ = "0.1.0"


# the single numpy kernel; perfbench records this name with each run
def active_backend() -> str:
    return "numpy"


__all__ = ["__version__", "active_backend"]
