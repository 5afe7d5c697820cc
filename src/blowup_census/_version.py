"""Package version, in a leaf module so that any submodule can import it."""

__version__ = "0.1.0"
