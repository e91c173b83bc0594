"""Repository tools that run as modules (``python -m tests.tools.<name>``)."""
