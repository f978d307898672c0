"""Interpreter-version shims.

``SLOTS`` makes a dataclass keep its fields in ``__slots__`` rather
than a per-instance ``__dict__``.  The per-reading value types pass
it, so a process holding many readings keeps less resident.
``dataclass(slots=...)`` arrived in Python 3.10; on 3.9 the types keep
their ``__dict__`` and otherwise behave the same.
"""

import sys

SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}
