"""One admission policy for the process-wide caches of recurring content.

The FORTRAN parse cache (:func:`repro.fortranlib.parser.parse_source`),
the FORTRAN runtime's shared compiled units
(:class:`repro.fortranlib.interp.FortranRuntime`) and the lift-plan cache
(:func:`repro.glafexec.vectorize.compiled_plan`) key what they keep on
content, never on an object's identity, and keep a value only once its
key comes back: the first sight of a key remembers the key alone, so
content a process sees once (a fuzz draw) keeps nothing alive.  Both
lists are bounded by constants, least recently used out first for kept
values, oldest first for seen keys.  A dependency-free leaf.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["RecurringCache", "digest"]

#: How many seen keys a cache remembers, oldest out first.
_SEEN_ENTRIES = 4096


def digest(data: str | bytes) -> bytes:
    """A 16-byte content digest."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.blake2b(data, digest_size=16).digest()


class RecurringCache:
    """Values kept by key once the key comes back."""

    __slots__ = ("entries", "kept", "seen")

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.kept: OrderedDict[Hashable, Any] = OrderedDict()
        self.seen: OrderedDict[Hashable, None] = OrderedDict()

    def get(self, key: Hashable) -> Any:
        """The value kept for ``key``, else ``None``."""
        value = self.kept.get(key)
        if value is not None:
            self.kept.move_to_end(key)
        return value

    def came_back(self, key: Hashable) -> bool:
        """Was ``key`` seen before?  It is now."""
        if key in self.seen:
            return True
        self.seen[key] = None
        if len(self.seen) > _SEEN_ENTRIES:
            self.seen.popitem(last=False)
        return False

    def offer(self, key: Hashable, value: Any) -> None:
        """Keep ``value`` if ``key`` came back."""
        if self.came_back(key):
            self.kept[key] = value
            if len(self.kept) > self.entries:
                self.kept.popitem(last=False)
