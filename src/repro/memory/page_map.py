"""First-touch virtual-page -> directory-module mapping (paper Section 5).

"A simple first-touch policy is used to map virtual pages to physical pages
in the directory modules": the first core to touch a page becomes its home
tile, so thread-private data is homed locally and shared data is spread by
whoever touched it first.
"""

from __future__ import annotations

from typing import Dict


class PageMapper:
    """Assigns each page a home directory on first touch."""

    def __init__(self, page_bytes: int, n_directories: int) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a positive power of two")
        self.page_bytes = page_bytes
        self.n_directories = n_directories
        self._home: Dict[int, int] = {}
        self.first_touches = 0

    def page_of(self, byte_addr: int) -> int:
        return byte_addr // self.page_bytes

    def home_of_line(self, line_addr: int, line_bytes: int, toucher: int) -> int:
        """Home directory of a line, allocating the page on first touch."""
        return self.home_of_page(line_addr * line_bytes // self.page_bytes, toucher)

    def home_of_page(self, page: int, toucher: int) -> int:
        """Home directory of ``page``; ``toucher`` claims it on first touch."""
        home = self._home.get(page)
        if home is None:
            home = toucher % self.n_directories
            self._home[page] = home
            self.first_touches += 1
        return home

    def premap(self, page: int, home: int) -> None:
        """Pre-assign a page's home (models the application's
        initialization phase, whose first touches happened before the
        measured region begins)."""
        self._home[page] = home % self.n_directories

    def lookup(self, page: int):
        """Home of an already-mapped page, or None."""
        return self._home.get(page)

    def distribution(self) -> Dict[int, int]:
        """Pages homed per directory (load-balance diagnostics)."""
        counts: Dict[int, int] = {}
        for home in self._home.values():
            counts[home] = counts.get(home, 0) + 1
        return counts


__all__ = ["PageMapper"]
