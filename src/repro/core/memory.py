"""Symbolic memory: byte-addressed, copy-on-write, backed by a memory map.

Memory is organized in pages of written bytes over a concrete backing
store (the loaded program image).  Forking a path shares pages until one
side writes (copy-on-write) — the design choice ablated in Table 5
(``cow=False`` deep-copies on fork instead).

A byte is an ``int`` while it is concrete and a solver term only once it
is symbolic: image bytes are never wrapped in terms, writes store a
constant term as its int, and a word read is an int when every byte is.

Address *terms* are resolved to concrete addresses by the executor (which
owns the solver); this module works with concrete addresses and symbolic
*contents*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..compile.ops import Value, lift
from ..smt import terms as T

__all__ = ["Region", "MemoryMap", "SymMemory", "PAGE_SIZE", "check_value"]

PAGE_SIZE = 256


def check_value(value: Value, width: int, what: str, name) -> Value:
    """``value`` checked to be ``width`` bits wide (an int must fit);
    a constant term comes back as its int."""
    if type(value) is int:
        if value >> width:
            raise T.WidthError("%s %r takes %d bits, got %#x"
                               % (what, name, width, value))
        return value
    if value.width != width:
        raise T.WidthError("%s %r takes %d bits, got %d"
                           % (what, name, width, value.width))
    return value.value if value.op == T.CONST else value


class Region:
    """One mapped address range."""

    def __init__(self, start: int, size: int, name: str = "region",
                 writable: bool = True, track_uninit: bool = False):
        self.start = start
        self.size = size
        self.name = name
        self.writable = writable
        # When set, reads of bytes never written (and not covered by the
        # initial image) are reported as uninitialized-read defects.
        self.track_uninit = track_uninit

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def __repr__(self):
        return "Region(%s: %#x..%#x)" % (self.name, self.start, self.end)


class MemoryMap:
    """The set of valid regions; anything outside is an OOB access."""

    def __init__(self, regions: Optional[List[Region]] = None):
        self.regions: List[Region] = list(regions or [])

    def add(self, region: Region) -> Region:
        self.regions.append(region)
        return region

    def region_for(self, addr: int) -> Optional[Region]:
        for region in self.regions:
            if region.contains(addr):
                return region
        return None

    def is_mapped(self, addr: int) -> bool:
        return self.region_for(addr) is not None

    def membership_term(self, addr_term: T.Term) -> T.Term:
        """Boolean term: ``addr`` lies inside some mapped region."""
        width = addr_term.width
        clauses = []
        for region in self.regions:
            lo = T.uge(addr_term, T.bv(region.start, width))
            hi = T.ult(addr_term, T.bv(region.end, width))
            clauses.append(T.and_(lo, hi))
        return T.disjoin(clauses)


class SymMemory:
    """Copy-on-write paged symbolic memory.

    A byte is, in priority order: a page entry (written during
    execution), a concrete image byte, or zero.
    """

    def __init__(self, memory_map: MemoryMap, cow: bool = True):
        self.map = memory_map
        self.cow = cow
        self._image: Dict[int, int] = {}
        self._pages: Dict[int, Dict[int, Value]] = {}
        self._owned: set = set()

    # -- image loading -----------------------------------------------------------

    def load_image(self, base: int, data: bytes, name: str = "image",
                   writable: bool = True) -> Region:
        """Install concrete backing bytes and map the region."""
        for offset, byte in enumerate(data):
            self._image[base + offset] = byte
        return self.map.add(Region(base, len(data), name, writable))

    def image_byte(self, addr: int) -> Optional[int]:
        return self._image.get(addr)

    # -- forking ---------------------------------------------------------------------

    def fork(self) -> "SymMemory":
        child = SymMemory.__new__(SymMemory)
        child.map = self.map
        child.cow = self.cow
        child._image = self._image          # immutable after load
        if self.cow:
            child._pages = dict(self._pages)
            child._owned = set()
            self._owned = set()             # parent's pages become shared too
        else:
            child._pages = {page: dict(content)
                            for page, content in self._pages.items()}
            child._owned = set(child._pages)
        return child

    # -- byte access --------------------------------------------------------------------

    def read_byte(self, addr: int) -> Value:
        page_index, offset = divmod(addr, PAGE_SIZE)
        page = self._pages.get(page_index)
        if page is not None:
            entry = page.get(offset)
            if entry is not None:
                return entry
        return self._image.get(addr, 0)

    def write_byte(self, addr: int, value: Value) -> None:
        value = check_value(value, 8, "memory byte at", addr)
        page_index, offset = divmod(addr, PAGE_SIZE)
        page = self._pages.get(page_index)
        if page is None:
            page = {}
            self._pages[page_index] = page
            self._owned.add(page_index)
        elif page_index not in self._owned:
            page = dict(page)
            self._pages[page_index] = page
            self._owned.add(page_index)
        page[offset] = value

    def is_written(self, addr: int) -> bool:
        page = self._pages.get(addr // PAGE_SIZE)
        return page is not None and (addr % PAGE_SIZE) in page

    def is_initialized(self, addr: int) -> bool:
        """Written during execution, or backed by the image."""
        return self.is_written(addr) or addr in self._image

    # -- word access (executor-facing) ------------------------------------------------------

    def read(self, addr: int, size: int, endian: str) -> Value:
        """Read ``size`` bytes as one value in the given endianness: an
        int when every byte is, else their concatenation term."""
        data = [self.read_byte(addr + i) for i in range(size)]
        if endian == "little":
            data.reverse()                  # most significant first
        word = 0
        for byte in data:
            if type(byte) is not int:
                return T.concat_many([lift(part, 8) for part in data])
            word = (word << 8) | byte
        return word

    def write(self, addr: int, value: Value, size: int, endian: str) -> None:
        value = check_value(value, 8 * size, "write of size", size)
        for i in range(size):
            if type(value) is int:
                byte = (value >> (8 * i)) & 0xff
            else:
                byte = T.extract(value, 8 * i + 7, 8 * i)
            if endian == "little":
                self.write_byte(addr + i, byte)
            else:
                self.write_byte(addr + size - 1 - i, byte)

    def concrete_window(self, addr: int, size: int) -> Optional[bytes]:
        """The bytes at ``addr`` if they are all concrete (fetch path)."""
        out = bytearray()
        for i in range(size):
            byte = self.read_byte(addr + i)
            if type(byte) is not int:
                return None
            out.append(byte)
        return bytes(out)

    # -- fetch sites (Engine._fetch) -------------------------------------------

    def image_site(self, addr: int, size: int) -> Optional[tuple]:
        """A token for ``size`` image bytes at ``addr`` that this memory
        has not written, or None if any is written or not in the image.
        :meth:`holds_site` tells whether a memory still reads them."""
        offsets: Dict[int, List[int]] = {}
        for byte_addr in range(addr, addr + size):
            if byte_addr not in self._image or self.is_written(byte_addr):
                return None
            page_index, offset = divmod(byte_addr, PAGE_SIZE)
            offsets.setdefault(page_index, []).append(offset)
        return self._image, tuple((page_index, tuple(page_offsets))
                                  for page_index, page_offsets
                                  in offsets.items())

    def holds_site(self, site: tuple) -> bool:
        """Whether this memory reads a :meth:`image_site` token's bytes
        unchanged: it shares the image and has written none of them."""
        image, spans = site
        if image is not self._image:
            return False
        pages = self._pages
        for page_index, offsets in spans:
            page = pages.get(page_index)
            if page is not None:
                for offset in offsets:
                    if offset in page:
                        return False
        return True

    @property
    def pages_touched(self) -> int:
        return len(self._pages)
