"""Registry of imported cohomological input data.

The package ships a JSON registry holding the building blocks that are
quoted from the literature rather than computed here: cohomology tables
with citations, fibration recipes (which fiber degree carries which base
table at which Tate twist), externally known differential ranks, and
stored pages used as cross-checks.  The packaged registry is the default;
`load_registry(path)` (the `--registry` option) reads another file.
"""

from __future__ import annotations

import json
import pkgutil
from collections import namedtuple

from . import InputError
from .mhs import CohomologyTable, json_value, read_json
from .ssengine import KnownDifferential, SSPage

FORMAT = "avor3-registry/1"
_PACKAGED = "data/paper_data.json"


RegisteredTable = namedtuple("RegisteredTable", "table citation notes", defaults=("",))


class Registry(namedtuple("Registry", "tables fibers knowns pages source",
                          defaults=("packaged",))):
    """The registry's four dicts, by name or label, and where it was read;
    an immutable tuple record (namedtuple), like `RegisteredTable`."""

    __slots__ = ()

    def _lookup(self, mapping, kind, key):
        try:
            return mapping[key]
        except KeyError:
            raise InputError("", "registry %r has no %s %r" % (self.source, kind, key)) from None

    def table(self, label) -> RegisteredTable:
        return self._lookup(self.tables, "table", label)

    def fiber(self, name):
        return self._lookup(self.fibers, "fibration", name)

    def known(self, name) -> KnownDifferential:
        return self._lookup(self.knowns, "known differential", name)

    def page(self, label) -> SSPage:
        return self._lookup(self.pages, "page", label)

    def base_tables(self):
        """Plain label -> table mapping, as fibration assembly expects."""
        return {label: rt.table for label, rt in self.tables.items()}


def parse_registry(data, source="memory") -> Registry:
    """Read a registry document; a malformed field raises InputError naming it.

    Each fiber item is a list [degree, table, twist] whose errors name those
    three fields, e.g. `fibers.kummer_fiber[0]: "twist" must be an integer`;
    table and page errors start at their index, e.g.
    `tables[3].entries[0].classes[0]: "tate" must be at least 0`.
    """
    if not isinstance(data, dict):
        raise InputError("", "a registry must be a JSON object")
    fmt = json_value(data, "format", "", str)
    if fmt != FORMAT:
        raise InputError("", "unrecognized registry format %r" % fmt)
    tables = {}
    for i, item in enumerate(json_value(data, "tables", "", list, default=[])):
        where = "tables[%d]" % i
        table = CohomologyTable.from_json_dict(item, where)
        if table.label in tables:
            raise InputError(where, "duplicate table label %r" % table.label)
        citation = json_value(item, "citation", where, str, default="")
        tables[table.label] = RegisteredTable(table, citation,
                                              json_value(item, "notes", where, str, default=""))
    fibers = {}
    fiber_map = json_value(data, "fibers", "", dict, default={})
    for name in fiber_map:
        fiber = []
        for i, item in enumerate(json_value(fiber_map, name, "fibers", list)):
            where = "fibers.%s[%d]" % (name, i)
            if type(item) is not list or len(item) != 3:
                raise InputError(where, "expected [degree, table, twist]")
            fields = dict(zip(("degree", "table", "twist"), item))
            tag = json_value(fields, "table", where, str)
            if tag not in tables:
                raise InputError(where, "unknown table %r" % tag)
            fiber.append((json_value(fields, "degree", where), tag,
                          json_value(fields, "twist", where, minimum=0)))
        fibers[name] = tuple(fiber)
    knowns = {name: KnownDifferential.from_json_dict(k, "knowns." + name)
              for name, k in json_value(data, "knowns", "", dict, default={}).items()}
    pages = {}
    for i, item in enumerate(json_value(data, "pages", "", list, default=[])):
        where = "pages[%d]" % i
        page = SSPage.from_json_dict(item, path=where)
        if page.label in pages:
            raise InputError(where, "duplicate page label %r" % page.label)
        pages[page.label] = page
    return Registry(tables, fibers, knowns, pages, source)


def load_registry(path=None) -> Registry:
    """The registry file at `path`, or the packaged one when `path` is None."""
    if path is not None:
        return parse_registry(read_json(path), source=str(path))
    # pkgutil, not importlib.resources, which imports `inspect` on Python 3.12+
    text = pkgutil.get_data("avor3", _PACKAGED).decode("utf-8")
    return parse_registry(json.loads(text), source="packaged")
